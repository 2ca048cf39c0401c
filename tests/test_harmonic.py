import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from helpers import (
    block_multiset,
    c12,
    complement,
    ex44,
    gamma,
    golay24,
    hahn_kernel_fn,
    hamming74,
    is_zero,
    random_code,
    sample_tsets,
    tgolay12,
    value,
)
from jacobiforge import (
    BiHomPoly,
    HahnParams,
    LinearCode,
    PochhammerZeroDenominator,
    RefSet,
    SubsetFn,
    delsarte_design_check,
    f_tilde,
    h_dt,
    hahn_eval,
    harm_basis,
    harmonic_higher_wenum,
    higher_jacobi,
    higher_weight_enum,
    is_t_design,
    recover_jacobi,
)
from jacobiforge import enumerators, exactmath
from jacobiforge.designs import Run, support_shells
from jacobiforge.enumerators import subcode_support_histogram
from jacobiforge.errors import DegreeUnderflow


def test_gamma_constant():
    n, d = 6, 3
    f = SubsetFn(n, d, {z: 5 for z in combinations(range(1, n + 1), d)})
    g = gamma(f)
    assert all(value(g, y) == 5 * (n - d + 1) for y in combinations(range(1, n + 1), d - 1))


def test_gamma_examples():
    f = SubsetFn(3, 1, {(1,): 1, (2,): -1, (3,): 0})
    assert value(gamma(f), ()) == 0
    f = SubsetFn(4, 2, {(1, 2): 1, (3, 4): -1})
    g = gamma(f)
    assert value(g, (1,)) == 1
    assert value(g, (3,)) == -1
    with pytest.raises(DegreeUnderflow):
        gamma(SubsetFn(3, 0, {(): 1}))


def test_harm_basis_dimensions():
    assert len(harm_basis(5, 0)) == 1
    assert len(harm_basis(6, 1)) == 5
    assert len(harm_basis(6, 2)) == 9
    for n in range(2, 9):
        for d in range(1, min(4, n) + 1):
            expect = max(0, comb(n, d) - comb(n, d - 1))
            assert len(harm_basis(n, d)) == expect, (n, d)


def test_every_small_harm_basis_function_is_in_the_kernel_of_gamma():
    # harm_basis builds plain SubsetFns, so this is where the kernel property is checked
    for n in range(1, 11):
        for d in range(1, min(3, n) + 1):
            for f in harm_basis(n, d):
                assert (f.n, f.d) == (n, d)
                assert is_zero(gamma(f)), (n, d)
                # each value is the sign of a product of d differences, so no Fraction
                assert all(type(v) is int and v in (-1, 1) for v in f.values.values())


def test_harm_basis_above_half_n_is_empty_without_elimination(monkeypatch):
    sixes = list(combinations(range(1, 8), 6))
    shells = [block_multiset(7, sixes), block_multiset(7, sixes[1:])]  # a design, and not one

    def refuse(*args):
        raise AssertionError("harm_basis ran an elimination")

    # rref is the one elimination; nullspace and rat_inverse go through it
    monkeypatch.setattr(exactmath, "rref", refuse)
    for n in range(0, 13):
        for d in range(0, n + 1):
            basis = harm_basis.__wrapped__(n, d)
            assert len(basis) == max(0, comb(n, d) - (comb(n, d - 1) if d else 0)), (n, d)
            for f in basis:
                assert (f.n, f.d) == (n, d)
                assert all(type(v) is int and v in (-1, 1) for v in f.values.values())
                assert d == 0 or is_zero(gamma(f)), (n, d)
    # Delsarte above t = n/2 reads only the degrees up to n/2
    for t in range(4, 7):
        assert [delsarte_design_check(blocks, t) for blocks in shells] == [True, False]
        assert [is_t_design(blocks, t).is_design for blocks in shells] == [True, False]


def test_harm_basis_has_full_rank_over_the_rationals():
    for n in range(1, 11):
        for d in range(0, n // 2 + 1):
            basis = harm_basis(n, d)
            cols = [sum(1 << c - 1 for c in z) for z in combinations(range(1, n + 1), d)]
            rows = [[f.values.get(z, 0) for z in cols] for f in basis]
            reduced, _ = exactmath.rref(exactmath.QQ, rows, len(cols))
            assert len(reduced) == len(basis) == comb(n, d) - (comb(n, d - 1) if d else 0)


def test_harm_basis_in_kernel_and_degree_one_sums():
    for f in harm_basis(6, 2):
        assert is_zero(gamma(f))
    for f in harm_basis(6, 1):
        assert sum(f.values.values()) == 0


def test_f_tilde_small_sets_and_degree_zero():
    f = SubsetFn(5, 2, {(1, 2): 3})
    assert f_tilde(f, {4}) == 0
    const = SubsetFn(5, 0, {(): Fraction(7)})
    assert f_tilde(const, set()) == 7
    assert f_tilde(const, {1, 2, 3}) == 7


def test_f_tilde_harmonic_full_set_vanishes():
    for f in harm_basis(6, 1):
        assert f_tilde(f, set(range(1, 7))) == 0


def test_harmonic_tilde_sums_vanish_over_fixed_size():
    for d in (1, 2):
        for t in range(d, 5):
            for f in harm_basis(6, d)[:3]:
                total = sum(
                    f_tilde(f, set(x)) for x in combinations(range(1, 7), t)
                )
                assert total == 0, (d, t)


def test_harmonic_wenum_degree_zero_is_plain():
    code = ex44()
    const = SubsetFn(6, 0, {(): 1})
    for r in range(3):
        assert harmonic_higher_wenum(code, const, r) == higher_weight_enum(code, r)


def test_harmonic_wenum_design_vanishes():
    code = ex44()
    for f in harm_basis(6, 1):
        assert harmonic_higher_wenum(code, f, 1) == BiHomPoly.zero(0, 6)


def test_harmonic_wenum_non_design_detects():
    code = ex44()
    assert any(
        harmonic_higher_wenum(code, f, 1) != BiHomPoly.zero(0, 6)
        for f in harm_basis(6, 2)
    )


def test_harmonic_wenum_zero_weight_coefficient_vanishes():
    code = hamming74()
    for d in (1, 2):
        f = harm_basis(7, d)[0]
        for r in range(3):
            poly = harmonic_higher_wenum(code, f, r)
            assert poly.coeff[0][0] == 0


def literal_harmonic_wenum(code, f, r) -> list:
    """The definition: f-tilde of each r-dim subcode's support, by weight."""
    counts = [Fraction(0)] * (code.n + 1)
    for mask, mult in subcode_support_histogram(code, r).items():
        counts[mask.bit_count()] += mult * f_tilde(f, mask)
    return counts


@pytest.mark.parametrize("code", [hamming74, c12, tgolay12])
def test_harmonic_wenum_equals_the_literal_f_tilde_sum(code):
    # the lambda kernel's sums against f-tilde summed over the blocks, at the
    # first, a middle and the last basis index
    code = code()
    for d in range(4):
        basis = harm_basis(code.n, d)
        for f in {basis[0], basis[len(basis) // 2], basis[-1]}:
            for r in range(3):
                got = harmonic_higher_wenum(code, f, r)
                assert list(got.coeff[0]) == literal_harmonic_wenum(code, f, r), (d, r)


def test_harmonic_wenum_of_a_rational_function_above_a_block_size():
    # a Fraction-valued, non-harmonic f of degree 4 on Hamming [7, 4]: the
    # weight-3 shell's blocks are smaller than d and contribute nothing
    rng = random.Random(11)
    code = hamming74()
    f = SubsetFn(7, 4, {
        z: Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
        for z in combinations(range(1, 8), 4)
    })
    for r in range(code.k + 1):
        got = list(harmonic_higher_wenum(code, f, r).coeff[0])
        assert got == literal_harmonic_wenum(code, f, r), r
        assert got[3] == 0
    assert any(isinstance(c, Fraction) for c in harmonic_higher_wenum(code, f, 1).coeff[0])


def test_delsarte_agrees_with_brute_force():
    for code in (ex44(), hamming74()):
        for r in range(1, code.k + 1):
            for w, shell in support_shells(code, r).items():
                for t in range(1, min(w, 3) + 1):
                    assert delsarte_design_check(shell, t) == is_t_design(shell, t).is_design


def test_delsarte_confirms_the_golay_5_designs():
    # degree 5 is C(24, 5) - C(24, 4) = 31,878 basis functions
    for w, shell in support_shells(golay24(), 1).items():
        assert delsarte_design_check(shell, 5), w
        assert is_t_design(shell, 5).is_design, w


def test_delsarte_sees_the_defect_only_at_degree_5():
    # ternary Golay punctured at coordinate 12, an [11, 6]_3 code: its weight-5
    # and weight-6 shells are 4-designs and not 5-designs
    tg = tgolay12()
    code = LinearCode(tg.spec, 11, [row[:11] for row in tg.gen])
    shells = support_shells(code, 1)
    for w in (5, 6):
        assert delsarte_design_check(shells[w], 4), w
        assert not delsarte_design_check(shells[w], 5), w
    for w, shell in shells.items():
        for t in range(1, 6):
            assert delsarte_design_check(shell, t) == is_t_design(shell, t).is_design, (w, t)


def test_delsarte_vacuous_on_empty():
    from jacobiforge import BlockMultiset

    assert delsarte_design_check(BlockMultiset(6, {}), 2) is True


def test_hahn_special_values():
    rng = random.Random(2)
    for n, t in ((6, 1), (6, 2), (7, 3), (8, 2)):
        alpha = Fraction(t - n - 1)
        beta = Fraction(-t - 1)
        big_n = t + 1
        for m in range(0, min(4, big_n)):
            params = HahnParams(alpha, beta, big_n, m)
            assert hahn_eval(params, 0) == 1
            if m == 0:
                for x in range(big_n):
                    assert hahn_eval(params, x) == 1
            # value at N-1 in closed binomial form
            num = Fraction(1)
            den = Fraction(1)
            for idx in range(1, m + 1):
                num *= beta + idx
                den *= alpha + idx
            expect = (-1) ** m * (num / Fraction(1).__class__(1)) / den * Fraction(1)
            got = hahn_eval(params, big_n - 1)
            assert got == (-1) ** m * num / den, (n, t, m)


def test_hahn_generic_parameters():
    params = HahnParams(Fraction(1, 2), Fraction(-1, 3), 5, 3)
    assert hahn_eval(params, 0) == 1
    bad = HahnParams(Fraction(-2), Fraction(0), 4, 3)
    with pytest.raises(PochhammerZeroDenominator):
        hahn_eval(bad, 1)


def test_h_dt_closed_form_n6_t1():
    for ell in range(0, 7):
        for i in (0, 1):
            if i > ell or ell - i > 5:
                continue
            assert h_dt(6, 1, 1, ell, i) == Fraction(i) - Fraction(ell - i, 5)
    assert h_dt(6, 1, 1, 2, 1) == Fraction(4, 5)


def test_h_dt_below_degree_vanishes():
    assert h_dt(6, 2, 2, 1, 0) == 0
    assert h_dt(8, 3, 2, 0, 0) == 0


def test_h_dt_is_extension_of_a_harmonic_degree_d_function():
    # the closed form must be h-tilde of a degree-d harmonic function whose
    # restriction to t-sets carries the Hahn kernel values; checking the
    # restriction, harmonicity, and the extension pins it completely
    n = 6
    for d, t in ((1, 1), (1, 2), (2, 2), (2, 3)):
        tset = RefSet.of(n, range(1, t + 1))
        g = SubsetFn(
            n,
            d,
            {
                z: h_dt(n, t, d, d, len(frozenset(z) & tset.members))
                for z in combinations(range(1, n + 1), d)
            },
        )
        assert is_zero(gamma(g)), (d, t)
        kern = hahn_kernel_fn(n, t, d, tset)
        for i in range(0, t + 1):
            tslice = tuple(sorted(tset.members))[:i]
            cslice = tuple(sorted(complement(tset)))[: t - i]
            assert h_dt(n, t, d, t, i) == value(kern, tslice + cslice), (d, t, i)
        for size in range(0, n + 1):
            for x in combinations(range(1, n + 1), size):
                xs = set(x)
                got = h_dt(n, t, d, len(xs), len(xs & tset.members))
                assert got == f_tilde(g, xs), (d, t, x)


def test_h_dt_matches_kernel_extension_everywhere_at_d_equals_t():
    # for d = t the kernel itself is the underlying function, so the plain
    # t-subset summation agrees with the closed form on every subset
    n = 6
    for t in (1, 2):
        tset = RefSet.of(n, [2 * j for j in range(1, t + 1)])
        kern = hahn_kernel_fn(n, t, t, tset)
        for size in range(0, n + 1):
            for x in combinations(range(1, n + 1), size):
                xs = set(x)
                assert h_dt(n, t, t, len(xs), len(xs & tset.members)) == f_tilde(
                    kern, xs
                )


def test_hahn_kernel_is_harmonic_at_top_degree():
    # for d = t the kernel lives in the degree-t space and must be harmonic
    for n, t in ((6, 1), (6, 2), (7, 2)):
        tset = RefSet.of(n, range(1, t + 1))
        kern = hahn_kernel_fn(n, t, t, tset)
        assert is_zero(gamma(kern))


def test_hahn_kernel_sum_over_t_sets_is_a_binomial_multiple_of_the_row():
    # over t-sets Z, sum f(Z) lambda_l(Z) = C(l - d, t - d) sum_i h_{d,t}(l, i) n_{l,i}
    # for the Hahn kernel f on t-sets: 0 on the shells below t, so this sum
    # cannot pin them, and recover sums over the d-sets instead
    nonzero = 0
    for code in (hamming74(), c12(), tgolay12()):
        n = code.n
        for r in (1, 2):
            shells = support_shells(code, r)
            for t in range(1, min(4, n // 2) + 1):
                tset = RefSet.of(n, range(2, 2 * t + 1, 2))
                split: Counter = Counter()
                for mask, mult in subcode_support_histogram(code, r).items():
                    split[mask.bit_count(), (mask & tset.mask).bit_count()] += mult
                for d in range(1, t + 1):
                    kern = hahn_kernel_fn(n, t, d, tset)
                    for ell, shell in shells.items():
                        lam = shell.lambdas(t)
                        got = sum(v * lam[z] for z, v in kern.values.items() if z in lam)
                        if ell < t:
                            assert got == 0, (code.spec.q, n, r, t, d, ell)
                            continue
                        row = sum(h_dt(n, t, d, ell, i) * split[ell, i] for i in range(t + 1))
                        assert got == comb(ell - d, t - d) * row, (code.spec.q, n, r, t, d, ell)
                        nonzero += got != 0
    assert nonzero > 50


def test_recover_reads_no_split_count(monkeypatch):
    calls = []
    real = enumerators._split_counts
    monkeypatch.setattr(enumerators, "_split_counts", lambda *args: calls.append(1) or real(*args))
    for code, r, coords in ((c12(), 2, (1, 5, 9)), (golay24(), 1, (3, 17))):
        tset = RefSet.of(code.n, coords)
        recovered = recover_jacobi(code, r, tset)
        assert calls == []
        # the direct route reads them, so the spy does see a split count
        assert recovered.grid == higher_jacobi(code, tset, r).grid
        assert calls == [1]
        calls.clear()


def test_recover_goldens():
    code = ex44()
    tset = RefSet.of(6, [1])
    for r in range(code.k + 1):
        assert recover_jacobi(code, r, tset).grid == higher_jacobi(code, tset, r).grid
    # the weight-2 block of the rank-1 recovery solves to (2, 1)
    rec = recover_jacobi(code, 1, tset)
    assert rec.grid[2][0] == 2 and rec.grid[1][1] == 1


def test_recover_rank_zero():
    code = hamming74()
    tset = RefSet.of(7, [4])
    table = recover_jacobi(code, 0, tset)
    assert table.mass() == 1 and table.grid[0][0] == 1


def test_recover_hamming_two_sets():
    code = hamming74()
    for coords in ((1, 2), (3, 7), (2, 5)):
        tset = RefSet.of(7, coords)
        for r in range(3):
            assert (
                recover_jacobi(code, r, tset).grid
                == higher_jacobi(code, tset, r).grid
            )


def test_recover_three_point_reference_set():
    # deeper than the conformance gate: 3x3-plus kernel systems on n = 7
    code = hamming74()
    for coords in ((1, 2, 3), (2, 4, 6)):
        tset = RefSet.of(7, coords)
        for r in range(3):
            assert (
                recover_jacobi(code, r, tset).grid
                == higher_jacobi(code, tset, r).grid
            )


def test_recover_random_codes():
    rng = random.Random(606)
    done = 0
    while done < 6:
        q = rng.choice((2, 3))
        code = random_code(rng, q, rng.randrange(4, 8), rng.randrange(1, 4))
        if code.k == 0:
            continue
        done += 1
        for T in sample_tsets(rng, code.n, 2, per_size=1):
            if not 1 <= len(T) <= code.n // 2:
                continue
            tset = RefSet.of(code.n, T)
            for r in range(code.k + 1):
                assert (
                    recover_jacobi(code, r, tset).grid
                    == higher_jacobi(code, tset, r).grid
                )


@pytest.mark.parametrize("make", [ex44, hamming74, c12])
def test_recover_past_half_n_equals_higher_jacobi(make):
    # the Hahn kernel needs |T| <= n/2: a larger T is recovered at [n] - T
    # and its grid transposed, up to T = [n]; every such T on n <= 7, and on
    # C12 the complements of a sample of each size below n/2
    code = make()
    n = code.n
    if n <= 7:
        tsets = [T for size in range(n // 2 + 1, n + 1) for T in combinations(range(1, n + 1), size)]
    else:
        small = sample_tsets(random.Random(n), n, (n - 1) // 2)
        tsets = [sorted(complement(RefSet.of(n, T))) for T in small]
    assert {len(T) for T in tsets} == set(range(n // 2 + 1, n + 1))
    for r in range(3):
        run = Run()
        for T in tsets:
            tset = RefSet.of(n, T)
            assert recover_jacobi(code, r, tset, run) == higher_jacobi(code, tset, r), (r, T)
