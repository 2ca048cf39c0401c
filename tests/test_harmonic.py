import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from helpers import ex44, hamming74, random_code, sample_tsets
from jacobiforge import (
    BiHomPoly,
    HahnParams,
    PochhammerZeroDenominator,
    RefSet,
    SubsetFn,
    delsarte_design_check,
    f_tilde,
    gamma,
    h_dt,
    hahn_eval,
    harm_basis,
    harmonic_higher_wenum,
    higher_jacobi,
    higher_weight_enum,
    is_t_design,
    recover_jacobi,
)
from jacobiforge.designs import support_shells
from jacobiforge.errors import DegreeUnderflow
from jacobiforge.harmonic import hahn_kernel_fn


def test_gamma_constant():
    n, d = 6, 3
    f = SubsetFn(n, d, {z: 5 for z in combinations(range(1, n + 1), d)})
    g = gamma(f)
    assert all(g.value(y) == 5 * (n - d + 1) for y in combinations(range(1, n + 1), d - 1))


def test_gamma_examples():
    f = SubsetFn(3, 1, {(1,): 1, (2,): -1, (3,): 0})
    assert gamma(f).value(()) == 0
    f = SubsetFn(4, 2, {(1, 2): 1, (3, 4): -1})
    g = gamma(f)
    assert g.value((1,)) == 1
    assert g.value((3,)) == -1
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
                assert gamma(f).is_zero(), (n, d)


def test_harm_basis_in_kernel_and_degree_one_sums():
    for f in harm_basis(6, 2):
        assert gamma(f).is_zero()
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


def test_delsarte_agrees_with_brute_force():
    for code in (ex44(), hamming74()):
        for r in range(1, code.k + 1):
            for w, shell in support_shells(code, r).items():
                for t in range(1, min(w, 3) + 1):
                    assert delsarte_design_check(shell, t) == is_t_design(shell, t).is_design


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
        assert gamma(g).is_zero(), (d, t)
        kern = hahn_kernel_fn(n, t, d, tset)
        for i in range(0, t + 1):
            tslice = tuple(sorted(tset.members))[:i]
            cslice = tuple(sorted(tset.complement))[: t - i]
            assert h_dt(n, t, d, t, i) == kern.value(tslice + cslice), (d, t, i)
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
        assert gamma(kern).is_zero()


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


def test_recover_rejects_large_tset():
    code = ex44()
    with pytest.raises(ValueError):
        recover_jacobi(code, 1, RefSet.of(6, [1, 2, 3, 4]))
