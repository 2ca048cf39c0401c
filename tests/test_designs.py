from fractions import Fraction
from itertools import combinations
from math import comb
from traceback import walk_tb

import pytest

from helpers import block_multiset, ex44, hamming74
from jacobiforge import (
    BlockMultiset,
    DesignHypothesisFails,
    RefSet,
    Run,
    TooLarge,
    higher_jacobi,
    is_t_design,
    jacobi_by_polarization,
    subcode_support_designs,
    t_independence_check,
)
from jacobiforge.code import LinearCode
from jacobiforge.designs import support_shells
from jacobiforge.gf import field_new

S12 = block_multiset(6, [{1, 2}, {3, 4}, {5, 6}])


def fano_blocks():
    return support_shells(hamming74(), 1)[3]


def test_is_t_design_goldens():
    v = is_t_design(S12, 1)
    assert (v.is_design, v.lam) == (True, 1)
    assert is_t_design(S12, 2).is_design is False
    fano = fano_blocks()
    v = is_t_design(fano, 2)
    assert (v.is_design, v.lam) == (True, 1)


def test_is_t_design_edge_conventions():
    empty = block_multiset(5, [])
    v = is_t_design(empty, 2)
    assert (v.is_design, v.lam) == (True, 0)
    # blocks smaller than t cover nothing: vacuous design with lambda 0
    v = is_t_design(S12, 3)
    assert (v.is_design, v.lam) == (True, 0)
    # t = 0: the empty set lies in every block
    assert is_t_design(S12, 0).lam == 3


def test_uniform_block_size_enforced():
    with pytest.raises(ValueError):
        block_multiset(4, [{1}, {1, 2}])
    with pytest.raises(ValueError):
        block_multiset(3, [{4}])
    for n, counts in (
        (3, {0b1000: 1}),  # a bit at n
        (3, {0b011: 1, 0b110: 0}),  # a multiplicity below 1
        (3, {0b011: -2}),
        (4, {0b0001: 2, 0b0011: 1}),  # mixed popcount
    ):
        with pytest.raises(ValueError):
            BlockMultiset(n, counts)


def test_subcode_support_designs_goldens():
    code = ex44()
    r1 = subcode_support_designs(code, 1, 1)
    assert {w: v.is_design for w, v in r1.items()} == {2: True, 4: True, 6: True}
    assert {w: v.lam for w, v in r1.items()} == {2: 1, 4: 2, 6: 1}
    r2 = subcode_support_designs(code, 2, 1)
    assert {w: v.is_design for w, v in r2.items()} == {4: True, 6: True}
    ham = subcode_support_designs(hamming74(), 1, 2)
    assert {w: v.is_design for w, v in ham.items()} == {3: True, 4: True, 7: True}


def test_t_independence_goldens():
    code = ex44()
    assert t_independence_check(code, 2, 1) == (True, None)
    ok, witness = t_independence_check(code, 1, 2)
    assert not ok and witness is not None
    t1, t2 = witness
    assert higher_jacobi(code, t1, 1).grid != higher_jacobi(code, t2, 1).grid
    zero = LinearCode(field_new(2), 4, [])
    for t in range(3):
        assert t_independence_check(zero, 0, t) == (True, None)


def test_a_run_shares_each_input_and_its_memo_holds_no_reference_to_it():
    # a key holding the run would keep a finished run's memo alive until
    # the cyclic collector runs, where dropping the run frees it at once
    run = Run()
    assert t_independence_check(hamming74(), 1, 2, run) == t_independence_check(hamming74(), 1, 2)
    shells = run.shared(support_shells, hamming74(), 1, run)
    assert run.shared(support_shells, hamming74(), 1, run) is shells
    assert len(run.memo) == 2
    assert all(arg is not run for key in run.memo for arg in key)


def test_a_run_keeps_a_guard_hit_and_raises_it_again():
    # an item over the guard must not redo the work that found it over
    run, builds, depths = Run(), [], []

    def build(x):
        builds.append(x)
        raise TooLarge(f"{x} subcodes exceed the guard")

    for _ in range(3):
        with pytest.raises(TooLarge, match="^7 subcodes exceed the guard$") as caught:
            run.shared(build, 7)
        depths.append(len(list(walk_tb(caught.value.__traceback__))))
    assert builds == [7]
    assert depths[0] == depths[1] == depths[2]  # no traceback grows across calls


@pytest.mark.parametrize("build", [ex44, hamming74])
def test_design_iff_independence(build):
    code = build()
    for r in range(code.k + 1):
        for t in range(0, code.n + 1):
            if comb(code.n, t) > 40:
                continue
            verdicts = subcode_support_designs(code, r, t)
            all_designs = all(v.is_design for v in verdicts.values())
            independent, _ = t_independence_check(code, r, t)
            assert independent == all_designs, (r, t)


def test_design_iff_independence_full_code():
    # the fully symmetric code forces the lambda = 0 convention for
    # shells whose blocks are smaller than t
    full = LinearCode(field_new(2), 4, [[int(i == j) for j in range(4)] for i in range(4)])
    for r in range(1, 5):
        for t in range(0, 4):
            verdicts = subcode_support_designs(full, r, t)
            all_designs = all(v.is_design for v in verdicts.values())
            independent, _ = t_independence_check(full, r, t)
            assert independent == all_designs is True, (r, t)


def test_lambda_integrality():
    for code in (ex44(), hamming74()):
        for r in range(1, code.k + 1):
            for t in (1, 2):
                for w, shell in support_shells(code, r).items():
                    verdict = is_t_design(shell, t)
                    if verdict.is_design:
                        expect = Fraction(
                            len(shell) * comb(shell.block_size, t), comb(code.n, t)
                        )
                        assert expect.denominator == 1
                        assert verdict.lam == expect


def test_polarization_goldens():
    code = ex44()
    p1 = jacobi_by_polarization(code, 1, 1)
    p2 = jacobi_by_polarization(code, 2, 1)
    assert p1 == higher_jacobi(code, RefSet.of(6, [3]), 1).to_bipoly()
    assert p2.render() == "w*x*y^4 + 2*z*x^2*y^3 + 4*z*y^5"
    for i in range(1, 7):
        assert p2 == higher_jacobi(code, RefSet.of(6, [i]), 2).to_bipoly()


def test_polarization_hamming_two_step():
    code = hamming74()
    poly = jacobi_by_polarization(code, 1, 2)
    for coords in combinations(range(1, 8), 2):
        assert poly == higher_jacobi(code, RefSet.of(7, coords), 1).to_bipoly()


def test_polarization_hypothesis_guard():
    with pytest.raises(DesignHypothesisFails):
        jacobi_by_polarization(ex44(), 1, 2)


def test_polarization_failure_names_the_strength_each_shell_failed_at():
    # the weight-1 shell of 010 over GF(3) is tested at min(t, w, n - t) = 1
    one_word = LinearCode(field_new(3), 3, [[0, 1, 0]])
    with pytest.raises(DesignHypothesisFails) as exc:
        jacobi_by_polarization(one_word, 1, 2)
    assert str(exc.value) == "support shells at weights [1] are not 1-designs"
    # on ex44 at t = 3 the weight-2 shell is tested at 2 and the weight-4 one at 3
    with pytest.raises(DesignHypothesisFails) as exc:
        jacobi_by_polarization(ex44(), 1, 3)
    assert str(exc.value) == (
        "support shells at weights [2] are not 2-designs, at weights [4] are not 3-designs"
    )
    # where every failing shell is tested at t, the weights share one group
    with pytest.raises(DesignHypothesisFails) as exc:
        jacobi_by_polarization(ex44(), 1, 2)
    assert str(exc.value) == "support shells at weights [2, 4] are not 2-designs"
