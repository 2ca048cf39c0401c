from itertools import product

import pytest

from helpers import qbinom_expansion_check
from jacobiforge import gauss_binom, qbracket, qfact


def brute_subspace_count(k: int, r: int, q: int) -> int:
    """Independent oracle: collect row spaces of all r-tuples of vectors.

    Spans are built by closing under addition and scaling, so the count
    owes nothing to the bracket formulas or to the RREF enumerator.
    """
    if q == 2:
        add = lambda u, v: tuple((a + b) % 2 for a, b in zip(u, v))
        scalars = (1,)
    else:
        add = lambda u, v: tuple((a + b) % q for a, b in zip(u, v))
        scalars = tuple(range(1, q))
    vectors = [tuple(v) for v in product(range(q), repeat=k)]
    spans = set()
    zero = (0,) * k

    def span_of(gens):
        out = {zero}
        frontier = [zero]
        while frontier:
            base = frontier.pop()
            for g in gens:
                for s in scalars:
                    sg = tuple((s * x) % q for x in g)
                    new = add(base, sg)
                    if new not in out:
                        out.add(new)
                        frontier.append(new)
        return frozenset(out)

    from itertools import combinations

    for gens in combinations(vectors[1:], r):
        sp = span_of(gens)
        if len(sp) == q ** r:
            spans.add(sp)
    if r == 0:
        return 1
    return len(spans)


def test_qfact_examples():
    assert qfact(3, 2, 2) == (8 - 1) * (8 - 2) == 42
    assert qfact(5, 0, 3) == 1
    assert qfact(1, 2, 2) == 0
    assert qbracket(0, 2) == 1


def test_gauss_binom_examples():
    assert gauss_binom(3, 1, 2) == 7
    assert gauss_binom(6, 0, 5) == 1
    assert gauss_binom(2, 5, 3) == 0


def test_gauss_binom_against_brute_force():
    assert brute_subspace_count(4, 2, 2) == 35
    assert gauss_binom(4, 2, 2) == 35
    for k, r, q in ((3, 1, 2), (3, 2, 2), (4, 1, 3), (3, 2, 3), (4, 3, 2)):
        assert gauss_binom(k, r, q) == brute_subspace_count(k, r, q)


def test_symmetry():
    for a in range(7):
        for b in range(a + 1):
            for q in (2, 3, 4):
                assert gauss_binom(a, b, q) == gauss_binom(a, a - b, q)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_expansion_identity(q):
    for a in range(7):
        for b in range(7):
            assert qbinom_expansion_check(a, b, q)


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        qfact(-1, 0, 2)
