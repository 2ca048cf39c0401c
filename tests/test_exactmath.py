import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobiforge import RatMatrix, SingularMatrix, field_new, rat_solve
from jacobiforge.exactmath import QQ, format_rational, nullspace, parse_rational, rref


def identity(n):
    return RatMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def matvec(a, xs):
    return [sum((x * y for x, y in zip(row, xs)), Fraction(0)) for row in a.entries]


def test_identity_solve():
    a = identity(2)
    assert rat_solve(a, [3, 5]) == [Fraction(3), Fraction(5)]


def test_recovery_system_hand_eliminated():
    # the 2x2 system arising at total weight 2 for the [6,3] golden code
    a = RatMatrix([[1, 1], [Fraction(-2, 5), Fraction(4, 5)]])
    assert rat_solve(a, [3, 0]) == [Fraction(2), Fraction(1)]


def test_singular_raises():
    a = RatMatrix([[1, 1], [2, 2]])
    with pytest.raises(SingularMatrix, match="no pivot in column 1"):
        rat_solve(a, [1, 1])
    # the first column of A without a pivot, whatever comes after it
    with pytest.raises(SingularMatrix, match="no pivot in column 1"):
        rat_solve(RatMatrix([[1, 2, 0], [2, 4, 0], [0, 0, 1]]), [1, 2, 3])
    with pytest.raises(SingularMatrix, match="no pivot in column 0"):
        rat_solve(RatMatrix([[0, 1], [0, 1]]), [1, 1])


def test_solve_roundtrip_random():
    rng = random.Random(123)
    for _ in range(25):
        n = rng.randrange(1, 6)
        while True:
            a = RatMatrix(
                [
                    [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(n)]
                    for _ in range(n)
                ]
            )
            try:
                x0 = [Fraction(rng.randrange(-20, 21), rng.randrange(1, 5)) for _ in range(n)]
                b = matvec(a, x0)
                assert rat_solve(a, b) == x0
                break
            except SingularMatrix:
                continue


def test_rational_field_axioms_random_triples():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (
            Fraction(rng.randrange(-50, 51), rng.randrange(1, 20)) for _ in range(3)
        )
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if a != 0:
            assert a * (1 / a) == 1


def test_rational_canonical_form():
    x = Fraction(4, -6)
    assert x.denominator > 0
    assert (x.numerator, x.denominator) == (-2, 3)


def test_rectangular_validation():
    with pytest.raises(ValueError):
        RatMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        rat_solve(RatMatrix([[1, 2]]), [1])


def test_rational_serialization():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-2, 5)) == "-2/5"
    assert parse_rational("7/3") == Fraction(7, 3)
    assert parse_rational("-4") == Fraction(-4)


FIELDS = {"GF(2)": field_new(2), "GF(3)": field_new(3), "GF(4)": field_new(2, 2),
          "GF(5)": field_new(5), "QQ": QQ}


def add(field, a, b):
    return field.sub(a, field.neg(b))


def dot(field, u, v):
    total = 0
    for a, b in zip(u, v):
        total = add(field, total, field.mul(a, b))
    return total


@st.composite
def matrices(draw):
    """(field, rows, ncols), with some rows and columns forced to zero."""
    name = draw(st.sampled_from(sorted(FIELDS)))
    field = FIELDS[name]
    if name == "QQ":
        entry = st.one_of(st.just(0), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    else:
        entry = st.one_of(st.just(0), st.integers(0, field.q - 1))
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0))))
    rows = [
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    return field, rows, ncols


@st.composite
def recombination(draw, field, rows):
    """The rows after random elementary operations: an invertible recombination."""
    rows = [list(r) for r in rows]
    nonzero = range(1, field.q) if field is not QQ else (1, -2, Fraction(3, 2))
    for _ in range(draw(st.integers(0, 8)) if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        c = draw(st.sampled_from(nonzero))
        op = draw(st.sampled_from(("swap", "scale", "add")))
        if op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "scale":
            rows[i] = [field.mul(c, x) for x in rows[i]]
        elif i != j:
            rows[i] = [add(field, x, field.mul(c, y)) for x, y in zip(rows[i], rows[j])]
    return rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_rref_and_nullspace_property(data):
    field, rows, ncols = data.draw(matrices())
    reduced, pivots = rref(field, rows, ncols)
    # RREF: increasing pivots equal to 1, zeros before them and elsewhere in their columns
    assert len(reduced) == len(pivots) and pivots == sorted(set(pivots))
    for i, (row, p) in enumerate(zip(reduced, pivots)):
        assert row[p] == 1 and not any(row[:p])
        assert all(other[p] == 0 for other in reduced[:i] + reduced[i + 1:])
    # same row space: appending the input rows does not raise the rank
    assert len(rref(field, reduced + rows, ncols)[0]) == len(reduced)
    null = nullspace(field, rows, ncols)
    assert len(pivots) + len(null) == ncols
    assert len(rref(field, null, ncols)[0]) == len(null)
    for v in null:
        assert len(v) == ncols
        assert all(dot(field, row, v) == 0 for row in rows)
    assert not any(isinstance(x, float) for row in reduced + null for x in row)
    # RREF is unique: it depends only on the row space
    mixed = data.draw(recombination(field, rows))
    assert rref(field, mixed, ncols) == (reduced, pivots)


def test_rref_degenerate_shapes():
    f3 = field_new(3)
    assert rref(f3, [], 0) == ([], []) and nullspace(f3, [], 0) == []
    assert rref(QQ, [[], []], 0) == ([], [])
    assert nullspace(f3, [], 2) == [[1, 0], [0, 1]]
    assert nullspace(QQ, [[0, 0, 0]], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rref(f3, [[0, 2, 1], [0, 1, 2]], 3) == ([[0, 1, 2]], [1])
    assert nullspace(QQ, [[2, 4]], 2) == [[-2, 1]]

