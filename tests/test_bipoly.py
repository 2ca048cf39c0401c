import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import evaluate
from jacobiforge import BiHomPoly, DegreeMismatch, DegreeUnderflow


def poly_xy(terms, n):
    return BiHomPoly.from_terms(0, n, {(0, i): c for i, c in terms.items()})


def random_poly(rng, s, n):
    return BiHomPoly(
        s,
        n,
        [
            [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(n + 1)]
            for _ in range(s + 1)
        ],
    )


def random_sub(rng):
    return tuple(rng.randrange(-3, 4) for _ in range(4))


def then(first, second):
    """The single map equivalent to substituting first, then second: the
    2x2 product first * second."""
    a1, b1, c1, d1 = first
    a2, b2, c2, d2 = second
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


def moved(m, w, z, x, y):
    """The point at which p is evaluated to give p.substitute(m) at (w, z, x, y)."""
    a, b, c, d = m
    return (a * w + b * z, c * w + d * z, a * x + b * y, c * x + d * y)


def test_add_scale_trivial():
    p = BiHomPoly.from_terms(1, 1, {(0, 0): 1, (1, 1): 1})  # wx + zy
    zero = BiHomPoly.zero(1, 1)
    assert p + zero == p
    assert p.scale(1) == p
    assert p.scale(2) == BiHomPoly.from_terms(1, 1, {(0, 0): 2, (1, 1): 2})


def test_add_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        BiHomPoly.zero(1, 1) + BiHomPoly.zero(0, 2)


def test_substitute_identity():
    rng = random.Random(3)
    p = random_poly(rng, 2, 3)
    assert p.substitute((1, 0, 0, 1)) == p


def test_substitute_examples():
    # (x^2 + y^2) under (x, y) -> (x + y, x - y) gives 2x^2 + 2y^2
    p = poly_xy({0: 1, 2: 1}, 2)
    assert p.substitute((1, 1, 1, -1)) == poly_xy({0: 2, 2: 2}, 2)
    # wx under (w,z) -> (w+z, w-z), (x,y) -> (x+y, x-y) expands fully
    p = BiHomPoly.from_terms(1, 1, {(0, 0): 1})
    assert p.substitute((1, 1, 1, -1)) == BiHomPoly.from_terms(
        1, 1, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    )


def test_substitution_monoid_action():
    rng = random.Random(11)
    for _ in range(20):
        p = random_poly(rng, rng.randrange(0, 3), rng.randrange(0, 4))
        s1, s2 = random_sub(rng), random_sub(rng)
        assert p.substitute(s1).substitute(s2) == p.substitute(then(s1, s2))


def test_eval_substitute_consistency():
    rng = random.Random(17)
    for _ in range(20):
        p = random_poly(rng, 2, 2)
        s = random_sub(rng)
        point = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 3)) for _ in range(4)]
        assert evaluate(p.substitute(s), *point) == evaluate(p, *moved(s, *point))


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
small_ints = st.integers(-6, 6)


@st.composite
def grids(draw):
    """(s, n, grid) with s <= 4, n <= 12; all ints or mixed ints and Fractions."""
    s, n = draw(st.integers(0, 4)), draw(st.integers(0, 12))
    entry = draw(st.sampled_from([small_ints, st.one_of(small_ints, rationals)]))
    row = st.lists(entry, min_size=n + 1, max_size=n + 1)
    return s, n, draw(st.lists(row, min_size=s + 1, max_size=s + 1))


def singular(a, b, t):
    """A rank <= 1 map: its second row is t times the first."""
    return (a, b, a * t, b * t)


entries = st.integers(-3, 3)
maps = st.one_of(
    st.tuples(entries, entries, entries, entries), st.builds(singular, entries, entries, entries)
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(grids(), maps, st.lists(rationals, min_size=4, max_size=4))
def test_substitute_property(grid, m, point):
    s, n, coeff = grid
    p = BiHomPoly(s, n, coeff)
    image = p.substitute(m)
    assert evaluate(image, *point) == evaluate(p, *moved(m, *point))
    # the same grid given as Fractions is the same polynomial with the same image
    as_fractions = BiHomPoly(s, n, [[Fraction(c) for c in row] for row in coeff])
    assert as_fractions == p
    assert as_fractions.substitute(m) == image
    # an integral grid is expanded in ints alone
    if all(type(c) is int for row in coeff for c in row):
        assert all(type(c) is int for row in image.coeff for c in row)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(grids())
def test_the_via_dims_map_is_the_index_flip_then_u_minus_v(grid):
    # (0, 1, 1, -1) is the swap u <-> v, which reverses both indices of the
    # grid, followed by (u, v) -> (u - v, v)
    s, n, coeff = grid
    flipped = BiHomPoly(s, n, [row[::-1] for row in coeff[::-1]])
    assert BiHomPoly(s, n, coeff).substitute((0, 1, 1, 0)) == flipped
    assert BiHomPoly(s, n, coeff).substitute((0, 1, 1, -1)) == flipped.substitute((1, -1, 0, 1))


def test_polarize_examples():
    assert poly_xy({0: 1}, 2).polarize() == BiHomPoly.from_terms(1, 1, {(0, 0): 2})
    # x^2 y -> 2wxy + zx^2
    assert poly_xy({1: 1}, 3).polarize() == BiHomPoly.from_terms(
        1, 2, {(0, 1): 2, (1, 0): 1}
    )
    # the rank-1 weight enumerator of the [6,3] golden code, times 6
    w1 = poly_xy({2: 3, 4: 3, 6: 1}, 6)
    expect = BiHomPoly.from_terms(
        1, 5, {(0, 2): 12, (1, 1): 6, (0, 4): 6, (1, 3): 12, (1, 5): 6}
    )
    assert w1.polarize() == expect


def test_polarize_underflow_and_linearity():
    with pytest.raises(DegreeUnderflow):
        BiHomPoly.zero(1, 0).polarize()
    rng = random.Random(23)
    for _ in range(10):
        p = random_poly(rng, 1, 3)
        q = random_poly(rng, 1, 3)
        assert (p + q).polarize() == p.polarize() + q.polarize()


def test_eval_examples():
    wx = BiHomPoly.from_terms(1, 1, {(0, 0): 1})
    assert evaluate(wx, 1, 0, 1, 0) == 1
    p = poly_xy({0: 1, 2: 1}, 2)
    assert evaluate(p, 0, 0, 1, 1) == 2


def test_render_format():
    p = BiHomPoly.from_terms(1, 5, {(0, 4): 1, (1, 3): 2, (1, 5): 4})
    assert p.render() == "w*x*y^4 + 2*z*x^2*y^3 + 4*z*y^5"
    assert BiHomPoly.zero(0, 2).render() == "0"
    neg = BiHomPoly.from_terms(0, 2, {(0, 0): -1, (0, 2): Fraction(1, 3)})
    assert neg.render() == "-x^2 + 1/3*y^2"


def test_json_roundtrip():
    rng = random.Random(5)
    p = random_poly(rng, 2, 3)
    assert BiHomPoly.from_json_dict(p.to_json_dict()) == p
