import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import evaluate, pair_substitution
from jacobiforge import BiHomPoly, DegreeMismatch, DegreeUnderflow, PairSubstitution


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
    vals = lambda: tuple(Fraction(rng.randrange(-3, 4)) for _ in range(4))
    return PairSubstitution(vals(), vals())


def then(first, second):
    """The single map equivalent to substituting first, then second."""

    def compose(m1, m2):
        a1, b1, c1, d1 = m1
        a2, b2, c2, d2 = m2
        return (
            a1 * a2 + b1 * c2,
            a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2,
            c1 * b2 + d1 * d2,
        )

    return PairSubstitution(compose(first.wz, second.wz), compose(first.xy, second.xy))


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
    assert p.substitute(PairSubstitution.both(1, 0, 0, 1)) == p


def test_substitute_examples():
    # (x^2 + y^2) under (x, y) -> (x + y, x - y) gives 2x^2 + 2y^2
    p = poly_xy({0: 1, 2: 1}, 2)
    sub = pair_substitution((1, 0, 0, 1), (1, 1, 1, -1))
    assert p.substitute(sub) == poly_xy({0: 2, 2: 2}, 2)
    # wx under (w,z) -> (w+z, w-z), (x,y) -> (x+y, x-y) expands fully
    p = BiHomPoly.from_terms(1, 1, {(0, 0): 1})
    sub = PairSubstitution.both(1, 1, 1, -1)
    assert p.substitute(sub) == BiHomPoly.from_terms(
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
        w, z, x, y = point
        a1, b1, c1, d1 = s.wz
        a2, b2, c2, d2 = s.xy
        moved = (
            a1 * w + b1 * z,
            c1 * w + d1 * z,
            a2 * x + b2 * y,
            c2 * x + d2 * y,
        )
        assert evaluate(p.substitute(s), w, z, x, y) == evaluate(p, *moved)


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


def maps_over(entry):
    return st.one_of(
        st.tuples(entry, entry, entry, entry), st.builds(singular, entry, entry, entry)
    )


map_ints = st.integers(-3, 3)
maps = st.one_of(
    maps_over(map_ints),
    maps_over(st.one_of(map_ints, st.fractions(-3, 3, max_denominator=3))),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(grids(), maps, maps, st.lists(rationals, min_size=4, max_size=4))
def test_substitute_property(grid, wz, xy, point):
    s, n, coeff = grid
    p = BiHomPoly(s, n, coeff)
    sub = pair_substitution(wz, xy)
    w, z, x, y = point
    a1, b1, c1, d1 = sub.wz
    a2, b2, c2, d2 = sub.xy
    moved = (a1 * w + b1 * z, c1 * w + d1 * z, a2 * x + b2 * y, c2 * x + d2 * y)
    image = p.substitute(sub)
    assert evaluate(image, w, z, x, y) == evaluate(p, *moved)
    # the same grid given as Fractions is the same polynomial with the same image
    as_fractions = BiHomPoly(s, n, [[Fraction(c) for c in row] for row in coeff])
    assert as_fractions == p
    assert as_fractions.substitute(sub) == image
    # an integral grid under an integral map is expanded in ints alone
    values = [c for row in coeff for c in row] + [*wz, *xy]
    if all(type(c) is int for c in values):
        assert all(type(c) is int for row in image.coeff for c in row)


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
