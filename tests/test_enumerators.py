import random
from itertools import product

import pytest

from helpers import (
    codewords,
    complement,
    evaluate,
    ex44,
    extension_codewords,
    hamming74,
    permute_coordinates,
    q_st,
    q_st_ext,
    random_code,
    rows_support,
    sample_tsets,
    support,
)
from jacobiforge import (
    BiHomPoly,
    JacobiTable,
    LinearCode,
    RefSet,
    Run,
    TooLarge,
    extended_jacobi,
    extended_jacobi_direct,
    extended_jacobi_via_q,
    field_new,
    gauss_binom,
    higher_from_extended,
    higher_jacobi,
    higher_jacobi_via_q,
    higher_weight_enum,
    jacobi,
    parse_code,
    weight_enum,
)
from jacobiforge.designs import support_shells
from jacobiforge.harmonic import harm_basis, harmonic_higher_wenum

from math import comb


def xy_poly(terms, n):
    return BiHomPoly.from_terms(0, n, {(0, i): c for i, c in terms.items()})


def grid_of(table):
    return [list(row) for row in table.grid]


def marginal_weight_poly(table):
    """Collapse the split grid to total weight: coefficient of y^l is the
    sum of entries with i + j = l."""
    counts = [0] * (table.tset.n + 1)
    for i, row in enumerate(table.grid):
        for j, c in enumerate(row):
            counts[i + j] += c
    return BiHomPoly(0, table.tset.n, [counts])


# --- frozen golden grids for the [6,3] code with T = {i} ---
G_J0 = [[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]]
G_J1 = [[0, 0], [0, 1], [2, 0], [0, 2], [1, 0], [0, 1]]
G_J2 = [[0, 0], [0, 0], [0, 0], [0, 2], [1, 0], [0, 4]]
G_PLAIN = [[1, 0], [0, 1], [2, 0], [0, 2], [1, 0], [0, 1]]


def test_weight_enum_goldens():
    zero3 = LinearCode(field_new(2), 3, [])
    assert weight_enum(zero3) == xy_poly({0: 1}, 3)
    assert weight_enum(ex44()) == xy_poly({0: 1, 2: 3, 4: 3, 6: 1}, 6)
    assert weight_enum(hamming74()) == xy_poly({0: 1, 3: 7, 4: 7, 7: 1}, 7)


def test_higher_weight_enum_goldens():
    code = ex44()
    assert higher_weight_enum(code, 0) == xy_poly({0: 1}, 6)
    assert higher_weight_enum(code, 1) == xy_poly({2: 3, 4: 3, 6: 1}, 6)
    assert higher_weight_enum(code, 2) == xy_poly({4: 3, 6: 4}, 6)


def test_jacobi_empty_tset_is_weight_enum():
    for code in (ex44(), hamming74(), parse_code("q=3 n=4\n1021\n0110\n")):
        assert jacobi(code, RefSet.of(code.n)).to_bipoly() == weight_enum(code)


def test_jacobi_golden_every_coordinate():
    code = ex44()
    for i in range(1, 7):
        assert grid_of(jacobi(code, RefSet.of(6, [i]))) == G_PLAIN


def test_jacobi_zero_code():
    zero = LinearCode(field_new(2), 4, [])
    table = jacobi(zero, RefSet.of(4, [2, 3]))
    assert table.render() == "w^2*x^2"


def test_higher_jacobi_goldens_every_coordinate():
    code = ex44()
    for i in range(1, 7):
        tset = RefSet.of(6, [i])
        assert grid_of(higher_jacobi(code, tset, 0)) == G_J0
        assert grid_of(higher_jacobi(code, tset, 1)) == G_J1
        assert grid_of(higher_jacobi(code, tset, 2)) == G_J2


def test_higher_jacobi_renders():
    tset = RefSet.of(6, [1])
    assert higher_jacobi(ex44(), tset, 0).render() == "w*x^5"
    assert (
        higher_jacobi(ex44(), tset, 1).render()
        == "2*w*x^3*y^2 + w*x*y^4 + z*x^4*y + 2*z*x^2*y^3 + z*y^5"
    )


def test_plain_is_rank_weighted_sum():
    # q-fold cover: every 1-dim subcode holds q-1 nonzero words
    for text in ("q=2 n=6\n110000\n001100\n000011\n", "q=3 n=4\n1021\n0110\n"):
        code = parse_code(text)
        q = code.spec.q
        tset = RefSet.of(code.n, [1, code.n])
        plain = grid_of(jacobi(code, tset))
        j0 = grid_of(higher_jacobi(code, tset, 0))
        j1 = grid_of(higher_jacobi(code, tset, 1))
        combined = [
            [a + (q - 1) * b for a, b in zip(r0, r1)] for r0, r1 in zip(j0, j1)
        ]
        assert plain == combined


def test_mass_and_corner_remarks():
    rng = random.Random(31)
    for _ in range(6):
        q = rng.choice((2, 3))
        code = random_code(rng, q, rng.randrange(3, 7), rng.randrange(1, 4))
        tset = RefSet.of(code.n, sample_tsets(rng, code.n, 2)[-1])
        for r in range(code.k + 1):
            table = higher_jacobi(code, tset, r)
            assert table.mass() == gauss_binom(code.k, r, q)
            assert table.grid[0][0] == (1 if r == 0 else 0)


def test_marginalization_matches_weight_enum():
    code = hamming74()
    tset = RefSet.of(7, [2, 5])
    for r in range(3):
        assert marginal_weight_poly(higher_jacobi(code, tset, r)) == higher_weight_enum(
            code, r
        )


def test_q_st_examples():
    code = ex44()
    t1 = RefSet.of(6, [1])
    assert q_st(code, t1, 1, 0, 0) == 7
    assert q_st(code, t1, 1, 0, 1) == 3
    # rank 0 counts subsets only
    for s in range(3):
        for t in range(2):
            assert q_st(code, t1, 0, s, t) == comb(5, s) * comb(1, t)


def test_q_st_ext_m1_counts_vanishing_words():
    code = parse_code("q=3 n=4\n1021\n0110\n")
    tset = RefSet.of(4, [1, 3])
    words = list(codewords(code))
    for s in range(0, 3):
        for t in range(0, 3):
            total = 0
            from itertools import combinations

            for xs in combinations(sorted(complement(tset)), s):
                for ys in combinations(sorted(tset.members), t):
                    cols = set(xs) | set(ys)
                    total += sum(
                        1 for w in words if all(w[c - 1] == 0 for c in cols)
                    )
            assert q_st_ext(code, tset, 1, s, t) == total


def test_via_q_equals_direct():
    rng = random.Random(77)
    codes = [ex44(), hamming74(), parse_code("q=3 n=5\n10212\n01120\n")]
    for _ in range(4):
        q = rng.choice((2, 3))
        codes.append(random_code(rng, q, rng.randrange(3, 8), rng.randrange(1, 4)))
    for code in codes:
        for T in sample_tsets(rng, code.n, 3):
            tset = RefSet.of(code.n, T)
            for r in range(code.k + 1):
                assert (
                    higher_jacobi_via_q(code, tset, r).grid
                    == higher_jacobi(code, tset, r).grid
                )


def test_via_q_rank_zero_is_trivial():
    code = hamming74()
    table = higher_jacobi_via_q(code, RefSet.of(7, [3, 4]), 0)
    assert table.render() == "w^2*x^5"


def test_extended_m1_matches_plain():
    for text in ("q=2 n=6\n110000\n001100\n000011\n", "q=3 n=4\n1021\n0110\n"):
        code = parse_code(text)
        tset = RefSet.of(code.n, [1])
        assert extended_jacobi(code, tset, 1).grid == jacobi(code, tset).grid
        assert extended_jacobi_direct(code, tset, 1).grid == jacobi(code, tset).grid


def test_extended_golden_empty_tset():
    code = ex44()
    table = extended_jacobi(code, RefSet.of(6), 2)
    assert table.mass() == 64
    assert table.to_bipoly() == xy_poly({0: 1, 2: 9, 4: 27, 6: 27}, 6)


def test_extended_zero_code():
    zero = LinearCode(field_new(2), 5, [])
    table = extended_jacobi(zero, RefSet.of(5, [1, 2]), 2)
    assert table.render() == "w^2*x^3"


def test_extended_three_routes_agree():
    rng = random.Random(13)
    codes = [ex44(), parse_code("q=3 n=5\n10212\n01120\n")]
    for _ in range(4):
        q = rng.choice((2, 3))
        codes.append(random_code(rng, q, rng.randrange(3, 7), rng.randrange(1, 4)))
    for code in codes:
        for T in sample_tsets(rng, code.n, 2):
            tset = RefSet.of(code.n, T)
            for m in (1, 2):
                conv = extended_jacobi(code, tset, m)
                assert conv.grid == extended_jacobi_via_q(code, tset, m).grid
                assert conv.grid == extended_jacobi_direct(code, tset, m).grid


def test_gf4_base_field_uses_conversion_routes():
    # over an extension base field the rank-decomposition, dimension-sweep
    # and direct (C^m) extension routes must agree with each other and
    # with subcode enumeration
    spec4 = field_new(2, 2)
    code = LinearCode(spec4, 4, [[1, 2, 0, 3], [0, 1, 1, 2]])
    tset = RefSet.of(4, [1, 3])
    for r in range(code.k + 1):
        a = higher_jacobi(code, tset, r)
        assert a.grid == higher_jacobi_via_q(code, tset, r).grid
        assert a.grid == higher_from_extended(code, tset, r).grid
    for m in (1, 2):
        c = extended_jacobi(code, tset, m)
        assert c.grid == extended_jacobi_via_q(code, tset, m).grid
        assert c.mass() == 4 ** (m * code.k)
        assert c.grid == extended_jacobi_direct(code, tset, m).grid
    assert extended_jacobi(code, tset, 1).grid == jacobi(code, tset).grid


def test_extension_supports_match_row_space_supports():
    # a degree-m extension word and the base-field matrix of its digit rows
    # must occupy exactly the same coordinates
    for text, m in (("q=2 n=5\n11010\n00111\n", 2), ("q=3 n=4\n1021\n0110\n", 2)):
        code = parse_code(text)
        p = code.spec.p
        ext = field_new(p, m)
        words = list(extension_codewords(code, m))
        msgs = list(product(range(ext.q), repeat=code.k))
        spec = code.spec
        for word, msg in zip(words, msgs):
            digit_rows = []
            for b in range(m):
                mrow = [(a // p ** b) % p for a in msg]
                row = [0] * code.n
                for a, grow in zip(mrow, code.gen):
                    if a:
                        row = [spec.add(x, spec.mul(a, y)) for x, y in zip(row, grow)]
                digit_rows.append(row)
            assert support(word) == rows_support(digit_rows)


def test_higher_from_extended_golden_and_sweep():
    code = ex44()
    tset = RefSet.of(6, [4])
    assert grid_of(higher_from_extended(code, tset, 2)) == G_J2
    rng = random.Random(3)
    codes = [hamming74(), parse_code("q=3 n=5\n10212\n01120\n")]
    for _ in range(3):
        q = rng.choice((2, 3))
        codes.append(random_code(rng, q, rng.randrange(3, 7), rng.randrange(1, 4)))
    for code in codes:
        for T in sample_tsets(rng, code.n, 2):
            tset = RefSet.of(code.n, T)
            for r in range(code.k + 1):
                assert (
                    higher_from_extended(code, tset, r).grid
                    == higher_jacobi(code, tset, r).grid
                )


def test_higher_from_extended_zero_code():
    zero = LinearCode(field_new(3), 4, [])
    table = higher_from_extended(zero, RefSet.of(4, [1]), 0)
    assert table.grid[0][0] == 1 and table.mass() == 1


def test_permutation_covariance():
    code = hamming74()
    rng = random.Random(55)
    perm = list(range(1, 8))
    rng.shuffle(perm)
    moved = permute_coordinates(code, perm)
    tset = RefSet.of(7, [1, 5])
    moved_tset = RefSet.of(7, [perm[0], perm[4]])
    for r in range(3):
        assert (
            higher_jacobi(code, tset, r).grid
            == higher_jacobi(moved, moved_tset, r).grid
        )


def test_eval_at_ones_counts_codewords():
    code = ex44()
    for i in range(1, 7):
        table = jacobi(code, RefSet.of(6, [i]))
        assert evaluate(table.to_bipoly(), 1, 1, 1, 1) == 8


def test_table_json_roundtrip():
    code = ex44()
    for table in (
        jacobi(code, RefSet.of(6, [2])),
        higher_jacobi(code, RefSet.of(6, [1, 3]), 2),
        extended_jacobi(code, RefSet.of(6), 2),
    ):
        assert JacobiTable.from_json_dict(table.to_json_dict()) == table


def test_first_difference():
    code = ex44()
    a = higher_jacobi(code, RefSet.of(6, [1]), 1)
    b = higher_jacobi(code, RefSet.of(6, [1]), 2)
    assert a.first_difference(a) is None
    diff = a.first_difference(b)
    assert diff is not None and (diff[0], diff[1]) == (1, 1)


def test_guards_propagate():
    # the run carries the guards into every route, and a route given no run
    # keeps the defaults: the identity [25,25]_2 code is over both of them
    routes = [
        (lambda c, t, run: higher_jacobi(c, t, 2, run), "rank-2 subcodes exceed the guard 3"),
        (lambda c, t, run: jacobi(c, t, run), "2^4 codewords exceed the guard"),
        (lambda c, t, run: extended_jacobi(c, t, 2, run), "rank-1 subcodes exceed the guard 3"),
        (lambda c, t, run: extended_jacobi_direct(c, t, 2, run),
         "2^8 extension words exceed the guard"),
        (lambda c, t, run: weight_enum(c, run), "2^4 codewords exceed the guard"),
        (lambda c, t, run: higher_weight_enum(c, 2, run), "rank-2 subcodes exceed the guard 3"),
        (lambda c, t, run: support_shells(c, 2, run), "rank-2 subcodes exceed the guard 3"),
        (lambda c, t, run: harmonic_higher_wenum(c, harm_basis(c.n, 1)[0], 2, run),
         "rank-2 subcodes exceed the guard 3"),
    ]
    code = hamming74()
    big = LinearCode(field_new(2), 25, [[int(i == j) for j in range(25)] for i in range(25)])
    for route, message in routes:
        with pytest.raises(TooLarge) as exc:
            route(code, RefSet.of(7, [1]), Run(max_subcodes=3, max_words=5))
        assert str(exc.value) == message
        assert route(code, RefSet.of(7, [1]), None) is not None
        with pytest.raises(TooLarge, match="exceed the guard"):
            route(big, RefSet.of(25, [1]), None)
