import random
from itertools import combinations

import pytest

from helpers import (
    UnsupportedBaseField,
    ex44,
    extension_codewords,
    hamming74,
    iter_subcode_supports,
    random_code,
    rows_support,
    shortened_dim,
    subcodes,
)
from jacobiforge import (
    FieldMismatch,
    LinearCode,
    ParseError,
    RefSet,
    TooLarge,
    codewords,
    field_new,
    gauss_binom,
    parse_code,
    render_code,
    support,
)
from jacobiforge.code import column_set_dim, subcode_count


def test_parse_golden():
    code = ex44()
    assert (code.n, code.k, code.spec.q) == (6, 3, 2)


def test_parse_duplicate_rows_reduce():
    code = parse_code("q=2 n=2\n11\n11\n")
    assert (code.n, code.k) == (2, 1)


def test_parse_ternary():
    code = parse_code("q=3 n=2\n12\n")
    assert code.spec.q == 3 and code.k == 1


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_code("")
    with pytest.raises(ParseError):
        parse_code("n=3\n000\n")
    with pytest.raises(ParseError):
        parse_code("q=6 n=2\n00\n")
    with pytest.raises(FieldMismatch):
        parse_code("q=2 n=3\n012\n")
    with pytest.raises(ParseError):
        parse_code("q=2 n=3\n01\n")


def test_parse_field_order_factoring_and_cap():
    assert parse_code("q=49 n=2\n1 48\n").spec.p == 7
    assert parse_code("q=49 n=2\n1 48\n").spec.e == 2
    assert parse_code("q=65521 n=1\n1\n").spec.p == 65521
    with pytest.raises(ParseError):
        parse_code("q=35 n=1\n1\n")
    for q in (65537, 100000000003):
        with pytest.raises(TooLarge):
            parse_code(f"q={q} n=3\n")


def test_render_roundtrip():
    for code in (ex44(), hamming74(), parse_code("q=3 n=4\n1012\n0111\n")):
        assert parse_code(render_code(code)) == code


def test_parse_wide_field_space_separated():
    code = parse_code("q=11 n=3\n1 10 0\n")
    assert (code.spec.q, code.n, code.k) == (11, 3, 1)
    assert parse_code(render_code(code)) == code
    code16 = parse_code("q=16 n=2 p=2 e=4\n1 15\n")
    assert (code16.spec.p, code16.spec.e) == (2, 4)
    with pytest.raises(ParseError):
        parse_code("q=16 n=2 p=4 e=2\n1 15\n")


def test_dual_self_dual():
    code = ex44()
    assert code.dual() == code


def test_dual_of_full_space_is_zero_code():
    full = LinearCode(field_new(2), 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    dual = full.dual()
    assert dual.k == 0
    assert list(codewords(dual)) == [(0, 0, 0)]


def test_dual_hamming_is_simplex():
    dual = hamming74().dual()
    weights = sorted(len(support(w)) for w in codewords(dual))
    assert weights == [0] + [4] * 7


def test_dual_orthogonality_and_involution():
    rng = random.Random(99)
    for _ in range(10):
        q = rng.choice((2, 3))
        code = random_code(rng, q, rng.randrange(2, 7), rng.randrange(1, 4))
        dual = code.dual()
        assert dual.k == code.n - code.k
        spec = code.spec
        for u in code.gen:
            for v in dual.gen:
                acc = 0
                for a, b in zip(u, v):
                    acc = spec.add(acc, spec.mul(a, b))
                assert acc == 0
        assert dual.dual() == code


def test_codewords_golden():
    weights = sorted(len(support(w)) for w in codewords(ex44()))
    assert weights == [0, 2, 2, 2, 4, 4, 4, 6]
    words = set(codewords(parse_code("q=3 n=2\n12\n")))
    assert words == {(0, 0), (1, 2), (2, 1)}


def test_codewords_guard():
    code = ex44()
    with pytest.raises(TooLarge):
        list(codewords(code, max_words=7))


def test_subcodes_r0_and_counts():
    code = ex44()
    subs = list(subcodes(code, 0))
    assert len(subs) == 1 and subs[0].basis == ()
    for r in range(code.k + 1):
        assert len(list(subcodes(code, r))) == gauss_binom(code.k, r, 2)


def test_subcode_weights_golden():
    code = ex44()
    w1 = sorted(len(s) for s in iter_subcode_supports(code, 1))
    assert w1 == [2, 2, 2, 4, 4, 4, 6]
    w2 = sorted(len(s) for s in iter_subcode_supports(code, 2))
    assert w2 == [4, 4, 4, 6, 6, 6, 6]


@pytest.mark.parametrize("q", [2, 3])
def test_subcode_count_matches_gauss_binom_full_spaces(q):
    for k in range(1, 6):
        full = LinearCode(
            field_new(q), k, [[int(i == j) for j in range(k)] for i in range(k)]
        )
        for r in range(k + 1):
            count = sum(1 for _ in iter_subcode_supports(full, r))
            assert count == gauss_binom(k, r, q)


def test_subcodes_guard():
    code = hamming74()
    with pytest.raises(TooLarge):
        list(subcodes(code, 2, max_subcodes=10))
    assert subcode_count(code, 2) == 35


def test_subcode_rows_lie_in_parent():
    code = hamming74()
    words = set(codewords(code))
    for sub in subcodes(code, 2):
        for row in sub.basis:
            assert row in words


def test_support_and_split():
    assert support((0, 0, 0)) == frozenset()
    assert support((1, 0, 2)) == {1, 3}


def test_support_sets_golden():
    code = ex44()
    s1 = [s for s in iter_subcode_supports(code, 1) if len(s) == 2]
    assert sorted(sorted(x) for x in s1) == [[1, 2], [3, 4], [5, 6]]
    s24 = [s for s in iter_subcode_supports(code, 2) if len(s) == 4]
    assert sorted(sorted(x) for x in s24) == [[1, 2, 3, 4], [1, 2, 5, 6], [3, 4, 5, 6]]


def test_support_basis_independent():
    # same row space presented by different bases must give one support
    spec = field_new(3)
    rows = [[1, 0, 2, 1], [0, 1, 1, 0]]
    alt = [[1, 1, 0, 1], [0, 2, 2, 0]]  # row ops applied
    assert LinearCode(spec, 4, rows) == LinearCode(spec, 4, alt)
    assert rows_support(rows) == rows_support(alt)


def test_shortened_dim_examples():
    code = ex44()
    t1 = RefSet.of(6, [1])
    assert shortened_dim(code, t1, (), ()) == 3
    assert shortened_dim(code, t1, (), (1,)) == 2
    full = LinearCode(field_new(2), 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    t = RefSet.of(3, [2])
    assert shortened_dim(full, t, (1,), (2,)) == 1
    with pytest.raises(ValueError):
        shortened_dim(code, t1, (1,), ())  # X must avoid T


def test_shortened_dim_against_word_count():
    rng = random.Random(41)
    for _ in range(8):
        q = rng.choice((2, 3))
        code = random_code(rng, q, rng.randrange(3, 7), rng.randrange(1, 4))
        words = list(codewords(code))
        for size in range(0, 4):
            for cols in combinations(range(1, code.n + 1), size):
                vanish = sum(
                    1 for w in words if all(w[c - 1] == 0 for c in cols)
                )
                dim = column_set_dim(code, frozenset(cols))
                assert q ** dim == vanish


def test_extension_m1_matches_codewords():
    code = parse_code("q=3 n=3\n102\n011\n")
    assert sorted(extension_codewords(code, 1)) == sorted(codewords(code))


def test_extension_golden():
    rep = parse_code("q=2 n=2\n11\n")
    words = list(extension_codewords(rep, 2))
    assert sorted(words) == [(0, 0), (1, 1), (2, 2), (3, 3)]
    assert sorted(len(support(w)) for w in words) == [0, 2, 2, 2]
    assert len(list(extension_codewords(ex44(), 2))) == 64


def test_extension_rejects_extension_base():
    code = LinearCode(field_new(2, 2), 2, [[1, 2]])
    with pytest.raises(UnsupportedBaseField):
        list(extension_codewords(code, 2))


def test_extension_guard():
    with pytest.raises(TooLarge):
        list(extension_codewords(ex44(), 2, max_words=63))


def test_permute_coordinates():
    code = hamming74()
    perm = [2, 3, 4, 5, 6, 7, 1]
    moved = code.permute_coordinates(perm)
    assert moved.k == code.k
    back = moved.permute_coordinates([7, 1, 2, 3, 4, 5, 6])
    assert back == code
