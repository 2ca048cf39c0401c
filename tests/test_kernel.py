"""Oracle tests for the integer kernels: every support histogram must equal
the one counted from literal codewords, subcodes and extension words, the
rank sweep must equal one elimination per column set, the lambda kernel's
tables must equal the tables counted per T, and the Delsarte check must
equal the literal f-tilde sums."""

import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    block_multiset,
    c12,
    codewords,
    extension_codewords,
    golay24,
    hamming74,
    mask_support,
    monic_masks_word_by_word,
    occurrences,
    q_st,
    q_st_ext,
    rows_support,
    subcodes,
    sweep_codes,
    tgolay12,
)
from jacobiforge import (
    BlockMultiset,
    LinearCode,
    RefSet,
    TooLarge,
    delsarte_design_check,
    extended_jacobi,
    extended_jacobi_direct,
    extended_jacobi_via_q,
    f_tilde,
    field_new,
    gauss_binom,
    h_dt,
    harm_basis,
    higher_jacobi,
    is_t_design,
    jacobi_by_polarization,
    recover_jacobi,
)
from jacobiforge import code as code_module
from jacobiforge import designs
from jacobiforge.code import (
    _or_power_dense,
    column_set_dim,
    coords_mask,
    monic_masks,
    or_convolve,
    or_power,
    support_mask,
)
from jacobiforge.designs import Run, kernel_tables, support_shells
from jacobiforge.enumerators import (
    _extension_supports,
    _q_grid,
    _vanishing_dims,
    codeword_support_histogram,
    subcode_support_histogram,
)


FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


def small_codes(q: int, count: int = 4) -> list[LinearCode]:
    rng = random.Random(1000 + q)
    spec = field_new(*FIELDS[q])
    out = []
    while len(out) < count:
        n = rng.randrange(3, 7)
        mat = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randrange(1, 4))]
        out.append(LinearCode(spec, n, mat))
    return out


def brute_is_t_design(blocks: BlockMultiset, t: int) -> tuple[bool, int | None]:
    coverages = set()
    blocks_list = occurrences(blocks)
    for tsub in combinations(range(1, blocks.n + 1), t):
        tsub = frozenset(tsub)
        coverages.add(sum(1 for b in blocks_list if tsub <= b))
        if len(coverages) > 1:
            return False, None
    return True, coverages.pop() if coverages else 0


def test_mask_conversions():
    assert support_mask((0, 2, 0, 1)) == 0b1010
    assert coords_mask({2, 4}) == 0b1010
    assert mask_support(0b1010) == frozenset({2, 4})
    assert mask_support(0) == frozenset()


def test_or_convolve_counts_pairs():
    a = Counter({0b01: 2, 0b10: 1})
    b = Counter({0b01: 1, 0b00: 3})
    assert or_convolve(a, b) == Counter({0b01: 2 + 6, 0b11: 1, 0b10: 3})


def repeated_or_convolve(hist: Counter, m: int) -> Counter:
    out = Counter(hist)
    for _ in range(m - 1):
        out = or_convolve(out, hist)
    return out


def test_or_power_matches_repeated_or_convolve():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randrange(0, 11)
        hist = Counter(
            {rng.randrange(1 << n): rng.randint(1, 4) for _ in range(rng.randint(1, 30))}
        )
        if rng.random() < 0.8:
            hist[0] = rng.randint(1, 3)
        for m in range(1, 5):
            expect = repeated_or_convolve(hist, m)
            assert or_power(hist, n, m) == expect, (hist, n, m)
            assert _or_power_dense(hist, n, m) == expect, (hist, n, m)
    # the pair loop leaves its input alone, and m = 1 is a copy
    hist = Counter({0: 1, 0b11: 2})
    assert or_power(hist, 2, 1) == hist and or_power(hist, 2, 1) is not hist
    assert or_power(hist, 2, 3) == Counter({0: 1, 0b11: 26})
    assert hist == Counter({0: 1, 0b11: 2})


@pytest.mark.parametrize("build,dense", [(tgolay12, True), (hamming74, False), (c12, False)])
def test_extension_supports_choose_their_or_power_path(monkeypatch, build, dense):
    calls = []

    def spy(hist, n, m):
        calls.append(m)
        return _or_power_dense(hist, n, m)

    monkeypatch.setattr(code_module, "_or_power_dense", spy)
    code = build()
    words = codeword_support_histogram(code)
    _extension_supports.cache_clear()
    try:
        hist = _extension_supports(code, 2)
    finally:
        _extension_supports.cache_clear()
    assert calls == ([2] if dense else [])
    assert hist == or_convolve(words, words)
    assert sum(hist.values()) == code.spec.q ** (2 * code.k)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_monic_masks_follow_monic_message_order(q):
    for code in small_codes(q):
        words = [support_mask(w) for w in codewords(code)]
        k = code.k
        # in codewords order, the monic message with leading 1 at digit p
        # and trailing digits `tail` (base q) sits at q^(k-1-p) + tail
        literal = [
            words[q ** (k - 1 - p) + tail]
            for p in range(k)
            for tail in range(q ** (k - 1 - p))
        ]
        assert monic_masks(code) == literal
        assert len(literal) == (q ** k - 1) // (q - 1)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_monic_masks_by_span_doubling_match_word_by_word(q):
    rng = random.Random(2000 + q)
    spec = field_new(*FIELDS[q])
    for _ in range(8):
        n = rng.randrange(1, 8)
        mat = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randrange(0, 5))]
        code = LinearCode(spec, n, mat)
        assert monic_masks(code) == monic_masks_word_by_word(code), code.gen


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_histograms_match_literal_enumeration(q):
    for code in small_codes(q):
        literal = Counter(support_mask(w) for w in codewords(code))
        assert codeword_support_histogram(code) == literal
        for r in range(code.k + 1):
            literal = Counter(
                coords_mask(rows_support(sub.basis)) for sub in subcodes(code, r)
            )
            assert subcode_support_histogram(code, r) == literal, (code, r)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_extension_histogram_matches_extension_words(q):
    for code in small_codes(q, count=3):
        for m in (1, 2, 3):
            if q ** (m * code.k) > 20000:
                continue
            literal = Counter(
                support_mask(w) for w in extension_codewords(code, m)
            )
            assert _extension_supports(code, m) == literal, (code, m)


def test_support_shells_repeat_masks_by_multiplicity():
    code = small_codes(3)[0]
    shells = support_shells(code, 1)
    total = Counter()
    for w, shell in shells.items():
        assert shell.block_size == w
        total.update(occurrences(shell))
    literal = Counter(rows_support(s.basis) for s in subcodes(code, 1))
    assert total == literal


def with_multiplicities(rng: random.Random, blocks: list) -> list:
    """Each block repeated 1 to 4 times."""
    return [b for b in blocks for _ in range(rng.randint(1, 4))]


# a 1-design with lambda 1 only if multiplicities are ignored
UNEVEN = block_multiset(4, [{1, 2}, {1, 2}, {3, 4}])


def test_is_t_design_matches_brute_coverage():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(1, 8)
        size = rng.randrange(0, n + 1)
        pool = list(combinations(range(1, n + 1), size))
        drawn = [rng.choice(pool) for _ in range(rng.randrange(0, 6))]
        blocks = block_multiset(n, with_multiplicities(rng, drawn))
        for t in range(n + 1):
            v = is_t_design(blocks, t)
            assert (v.is_design, v.lam) == brute_is_t_design(blocks, t)
    v = is_t_design(UNEVEN, 1)
    assert (v.is_design, v.lam) == brute_is_t_design(UNEVEN, 1) == (False, None)
    # C12's rank-2 shells repeat masks up to 19 times
    shells = [*support_shells(hamming74(), 2).values(), *support_shells(c12(), 2).values()]
    for shell in shells:
        for t in range(4):
            v = is_t_design(shell, t)
            assert (v.is_design, v.lam) == brute_is_t_design(shell, t)
    # two-byte rows (n = 9..12), t >= 3 and two or more multiplicity classes
    for _ in range(12):
        n = rng.randrange(9, 13)
        size = rng.randrange(3, n - 1)
        drawn = [rng.sample(range(1, n + 1), size) for _ in range(rng.randrange(2, 7))]
        blocks = block_multiset(n, drawn + drawn[: rng.randrange(1, len(drawn))])
        assert len(set(blocks.counts.values())) >= 2
        for t in range(3, min(size + 1, 6) + 1):
            v = is_t_design(blocks, t)
            assert (v.is_design, v.lam) == brute_is_t_design(blocks, t)
    # all 6-subsets of 12 points once, the 132 hexads of S(5, 6, 12) twice:
    # a 5-design with lambda C(7, 1) + 1, but not a 6-design
    counts = Counter(coords_mask(b) for b in combinations(range(1, 13), 6))
    counts.update(support_shells(tgolay12(), 1)[6].counts)
    both = BlockMultiset(12, counts)
    assert sorted(Counter(both.counts.values()).items()) == [(1, 924 - 132), (2, 132)]
    for t in range(3, 7):
        v = is_t_design(both, t)
        assert (v.is_design, v.lam) == brute_is_t_design(both, t)
    assert is_t_design(both, 5) == (True, 5, 8)


def test_is_t_design_finds_one_odd_t_set_in_the_last_prefix():
    # every t-subset once and the lexicographically last one twice: only that
    # t-set is covered twice, and its prefix is the last one searched
    for n, t in ((12, 4), (9, 3), (10, 5)):
        tsets = list(combinations(range(1, n + 1), t))
        blocks = block_multiset(n, tsets + tsets[-1:])
        assert brute_is_t_design(blocks, t) == (False, None)
        assert is_t_design(blocks, t) == (False, t, None)
        assert is_t_design(block_multiset(n, tsets), t) == (True, t, 1)


def test_golay_weight8_shell_is_steiner_5_design():
    shell = support_shells(golay24(), 1)[8]
    assert len(shell) == 759
    v = is_t_design(shell, 5)
    assert (v.is_design, v.lam) == (True, 1)


def test_golay_rank2_shells_are_5_designs_with_large_multiplicities():
    hist = subcode_support_histogram(golay24(), 2)
    assert (len(hist), sum(hist.values())) == (989254, 2794155)
    shells = support_shells(golay24(), 2)
    assert shells[22].counts == dict.fromkeys(shells[22].counts, 616)
    assert len(shells[22].counts) == 276
    assert list(shells[24].counts.values()) == [5842]
    for w, lam in ((12, 660), (20, 271320), (22, 105336), (24, 5842)):
        v = is_t_design(shells[w], 5)
        assert (v.is_design, v.lam) == (True, lam)
        # a 5-design of b blocks of size w has lambda = b * C(w, 5) / C(24, 5)
        assert lam * comb(24, 5) == len(shells[w]) * comb(w, 5)


def test_design_shells_make_recover_a_third_route_to_polarization():
    # every shell of Golay at r = 1, 2 and of ternary Golay at r = 1 is a
    # 5-design, so lambda_l is constant on d-sets, each harmonic lambda side
    # sums to 0, and the recovery follows from the weight enumerator alone.
    # One run shares the shells among the three sides, as in verify_all;
    # the r = 2 histogram is the cached one of the test above.
    run = Run()
    for code, r in ((golay24(), 1), (golay24(), 2), (tgolay12(), 1)):
        n = code.n
        shells = run.shared(support_shells, code, r, run.max_subcodes)
        for coords in ((3, 11), (5,)):  # the deeper lambdas first, built once
            tset, t = RefSet.of(n, coords), len(coords)
            for w, shell in shells.items():
                lam = shell.lambdas(t)
                for d in range(1, t + 1):
                    side = sum(
                        h_dt(n, t, d, d, (z & tset.mask).bit_count()) * v
                        for z, v in lam.items()
                        if z.bit_count() == d
                    )
                    assert side == 0, (n, r, coords, w, d)
            recovered = recover_jacobi(code, r, tset, run).to_bipoly()
            assert recovered == jacobi_by_polarization(code, r, t, run), (n, r, coords)


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2)])
def test_direct_extension_over_prime_power_base_field(p, e):
    rng = random.Random(10 * p + e)
    spec = field_new(p, e)
    for _ in range(3):
        n = rng.randrange(3, 6)
        code = LinearCode(
            spec, n, [[rng.randrange(spec.q) for _ in range(n)] for _ in range(2)]
        )
        for T in ((), (1,), (1, n)):
            tset = RefSet.of(n, T)
            for m in (1, 2):
                direct = extended_jacobi_direct(code, tset, m).grid
                assert direct == extended_jacobi(code, tset, m).grid, (code, T, m)
                assert direct == extended_jacobi_via_q(code, tset, m).grid, (code, T, m)


def assert_sweep_is_rank_function(code: LinearCode):
    dims = _vanishing_dims(code)
    assert isinstance(dims, bytes) and len(dims) == 1 << code.n
    for mask in range(1 << code.n):
        assert dims[mask] == column_set_dim(code, mask_support(mask)), (code, mask)


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_sweep_matches_column_set_dim(q):
    if q in (2, 3):
        codes = [c for c in sweep_codes() if c.spec.q == q]
    else:
        codes = small_codes(q, count=8)
    assert codes
    for code in codes:
        assert_sweep_is_rank_function(code)


def test_sweep_edge_cases():
    gf2, gf3, gf4 = field_new(2), field_new(3), field_new(2, 2)
    zero = LinearCode(gf2, 5, [])
    assert _vanishing_dims(zero) == bytes(1 << 5)
    full = LinearCode(gf3, 4, [[1 if i == j else 0 for j in range(4)] for i in range(4)])
    assert list(_vanishing_dims(full)) == [4 - u.bit_count() for u in range(1 << 4)]
    zero_column = LinearCode(gf3, 4, [[1, 0, 2, 1], [0, 0, 1, 1]])
    repeated_column = LinearCode(gf4, 5, [[1, 1, 0, 3, 2], [0, 0, 1, 2, 2]])
    for code in (zero, full, zero_column, repeated_column):
        assert_sweep_is_rank_function(code)
    # coordinate 2 is zero, and coordinates 1 and 2 of the GF(4) code agree
    assert _vanishing_dims(zero_column)[0b0010] == 2
    assert _vanishing_dims(repeated_column)[0b00011] == 1


def test_sweep_keeps_its_length_cap():
    code = LinearCode(field_new(2), 21, [[1] * 21])
    with pytest.raises(TooLarge, match="n <= 20"):
        _vanishing_dims(code)


def test_q_grid_matches_brute_q_st():
    rng = random.Random(5)
    for code in sweep_codes(count=12):
        q = code.spec.q
        tset = RefSet.of(code.n, sorted(rng.sample(range(1, code.n + 1), 2)))
        for r in range(code.k + 1):
            grid = _q_grid(code, tset, lambda d: gauss_binom(d, r, q))
            for s in range(code.n - 1):
                for t in range(3):
                    assert grid[s][t] == q_st(code, tset, r, s, t), (code, r, s, t)
        grid = _q_grid(code, tset, lambda d: q ** (2 * d))
        for s in range(code.n - 1):
            for t in range(3):
                assert grid[s][t] == q_st_ext(code, tset, 2, s, t), (code, s, t)


def literal_delsarte(blocks: BlockMultiset, t: int) -> bool:
    """The criterion as stated: sum_b f-tilde(b) = 0 for every harmonic basis
    function f of degree 1..t."""
    blocks_list = occurrences(blocks)
    return all(
        sum(f_tilde(f, b) for b in blocks_list) == 0
        for d in range(1, t + 1)
        for f in harm_basis(blocks.n, d)
    )


def test_delsarte_matches_literal_sum_and_brute_design_check():
    rng = random.Random(11)
    cases = [
        block_multiset(5, []),
        block_multiset(3, [{1}, {2}, {3}]),  # a 1-design, vacuous at t = 2
        block_multiset(3, [{1}, {1}]),  # not a 1-design, vacuous at t = 2
        block_multiset(4, [{1, 2}, {1, 2}, {3, 4}, {3, 4}]),
        UNEVEN,
    ]
    for _ in range(80):
        n = rng.randrange(1, 8)
        pool = list(combinations(range(1, n + 1), rng.randrange(0, n + 1)))
        drawn = [rng.choice(pool) for _ in range(rng.randrange(0, 6))]
        cases.append(block_multiset(n, with_multiplicities(rng, drawn)))
    inputs = [(shell, t) for shell in cases for t in range(shell.n + 1)]
    # the literal sums over C12's 651 rank-2 subcodes grow slow above t = 2
    inputs += [(shell, t) for shell in support_shells(c12(), 2).values() for t in range(3)]
    for shell, t in inputs:
        got = delsarte_design_check(shell, t)
        assert got == is_t_design(shell, t).is_design, (shell.counts, t)
        # above the block size both checks take the raw definition, which is
        # vacuous, while the literal criterion still asks for a d-design at
        # every d <= block size
        if t <= shell.block_size:
            assert got == literal_delsarte(shell, t), (shell.counts, t)


@st.composite
def kernel_codes(draw):
    """Codes over every small field with n <= 10 and at most three rows."""
    q = draw(st.sampled_from(sorted(FIELDS)))
    n = draw(st.integers(1, 10))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    return LinearCode(field_new(*FIELDS[q]), n, draw(st.lists(row, max_size=3)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(kernel_codes())
def test_lambda_kernel_tables_equal_the_counted_tables(code):
    for r in range(min(2, code.k) + 1):
        for t in range(min(3, code.n) + 1):
            tables = kernel_tables(code, r, t)
            assert list(tables) == list(combinations(range(1, code.n + 1), t))
            for coords, poly in tables.items():
                counted = higher_jacobi(code, RefSet.of(code.n, coords), r).to_bipoly()
                assert poly == counted, (code.gen, r, coords)


@pytest.mark.parametrize("code, distinct", [(hamming74, 1), (c12, 9)])
def test_equal_kernel_tables_are_one_polynomial(code, distinct):
    # Hamming's rank-1 shells are 2-designs, so its 21 tables at t = 2 are
    # equal; each distinct table is built once and shared by its T-sets
    tables = kernel_tables(code(), 1, 2)
    assert len(set(tables.values())) == distinct
    assert len({id(poly) for poly in tables.values()}) == distinct


def literal_lambdas(blocks: BlockMultiset, t: int) -> Counter:
    """lambda(S) for |S| <= t, one subset of one block occurrence at a time."""
    lam: Counter = Counter()
    for block in occurrences(blocks):
        for size in range(min(t, len(block)) + 1):
            lam.update(coords_mask(s) for s in combinations(sorted(block), size))
    return lam


def test_lambda_kernel_delsarte_sums_equal_the_literal_f_tilde_sums():
    rng = random.Random(14)
    cases = [UNEVEN, block_multiset(3, [{1}, {1}])]
    for _ in range(30):
        n = rng.randrange(1, 8)
        pool = list(combinations(range(1, n + 1), rng.randrange(0, n + 1)))
        drawn = [rng.choice(pool) for _ in range(rng.randrange(0, 6))]
        cases.append(block_multiset(n, with_multiplicities(rng, drawn)))
    cases += support_shells(c12(), 2).values()
    nonzero = 0
    for shell in cases:
        t = min(3, shell.n)
        lam = shell.lambdas(t)
        assert lam == literal_lambdas(shell, t), shell.counts
        blocks = occurrences(shell)
        for d in range(1, t + 1):
            for f in harm_basis(shell.n, d)[:6]:
                kernel_sum = sum(v * lam[z] for z, v in f.values.items())
                assert kernel_sum == sum(f_tilde(f, b) for b in blocks), (shell.counts, d)
                nonzero += kernel_sum != 0
    assert nonzero > 20


def test_lambda_kernel_of_no_points_counts_the_empty_block():
    # n = 0 still takes one byte per mask in the grouped table
    assert BlockMultiset(0, {0: 2}).lambdas(0) == Counter({0: 2})


def test_a_deeper_lambda_kernel_walks_the_kept_incidences(monkeypatch):
    # a shell transposes each multiplicity class once; every deeper t asked
    # afterwards walks those incidences again and gets the literal table
    real = designs._incidence
    transposes = []

    def spy(*args):
        transposes.append(args)
        return real(*args)

    monkeypatch.setattr(designs, "_incidence", spy)
    for shell in support_shells(c12(), 2).values():
        transposes.clear()
        for t in range(4):
            assert shell.lambdas(t) == literal_lambdas(shell, t), (shell.counts, t)
        assert len(transposes) == len(set(shell.counts.values()))
