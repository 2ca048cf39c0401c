"""Oracle tests for the int-mask support kernel: every histogram must equal
the one counted from literal codewords, subcodes and extension words."""

import random
from collections import Counter
from itertools import combinations

import pytest

from helpers import golay24, hamming74
from jacobiforge import (
    BlockMultiset,
    LinearCode,
    codewords,
    extension_codewords,
    field_new,
    is_t_design,
    subcodes,
)
from jacobiforge.code import (
    coords_mask,
    mask_support,
    monic_masks,
    or_convolve,
    rows_support,
    support_mask,
)
from jacobiforge.designs import support_shells
from jacobiforge.enumerators import (
    _extension_supports,
    codeword_support_histogram,
    subcode_support_histogram,
)


FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}


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
    for tsub in combinations(range(1, blocks.n + 1), t):
        tsub = frozenset(tsub)
        coverages.add(sum(1 for b in blocks.blocks if tsub <= b))
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
        total.update(shell.blocks)
    literal = Counter(rows_support(s.basis) for s in subcodes(code, 1))
    assert total == literal


def test_is_t_design_matches_brute_coverage():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(1, 8)
        size = rng.randrange(0, n + 1)
        pool = list(combinations(range(1, n + 1), size))
        blocks = BlockMultiset(
            n, [frozenset(rng.choice(pool)) for _ in range(rng.randrange(0, 6))]
        )
        for t in range(n + 1):
            v = is_t_design(blocks, t)
            assert (v.is_design, v.lam) == brute_is_t_design(blocks, t)
    for shell in support_shells(hamming74(), 2).values():
        for t in range(4):
            v = is_t_design(shell, t)
            assert (v.is_design, v.lam) == brute_is_t_design(shell, t)


def test_golay_weight8_shell_is_steiner_5_design():
    shell = support_shells(golay24(), 1)[8]
    assert len(shell) == 759
    v = is_t_design(shell, 5)
    assert (v.is_design, v.lam) == (True, 1)
