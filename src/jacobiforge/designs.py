"""Block designs from subcode supports, the reference-set independence
equivalence, and the polarization shortcut.

A block multiset is a t-design when every t-subset of the point set is
contained in the same number lambda of blocks, counted with
multiplicity.  The raw definition is used verbatim: blocks smaller than
t cover nothing, so such a multiset is vacuously a t-design with
lambda = 0, which is exactly the convention that keeps the
design-iff-independence equivalence true on fully symmetric codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .bipoly import BiHomPoly
from .code import MAX_SUBCODES_DEFAULT, LinearCode, RefSet, mask_support
from .enumerators import (
    JacobiTable,
    higher_jacobi,
    higher_weight_enum,
    subcode_support_histogram,
)
from .errors import DesignHypothesisFails


@dataclass(frozen=True)
class DesignVerdict:
    is_design: bool
    t: int
    lam: int | None


class BlockMultiset:
    """A multiset of equal-size subsets of {1, ..., n}; repeats preserved."""

    __slots__ = ("n", "blocks", "block_size")

    def __init__(self, n: int, blocks: Iterable[frozenset[int]]):
        blocks = tuple(frozenset(b) for b in blocks)
        for b in blocks:
            if not all(1 <= i <= n for i in b):
                raise ValueError(f"block {sorted(b)} not inside 1..{n}")
        sizes = {len(b) for b in blocks}
        if len(sizes) > 1:
            raise ValueError(f"blocks must have uniform size, got sizes {sorted(sizes)}")
        self.n = n
        self.blocks = blocks
        self.block_size = sizes.pop() if sizes else 0

    def __len__(self):
        return len(self.blocks)

    def __eq__(self, other):
        return (
            isinstance(other, BlockMultiset)
            and self.n == other.n
            and sorted(map(sorted, self.blocks)) == sorted(map(sorted, other.blocks))
        )

    def __repr__(self):
        return f"BlockMultiset(n={self.n}, {len(self.blocks)} blocks of size {self.block_size})"


def is_t_design(blocks: BlockMultiset, t: int) -> DesignVerdict:
    """Exhaustive coverage count over all t-subsets of the point set.

    Each point is an int with one bit per block occurrence, so the blocks
    covering a t-subset are the AND of its points' ints.
    """
    if t < 0 or t > blocks.n:
        raise ValueError("need 0 <= t <= n")
    incidence = [0] * blocks.n
    for idx, b in enumerate(blocks.blocks):
        for i in b:
            incidence[i - 1] |= 1 << idx
    coverages = _coverages(incidence, 0, t, (1 << len(blocks)) - 1)
    lam = next(coverages)
    if any(cov != lam for cov in coverages):
        return DesignVerdict(False, t, None)
    return DesignVerdict(True, t, lam)


def _coverages(incidence: list[int], start: int, t: int, covered: int):
    """popcount of covered AND the incidence of each t-subset of points
    from start on, by depth-first search over shared prefixes."""
    if t == 0:
        yield covered.bit_count()
    elif t == 1:
        for bits in incidence[start:]:
            yield (covered & bits).bit_count()
    else:
        for i in range(start, len(incidence) - t + 1):
            yield from _coverages(incidence, i + 1, t - 1, covered & incidence[i])


def support_shells(
    code: LinearCode, r: int, max_subcodes: int = MAX_SUBCODES_DEFAULT
) -> dict[int, BlockMultiset]:
    """The nonempty weight shells of the r-dim subcode supports, by weight."""
    by_weight: dict[int, list[frozenset[int]]] = {}
    for mask, mult in subcode_support_histogram(code, r, max_subcodes).items():
        by_weight.setdefault(mask.bit_count(), []).extend([mask_support(mask)] * mult)
    return {
        w: BlockMultiset(code.n, blocks) for w, blocks in sorted(by_weight.items())
    }


def subcode_support_designs(
    code: LinearCode, r: int, t: int, max_subcodes: int = MAX_SUBCODES_DEFAULT
) -> dict[int, DesignVerdict]:
    """Design verdict of every nonempty support shell of the r-dim subcodes."""
    return {
        w: is_t_design(shell, t)
        for w, shell in support_shells(code, r, max_subcodes).items()
    }


def t_independence_check(
    code: LinearCode, r: int, t: int, max_subcodes: int = MAX_SUBCODES_DEFAULT
) -> tuple[bool, tuple[RefSet, RefSet] | None]:
    """Whether the rank-r split-weight table is the same for every t-subset T.

    Returns (True, None) or (False, (T1, T2)) with two witnesses whose
    tables differ.  Must match the all-shells-are-designs verdict; both
    are computed independently and the tests compare them.
    """
    first_tset = None
    first_table: JacobiTable | None = None
    for coords in combinations(range(1, code.n + 1), t):
        tset = RefSet.of(code.n, coords)
        table = higher_jacobi(code, tset, r, max_subcodes)
        if first_table is None:
            first_tset, first_table = tset, table
        elif table.grid != first_table.grid:
            return False, (first_tset, tset)
    return True, None


def _falling(n: int, t: int) -> int:
    out = 1
    for i in range(t):
        out *= n - i
    return out


def jacobi_by_polarization(
    code: LinearCode, r: int, t: int, max_subcodes: int = MAX_SUBCODES_DEFAULT
) -> BiHomPoly:
    """Split-weight polynomial for any t-set T, straight from the rank-r
    weight enumerator: polarize t times and divide by n(n-1)...(n-t+1).

    Only valid when every support shell is a t-design; the hypothesis is
    verified here rather than trusted, since a silent misuse would
    produce a wrong table.
    """
    verdicts = subcode_support_designs(code, r, t, max_subcodes)
    failing = [w for w, v in verdicts.items() if not v.is_design]
    if failing:
        raise DesignHypothesisFails(
            f"support shells at weights {failing} are not {t}-designs"
        )
    poly = higher_weight_enum(code, r, max_subcodes)
    for _ in range(t):
        poly = poly.polarize()
    return poly.scale(Fraction(1, _falling(code.n, t)))


def punctured_split(
    code: LinearCode, r: int, coord: int, max_subcodes: int = MAX_SUBCODES_DEFAULT
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split the rank-r support indicators by their value at one coordinate.

    Returns the two weight multisets (sorted) after puncturing that
    coordinate: supports avoiding it, then supports containing it.
    Reassembling w * sum x^(n-1-w0) y^w0 + z * sum x^(n-1-w1) y^w1
    gives the split-weight polynomial for T = {coord}.
    """
    if not 1 <= coord <= code.n:
        raise ValueError(f"coordinate must lie in 1..{code.n}")
    zero_side = []
    one_side = []
    bit = 1 << (coord - 1)
    for mask, mult in subcode_support_histogram(code, r, max_subcodes).items():
        w = mask.bit_count()
        if mask & bit:
            one_side.extend([w - 1] * mult)
        else:
            zero_side.extend([w] * mult)
    return tuple(sorted(zero_side)), tuple(sorted(one_side))


def reassemble_punctured(
    n: int, zero_weights, one_weights
) -> BiHomPoly:
    """Rebuild the T = {i} split-weight polynomial from a punctured split."""
    terms: dict[tuple[int, int], int] = {}
    for w in zero_weights:
        key = (0, w)
        terms[key] = terms.get(key, 0) + 1
    for w in one_weights:
        key = (1, w)
        terms[key] = terms.get(key, 0) + 1
    return BiHomPoly.from_terms(1, n - 1, terms)
