"""Block designs from subcode supports, the reference-set independence
equivalence, and the polarization shortcut.

A block multiset is one weight slice of a support histogram: equal-size
subsets of {1, ..., n} as int masks (bit i-1 for point i), each with its
multiplicity.  It is a t-design when every t-subset of the point set is
contained in the same number lambda of blocks, counted with
multiplicity.  ``is_t_design`` uses the raw definition verbatim: blocks
smaller than t cover nothing, so such a multiset is vacuously a t-design
with lambda = 0.

The polarization hypothesis asks for more than the raw t-design property
on small shells and less on large t.  The rank-r split-weight table is
the same for every t-set T exactly when each support shell of weight w
is an s-design for s = min(t, w, n - t):

  * for w >= t, a t-design is an s-design for every s <= t, and those
    lambdas fix how many blocks meet T in each number of points;
  * for w < t, the counts by |B & T| sum the lambdas of the w-subsets
    inside T, and that sum is the same for every T only if the shell is a
    w-design (the inclusion map of w-sets into t-sets is injective for
    w <= n - t);
  * T and its complement give the same table with the two variable pairs
    swapped, so strength t and strength n - t are the same condition.

``subcode_support_designs`` tests each shell at that strength, which is
what keeps the design-iff-independence equivalence true on every code.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations
from math import perm
from typing import NamedTuple

from .bipoly import BiHomPoly
from .code import MAX_SUBCODES_DEFAULT, LinearCode, RefSet
from .enumerators import (
    JacobiTable,
    higher_jacobi,
    higher_weight_enum,
    subcode_support_histogram,
    table_from_bipoly,
)
from .errors import DesignHypothesisFails


class DesignVerdict(NamedTuple):
    is_design: bool
    t: int
    lam: int | None


class BlockMultiset:
    """Equal-size subsets of {1, ..., n} as Counter{mask: multiplicity};
    len() counts occurrences."""

    __slots__ = ("n", "counts", "block_size")

    def __init__(self, n: int, counts: dict[int, int]):
        counts = Counter(counts)
        if counts and (min(counts) < 0 or max(counts) >> n or min(counts.values()) < 1):
            raise ValueError(f"need block masks inside 1..{n} with multiplicities >= 1")
        sizes = {mask.bit_count() for mask in counts}
        if len(sizes) > 1:
            raise ValueError(f"blocks must have uniform size, got sizes {sorted(sizes)}")
        self.n = n
        self.counts = counts
        self.block_size = sizes.pop() if sizes else 0

    def __len__(self):
        return sum(self.counts.values())

    def __eq__(self, other):
        return (
            isinstance(other, BlockMultiset)
            and self.n == other.n
            and self.counts == other.counts
        )

    def __repr__(self):
        return f"BlockMultiset(n={self.n}, {len(self)} blocks of size {self.block_size})"


# _DIGITS[b] translates a byte to the ASCII digit of its bit b
_DIGITS = [bytes(ord("0") + (x >> b & 1) for x in range(256)) for b in range(8)]


def is_t_design(blocks: BlockMultiset, t: int) -> DesignVerdict:
    """Exhaustive coverage count over all t-subsets of the point set.

    Each point is an int with one bit per block occurrence, so the blocks
    covering a t-subset are the AND of its points' ints.  They are one
    transpose of the histogram: occurrence j is row j of a byte table of
    little-endian masks, and point i reads byte column i // 8 at bit i % 8
    as binary digits, after a leading 0 that reads no blocks as 0.
    """
    if t < 0 or t > blocks.n:
        raise ValueError("need 0 <= t <= n")
    width = (blocks.n + 7) // 8
    rows = bytearray()
    for mask, mult in blocks.counts.items():
        rows += mask.to_bytes(width, "little") * mult
    incidence = [
        int(b"0" + rows[i // 8 :: width].translate(_DIGITS[i % 8]), 2)
        for i in range(blocks.n)
    ]
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
    by_weight: defaultdict[int, dict[int, int]] = defaultdict(dict)
    for mask, mult in subcode_support_histogram(code, r, max_subcodes).items():
        by_weight[mask.bit_count()][mask] = mult
    return {w: BlockMultiset(code.n, by_weight.pop(w)) for w in sorted(by_weight)}


def subcode_support_designs(
    code: LinearCode, r: int, t: int, max_subcodes: int = MAX_SUBCODES_DEFAULT
) -> dict[int, DesignVerdict]:
    """Verdict of every nonempty support shell of the r-dim subcodes on the
    polarization hypothesis at t: the shell of weight w is tested as an
    s-design for s = min(t, w, n - t), the strength at which all shells
    being designs is equivalent to the t-set independence of the table.
    Each verdict carries the s it was tested at."""
    return {
        w: is_t_design(shell, min(t, w, code.n - t))
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


def jacobi_by_polarization(
    code: LinearCode, r: int, t: int, max_subcodes: int = MAX_SUBCODES_DEFAULT
) -> BiHomPoly:
    """Split-weight polynomial for any t-set T, straight from the rank-r
    weight enumerator: polarize t times and divide by n(n-1)...(n-t+1).

    Only valid when every support shell of weight w is a
    min(t, w, n - t)-design (see ``subcode_support_designs``); the
    hypothesis is verified here rather than trusted, since a silent misuse
    would produce a wrong table.  The result is read through
    ``table_from_bipoly`` as well, so it cannot come out fractional.
    """
    verdicts = subcode_support_designs(code, r, t, max_subcodes)
    failing: dict[int, list[int]] = {}  # strength: the weights that failed at it
    for w, v in verdicts.items():
        if not v.is_design:
            failing.setdefault(v.t, []).append(w)
    if failing:
        raise DesignHypothesisFails("support shells " + ", ".join(
            f"at weights {weights} are not {s}-designs" for s, weights in failing.items()
        ))
    poly = higher_weight_enum(code, r, max_subcodes)
    for _ in range(t):
        poly = poly.polarize()
    poly = poly.scale(Fraction(1, perm(code.n, t)))
    tset = RefSet.of(code.n, range(1, t + 1))
    return table_from_bipoly("higher", r, code.spec.q, code.n, tset, poly).to_bipoly()


def punctured_split(
    code: LinearCode, r: int, coord: int, max_subcodes: int = MAX_SUBCODES_DEFAULT
) -> tuple[Counter, Counter]:
    """Split the rank-r support indicators by their value at one coordinate.

    Returns the two weight histograms Counter{weight: multiplicity} after
    puncturing that coordinate: supports avoiding it, then supports
    containing it.  Reassembling w * sum x^(n-1-w0) y^w0 + z * sum
    x^(n-1-w1) y^w1 gives the split-weight polynomial for T = {coord}.
    """
    if not 1 <= coord <= code.n:
        raise ValueError(f"coordinate must lie in 1..{code.n}")
    zero_side: Counter = Counter()
    one_side: Counter = Counter()
    bit = 1 << (coord - 1)
    for mask, mult in subcode_support_histogram(code, r, max_subcodes).items():
        if mask & bit:
            one_side[mask.bit_count() - 1] += mult
        else:
            zero_side[mask.bit_count()] += mult
    return zero_side, one_side


def reassemble_punctured(n: int, zero_weights: Counter, one_weights: Counter) -> BiHomPoly:
    """Rebuild the T = {i} split-weight polynomial from a punctured split."""
    terms = {(0, w): c for w, c in zero_weights.items()}
    terms.update(((1, w), c) for w, c in one_weights.items())
    return BiHomPoly.from_terms(1, n - 1, terms)
