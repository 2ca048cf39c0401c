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
Given a ``code.Run``, the shells, their verdicts and the kernel tables are
built once per run, and these verdicts are the only t-design checks that
``verify`` makes: the Delsarte item judges each shell at the same strength.

The tables are read off one lambda kernel (``BlockMultiset.lambdas``): if
lambda_w(S) weight-w blocks contain S, |S| <= t, then by Moebius inversion
N_w(T, j) = sum over S in T, |S| >= j, of (-1)^(|S|-j) C(|S|, j) lambda_w(S)
of them meet T in exactly j points.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb, perm
from operator import add, and_
from typing import NamedTuple

from .bipoly import BiHomPoly
from .code import LinearCode, RefSet, Run
from .enumerators import higher_weight_enum, subcode_support_histogram, table_from_bipoly
from .errors import DesignHypothesisFails, TooLarge


class DesignVerdict(NamedTuple):
    is_design: bool
    t: int
    lam: int | None


class BlockMultiset:
    """Equal-size subsets of {1, ..., n} as Counter{mask: multiplicity};
    len() counts occurrences."""

    __slots__ = ("n", "counts", "block_size", "_groups", "_kernel", "_lam")

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
        self._groups: tuple[int, dict[int, bytearray]] | None = None  # (width, tables)
        self._kernel: list[tuple[int, int, list[int]]] | None = None  # (mult, all-ones, incidence)
        self._lam: tuple[int, Counter] | None = None  # (depth, lambdas)

    def _grouped(self) -> tuple[int, dict[int, bytearray]]:
        """(width, {multiplicity: the little-endian byte table of its masks}),
        grouped on the first call and kept: both incidence transposes read it."""
        if self._groups is None:
            width = max(1, (self.n + 7) // 8)
            groups: defaultdict[int, bytearray] = defaultdict(bytearray)
            for mask, mult in self.counts.items():
                groups[mult] += mask.to_bytes(width, "little")
            self._groups = (width, groups)
        return self._groups

    def lambdas(self, t: int) -> Counter:
        """The lambda kernel, Counter{S: blocks containing S} for |S| <= t, kept
        for the largest t asked.  Each multiplicity class is transposed to point
        incidences once, and a deeper t walks them again: lambda(S) sums
        multiplicity times the popcount of the AND of S's incidences."""
        if self._kernel is None:
            width, groups = self._grouped()
            self._kernel = [
                (mult, (1 << len(rows) // width) - 1, _incidence(rows, width, self.n))
                for mult, rows in groups.items()
            ]
        if self._lam is None or self._lam[0] < t:
            n, lam = self.n, Counter()

            def visit(s: int, start: int, depth: int, cover: int) -> None:
                lam[s] += mult * cover.bit_count()
                if depth < t:  # AND one more point onto the shared prefix
                    for i in range(start, n):
                        if c := cover & incidence[i]:
                            visit(s | 1 << i, i + 1, depth + 1, c)

            for mult, cover, incidence in self._kernel:
                visit(0, 0, 0, cover)
            self._lam = (t, lam)
        return self._lam[1]

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

    The shell groups its masks by multiplicity once, and each class is
    transposed to point incidences: one int per point, one bit per mask,
    by reading byte column i // 8 of the little-endian mask table at bit
    i % 8 as binary digits.  The blocks of a class covering a t-subset are
    then the AND of its points' ints.  For t >= 2 each class keeps its
    C(n, 2) pairwise ANDs in lexicographic order (C(n, 2) ints of one bit
    per mask), so the coverages of the t-subsets sharing a (t-2)-point
    prefix are one C-level pass over the pairs after that prefix, summed
    over the classes with their multiplicities.  It stops at the second
    distinct coverage.  t = 0 gives lambda = len(blocks), and blocks
    smaller than t give (True, t, 0), as in ``delsarte_design_check``.
    """
    if t < 0 or t > blocks.n:
        raise ValueError("need 0 <= t <= n")
    if t == 0 or t > blocks.block_size:
        return DesignVerdict(True, t, 0 if t else len(blocks))
    (width, groups), n, k = blocks._grouped(), blocks.n, min(t, 2)
    classes = []  # (multiplicity, point incidences, k-point ANDs in lexicographic order)
    for mult, rows in groups.items():  # a transpose of its own, apart from _incidence
        points = [
            int(b"0" + rows[i // 8 :: width].translate(_DIGITS[i % 8]), 2) for i in range(n)
        ]
        tails = [a & b for a, b in combinations(points, 2)] if k == 2 else points
        classes.append((mult, points, tails))
    seen: set[int] = set()
    for prefix in combinations(range(n - k), t - k):
        start = comb(n, k) - comb(n - 1 - prefix[-1], k) if prefix else 0  # first k-set after it
        total = None
        for mult, points, tails in classes:
            cover = reduce(and_, map(points.__getitem__, prefix), -1)
            counts = map(int.bit_count, map(cover.__and__, tails[start:]))
            if mult > 1:
                counts = map(mult.__mul__, counts)
            total = counts if total is None else map(add, total, counts)
        seen.update(total)
        if len(seen) > 1:
            return DesignVerdict(False, t, None)
    return DesignVerdict(True, t, seen.pop())


def _incidence(rows, width: int, n: int) -> list[int]:
    """The lambda kernel's n point incidences of a byte table of masks: the
    transpose of ``is_t_design``, kept apart so the two share only the table."""
    return [int(b"0" + rows[i // 8 :: width].translate(_DIGITS[i % 8]), 2) for i in range(n)]


def support_shells(code: LinearCode, r: int, run: Run | None = None) -> dict[int, BlockMultiset]:
    """The nonempty weight shells of the r-dim subcode supports, by weight."""
    by_weight: defaultdict[int, dict[int, int]] = defaultdict(dict)
    for mask, mult in subcode_support_histogram(code, r, run).items():
        by_weight[mask.bit_count()][mask] = mult
    return {w: BlockMultiset(code.n, by_weight.pop(w)) for w in sorted(by_weight)}


def subcode_support_designs(
    code: LinearCode, r: int, t: int, run: Run | None = None
) -> dict[int, DesignVerdict]:
    """Verdict of every nonempty support shell of the r-dim subcodes on the
    polarization hypothesis at t: the shell of weight w is tested as an
    s-design for s = min(t, w, n - t), the strength at which all shells
    being designs is equivalent to the t-set independence of the table.
    Each verdict carries the s it was tested at."""
    run = run or Run()
    return {
        w: is_t_design(shell, min(t, w, code.n - t))
        for w, shell in run.shared(support_shells, code, r, run).items()
    }


def _mobius_row(size: int) -> list[int]:
    """(-1)^(size - j) C(size, j) for j = 0..size: lambda(S)'s weight in N(T, j)."""
    return [(-1) ** (size - j) * comb(size, j) for j in range(size + 1)]


def kernel_tables(
    code: LinearCode, r: int, t: int, run: Run | None = None
) -> dict[tuple[int, ...], BiHomPoly]:
    """{T: the rank-r split-weight polynomial at T} for every t-subset T, in
    lexicographic order, read off the shells' lambda kernel: shell w puts
    N_w(T, j) at w^(t-j) z^j x^(n-t-w+j) y^(w-j)."""
    n, run = code.n, run or Run()
    shells = run.shared(support_shells, code, r, run)
    lams = [(w, shell.lambdas(t)) for w, shell in shells.items()]
    mobius = [_mobius_row(size) for size in range(t + 1)]
    tables, polys = {}, {}  # polys: one polynomial per distinct grid, shared by its T-sets
    for coords in combinations(range(1, n + 1), t):
        subsets = [0]
        for c in coords:
            subsets += [s | 1 << (c - 1) for s in subsets]
        coeff = [[0] * (n - t + 1) for _ in range(t + 1)]
        for w, lam in lams:
            for s in subsets:
                if v := lam.get(s):
                    for j, sign_binom in enumerate(mobius[s.bit_count()]):
                        if w - j <= n - t:  # else N_w(T, j) is 0
                            coeff[j][w - j] += sign_binom * v
        if (grid := tuple(map(tuple, coeff))) not in polys:
            polys[grid] = BiHomPoly(t, n - t, grid)
        tables[coords] = polys[grid]
    return tables


def t_independence_check(
    code: LinearCode, r: int, t: int, run: Run | None = None
) -> tuple[bool, tuple[RefSet, RefSet] | None]:
    """Whether the rank-r split-weight table is the same for every t-subset T.

    Returns (True, None) or (False, (T1, T2)) with two witnesses whose
    tables differ.  Must match the all-shells-are-designs verdict, which
    ``is_t_design`` reaches without the lambda kernel; the tests compare them.
    """
    run = run or Run()
    tables = iter(run.shared(kernel_tables, code, r, t, run).items())
    first = next(tables, None)
    for coords, poly in tables:
        if poly != first[1]:
            return False, (RefSet.of(code.n, first[0]), RefSet.of(code.n, coords))
    return True, None


def jacobi_by_polarization(
    code: LinearCode, r: int, t: int, run: Run | None = None
) -> BiHomPoly:
    """Split-weight polynomial for any t-set T, straight from the rank-r
    weight enumerator: polarize t times and divide by n(n-1)...(n-t+1).

    Only valid when every support shell of weight w is a
    min(t, w, n - t)-design (see ``subcode_support_designs``); the
    hypothesis is verified here rather than trusted, since a silent misuse
    would produce a wrong table.  The result is read through
    ``table_from_bipoly`` as well, so it cannot come out fractional.
    """
    run = run or Run()
    verdicts = run.shared(subcode_support_designs, code, r, t, run)
    failing: dict[int, list[int]] = {}  # strength: the weights that failed at it
    for w, v in verdicts.items():
        if not v.is_design:
            failing.setdefault(v.t, []).append(w)
    if failing:
        raise DesignHypothesisFails("support shells " + ", ".join(
            f"at weights {weights} are not {s}-designs" for s, weights in failing.items()
        ))
    poly = run.shared(higher_weight_enum, code, r, run)
    for _ in range(t):
        poly = poly.polarize()
    poly = poly.scale(Fraction(1, perm(code.n, t)))
    tset = RefSet.of(code.n, range(1, t + 1))
    return table_from_bipoly("higher", r, code.spec.q, tset, poly).to_bipoly()
