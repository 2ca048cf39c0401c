"""Linear codes over GF(q): construction, duals, and the enumerations
every invariant is built from.

A LinearCode stores its generator matrix in reduced row echelon form,
which makes it a canonical representative: two constructions of the
same subspace compare equal.  Coordinates are 1-based everywhere a set
of positions crosses an API boundary (supports, reference sets, design
blocks), matching the usual [n] = {1, ..., n} convention.

Supports are int bitmasks (bit i-1 set when coordinate i is nonzero) and
are counted in a Counter{mask: multiplicity} histogram, for every q:

  * codewords: one mask per monic message (first nonzero digit 1), built
    by span doubling, XOR over GF(2) and field-table rows otherwise; each
    stands for its q - 1 nonzero scalar multiples, so the list has
    (q^k - 1)/(q - 1) entries, no more than the r-dim subcodes for any
    0 < r < k;
  * r-dim subcodes: subspaces of the message space GF(q)^k are enumerated
    by RREF pivot pattern, so each subcode is produced exactly once and
    the count matches the Gaussian binomial by construction.  Every RREF
    row is monic, a subcode's support is the OR of its rows' masks, and
    each row of a pivot pattern ranges over a pivot plus the span of its
    free entries, so a pattern is the OR-convolution of its rows' mask
    histograms;
  * degree-m extension words: C (x) GF(q^m) is isomorphic to C^m as a
    GF(q)-space, so an extension word's support is the union of m
    codeword supports and the histogram is the m-fold OR-convolution of
    the codeword histogram H, with no GF(q^m) arithmetic.  ``or_power``
    takes it by subset sums over all 2^n masks when n 2^n < |H|^2 (m-th
    powers of the zeta transform, then one Moebius transform), and by the
    pair loop of ``or_convolve`` otherwise.  The word guard q^(mk) <=
    max_words bounds |H|^2 for m >= 2, so the dense list stays under
    max_words / n entries.

The guards (max_words for the q^k codewords and q^(mk) extension words,
max_subcodes for the subcodes) travel in a ``Run``, with the memo that the
routes given one run share; a route given no run makes its own.

The literal codeword, subcode and extension-word enumerations that the
histograms are checked against live with the tests, in ``tests/helpers.py``.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, compress
from math import isqrt
from operator import add, getitem, sub
from typing import Iterable, Sequence

from .errors import (
    FieldMismatch,
    ParseError,
    TooLarge,
)
from .exactmath import nullspace, rref
from .gf import _ORDER_CAP, FieldSpec, field_new
from .qcomb import gauss_binom

MAX_WORDS_DEFAULT = 1 << 24
MAX_SUBCODES_DEFAULT = 10 ** 7


class Run:
    """The guards of one run and its memo, which the routes given the run
    share their inputs through; a route given no run makes its own."""

    __slots__ = ("max_subcodes", "max_words", "memo")

    def __init__(self, max_subcodes=MAX_SUBCODES_DEFAULT, max_words=MAX_WORDS_DEFAULT):
        self.max_subcodes = max_subcodes
        self.max_words = max_words
        self.memo: dict = {}

    def shared(self, build, *args):
        """build(*args), built once per run; a guard hit is kept as the
        outcome and raised again.  The key leaves out the run itself, so
        that the memo holds no reference back to it."""
        key = (build, *(arg for arg in args if arg is not self))
        if key not in self.memo:
            try:
                self.memo[key] = build(*args)
            except TooLarge as exc:
                self.memo[key] = exc.with_traceback(None)
        if isinstance(out := self.memo[key], TooLarge):
            raise out.with_traceback(None)
        return out


class RefSet:
    """A reference set of coordinate places T inside [n]."""

    __slots__ = ("n", "members")

    def __init__(self, n: int, members: Iterable[int]):
        self.n, self.members = n, frozenset(members)
        if not all(1 <= i <= n for i in self.members):
            raise ValueError(f"reference set must lie inside 1..{n}")

    def __eq__(self, other):
        return (
            isinstance(other, RefSet)
            and self.n == other.n
            and self.members == other.members
        )

    def __hash__(self):
        return hash((self.n, self.members))

    @classmethod
    def of(cls, n: int, coords: Iterable[int] = ()) -> "RefSet":
        return cls(n, coords)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def mask(self) -> int:
        return coords_mask(self.members)

    def sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __repr__(self):
        inner = ",".join(str(i) for i in sorted(self.members))
        return f"RefSet({{{inner}}}/{self.n})"


class LinearCode:
    """An [n, k] code over GF(q), canonically represented by its RREF generator."""

    __slots__ = ("spec", "n", "k", "gen", "_hash")

    def __init__(self, spec: FieldSpec, n: int, rows: Iterable[Sequence[int]]):
        rows = [list(r) for r in rows]
        for r in rows:
            if len(r) != n:
                raise ValueError("generator rows must all have length n")
            for x in r:
                if not 0 <= x < spec.q:
                    raise FieldMismatch(f"entry {x} is not an element of GF({spec.q})")
        reduced, _ = rref(spec, rows, n)
        self.spec = spec
        self.n = n
        self.k = len(reduced)
        self.gen = tuple(tuple(r) for r in reduced)
        self._hash = hash((spec, n, self.gen))  # it keys every cache, so hash the generator once

    def __eq__(self, other):
        return (
            isinstance(other, LinearCode)
            and self.spec == other.spec
            and self.n == other.n
            and self.gen == other.gen
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"LinearCode[{self.n},{self.k}]_q={self.spec.q}"

    def dual(self) -> "LinearCode":
        """The [n, n-k] code orthogonal to every generator row."""
        return LinearCode(self.spec, self.n, nullspace(self.spec, self.gen, self.n))


def parse_code(text: str) -> LinearCode:
    """Parse the matrix file format.

    First line: ``q=<int> n=<int>`` with optional ``p=<int> e=<int>``, each
    key at most once and no other key; q is at most 256.
    Remaining lines: rows of n digits (q <= 10, no separators) or
    space-separated encodings (q > 10).  Every number is ASCII decimal digits.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty matrix file")
    header: dict[str, int] = {}
    for token in lines[0].split():
        if "=" not in token:
            raise ParseError(f"bad header token {token!r}")
        key, _, value = token.partition("=")
        if key not in ("q", "n", "p", "e"):
            raise ParseError(f"unknown header key in {token!r}")
        if key in header:
            raise ParseError(f"header key {key!r} given twice")
        if not (value.isascii() and value.isdigit()):  # int() takes signs, _, other scripts
            raise ParseError(f"bad header value in {token!r}")
        try:
            header[key] = int(value)
        except ValueError:  # more digits than int() reads from a str
            raise ParseError(f"header value {key}= has {len(value)} digits") from None
    if "q" not in header or "n" not in header:
        raise ParseError("header must declare q= and n=")
    q, n = header["q"], header["n"]
    if q < 2 or n < 1:
        raise ParseError("need q >= 2 and n >= 1")
    if q > _ORDER_CAP:
        raise TooLarge(f"field order {q} exceeds {_ORDER_CAP}")
    p = next((c for c in range(2, isqrt(q) + 1) if q % c == 0), q)
    e = 0
    qq = q
    while qq % p == 0 and qq > 1:
        qq //= p
        e += 1
    if p ** e != q:
        raise ParseError(f"q={q} is not a prime power")
    if "p" in header and header["p"] != p:
        raise ParseError(f"declared p={header['p']} inconsistent with q={q}")
    if "e" in header and header["e"] != e:
        raise ParseError(f"declared e={header['e']} inconsistent with q={q}")
    spec = field_new(p, e)
    rows = []
    for ln in lines[1:]:
        entries = ln.replace(" ", "") if q <= 10 else ln.split()
        if len(entries) != n:
            raise ParseError(f"row {ln!r} does not have {n} entries")
        digits = "".join(entries)
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(f"non-decimal entry in row {ln!r}")
        try:
            row = [int(x) for x in entries]
        except ValueError:  # more digits than int() reads from a str
            raise ParseError(f"entry of {max(map(len, entries))} digits in row {len(rows) + 1}")
        for x in row:
            if not 0 <= x < q:
                raise FieldMismatch(f"entry {x} out of range for GF({q})")
        rows.append(row)
    return LinearCode(spec, n, rows)


def subcode_count(code: LinearCode, r: int) -> int:
    return gauss_binom(code.k, r, code.spec.q)


def support_mask(vec: Sequence[int]) -> int:
    """Bitmask of the nonzero coordinates: bit i-1 stands for coordinate i."""
    out = 0
    for i, x in enumerate(vec):
        if x:
            out |= 1 << i
    return out


def coords_mask(coords: Iterable[int]) -> int:
    """Bitmask of a set of 1-based coordinates."""
    out = 0
    for c in coords:
        out |= 1 << (c - 1)
    return out


def monic_masks(code: LinearCode) -> list[int]:
    """Support mask of every monic message: first nonzero digit 1.

    A nonzero codeword is one of q - 1 scalar multiples of the image of a
    monic message, and scaling keeps the support, so these (q^k - 1)/(q - 1)
    masks stand for all nonzero codewords.  The list runs over the leading
    position p = 0..k-1 and, inside each block, over the digits after p read
    as a base-q number, most significant first.
    """
    spec, n, gen = code.spec, code.n, code.gen
    blocks = []
    if spec.q == 2:
        # XOR span doubling; the last generator row is the least significant digit
        span = [0]
        for row in reversed(gen):
            rmask = support_mask(row)
            block = [x ^ rmask for x in span]
            blocks.append(block)
            span += block
    else:
        # the same doubling on words (bytes, as q <= 256): span holds the
        # combinations of the rows after p in message order, the block of p
        # adds row p to each, and adding a * row p is one add-table row per
        # coordinate; only spans are kept as words, never the span of all k rows
        bits = [1 << i for i in range(n)]
        span = [bytes(n)]
        for p in reversed(range(len(gen))):
            shifts = [[spec._add[spec.mul(a, x)] for x in gen[p]] for a in range(spec.q)]
            blocks.append([sum(compress(bits, map(getitem, shifts[1], w))) for w in span])
            if p:
                span += [bytes(map(getitem, shift, w)) for shift in shifts[1:] for w in span]
    blocks.reverse()
    return [mask for block in blocks for mask in block]


def or_convolve(a: Counter, b: Counter, out: Counter | None = None) -> Counter:
    """Add a[x] * b[y] at x | y for every pair of masks; returns out."""
    if out is None:
        out = Counter()
    for x, cx in a.items():
        for y, cy in b.items():
            out[x | y] += cx * cy
    return out


def or_power(hist: Counter, n: int, m: int) -> Counter:
    """The m-fold OR-convolution of a histogram of n-bit masks (m >= 1).

    When n 2^n < |hist|^2 it goes through all 2^n masks by subset sums
    (``_or_power_dense``); otherwise it runs the pair loop of
    ``or_convolve`` m - 1 times.  The extension histogram of an [n, k]_q
    code is only built under the guard q^(mk) <= max_words, and for m >= 2
    that bounds |hist|^2 <= q^(2k) <= max_words, so the dense list has fewer
    than max_words / n entries: under 2^20 at the default guard.
    """
    if m > 1 and n << n < len(hist) ** 2:
        return _or_power_dense(hist, n, m)
    out = Counter(hist)
    for _ in range(m - 1):
        out = or_convolve(out, hist)
    return out


def _or_power_dense(hist: Counter, n: int, m: int) -> Counter:
    """or_power by subset sums: the zeta transform turns an OR-convolution
    into a pointwise product, so the m-fold one is the Moebius transform of
    the m-th powers (Bjoerklund, Husfeldt, Kaski and Koivisto, STOC 2007)."""
    f = [0] * (1 << n)
    for mask, mult in hist.items():
        f[mask] = mult
    f = _subset_transform([x ** m for x in _subset_transform(f, n, add)], n, sub)
    return Counter({mask: mult for mask, mult in enumerate(f) if mult})


def _subset_transform(f: list, n: int, op) -> list:
    """f[U] op= f[U - {i}] for every bit i of every U, in place: subset sums
    with add, their inverse with sub.

    Each pass works on the top bit, with one slice op over the upper half,
    then rotates the index bits left by one, so that after n passes every
    bit has been the top bit once and the order is back where it began.
    """
    half = len(f) >> 1
    for _ in range(n):
        low = f[:half]
        f[1::2] = map(op, f[half:], low)
        f[0::2] = low
    return f


def subcode_histogram(code: LinearCode, r: int, masks: Sequence[int]) -> Counter:
    """Counter{support mask: number of r-dim subcodes with that support}.

    Every RREF row is a monic message, so masks is ``monic_masks(code)``.  It
    is read only for 0 < r < k, where the (q^k - 1)/(q - 1) monic messages
    are no more than the r-dim subcodes.
    """
    q, k = code.spec.q, code.k
    if r == 0:
        return Counter({0: 1})
    if r == k:
        return Counter({support_mask(map(any, zip(*code.gen))): 1})
    place = [q ** (k - 1 - c) for c in range(k)]
    block_start = [(q ** k - q ** (k - p)) // (q - 1) for p in range(k)]
    out: Counter = Counter()
    for pivots in combinations(range(k), r):
        pivot_set = set(pivots)
        rows = []
        for p in pivots:
            idx = [block_start[p]]
            for c in range(p + 1, k):
                if c not in pivot_set:
                    step = place[c]
                    idx = [i + a * step for a in range(q) for i in idx]
            rows.append(Counter(masks[i] for i in idx))
        hist = Counter({0: 1})
        for row in rows[:-1]:
            hist = or_convolve(hist, row)
        or_convolve(hist, rows[-1], out)
    return out


def column_set_dim(code: LinearCode, cols: frozenset[int]) -> int:
    """dim of the subcode vanishing on the given 1-based coordinate set."""
    ordered = sorted(cols)
    sub = [[row[c - 1] for c in ordered] for row in code.gen]
    return code.k - len(rref(code.spec, sub, len(ordered))[0])
