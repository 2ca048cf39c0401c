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
    by XOR span doubling over GF(2) and word by word otherwise; each
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
    the codeword histogram, with no GF(q^m) arithmetic.

Literal enumeration (``codewords``, ``subcodes``, ``iter_subcode_supports``,
``extension_codewords``) is kept as an independent route for the tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from math import isqrt
from typing import Iterable, Iterator, Sequence

from .errors import (
    FieldMismatch,
    ParseError,
    TooLarge,
    UnsupportedBaseField,
)
from .exactmath import nullspace, rref
from .gf import _ORDER_CAP, FieldSpec, field_new
from .qcomb import gauss_binom

MAX_WORDS_DEFAULT = 1 << 24
MAX_SUBCODES_DEFAULT = 10 ** 7


@dataclass(frozen=True)
class RefSet:
    """A reference set of coordinate places T inside [n]."""

    n: int
    members: frozenset[int]

    def __post_init__(self):
        if not all(1 <= i <= self.n for i in self.members):
            raise ValueError(f"reference set must lie inside 1..{self.n}")

    @classmethod
    def of(cls, n: int, coords: Iterable[int] = ()) -> "RefSet":
        return cls(n, frozenset(coords))

    @property
    def complement(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1)) - self.members

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

    __slots__ = ("spec", "n", "k", "gen")

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

    def __eq__(self, other):
        return (
            isinstance(other, LinearCode)
            and self.spec == other.spec
            and self.n == other.n
            and self.gen == other.gen
        )

    def __hash__(self):
        return hash((self.spec, self.n, self.gen))

    def __repr__(self):
        return f"LinearCode[{self.n},{self.k}]_q={self.spec.q}"

    def dual(self) -> "LinearCode":
        """The [n, n-k] code orthogonal to every generator row."""
        return LinearCode(self.spec, self.n, nullspace(self.spec, self.gen, self.n))

    def permute_coordinates(self, perm: Sequence[int]) -> "LinearCode":
        """Relabel coordinates; perm[i-1] is the new home of coordinate i (1-based)."""
        if sorted(perm) != list(range(1, self.n + 1)):
            raise ValueError("perm must be a permutation of 1..n")
        rows = []
        for row in self.gen:
            new = [0] * self.n
            for i, x in enumerate(row):
                new[perm[i] - 1] = x
            rows.append(new)
        return LinearCode(self.spec, self.n, rows)


def parse_code(text: str) -> LinearCode:
    """Parse the matrix file format.

    First line: ``q=<int> n=<int>`` with optional ``p=<int> e=<int>``.
    Remaining lines: rows of n digits (q <= 10, no separators) or
    space-separated encodings (q > 10).
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty matrix file")
    header: dict[str, int] = {}
    for token in lines[0].split():
        if "=" not in token:
            raise ParseError(f"bad header token {token!r}")
        key, _, value = token.partition("=")
        try:
            header[key] = int(value)
        except ValueError as exc:
            raise ParseError(f"bad header value in {token!r}") from exc
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
        if q <= 10:
            digits = ln.replace(" ", "")
            if len(digits) != n:
                raise ParseError(f"row {ln!r} does not have {n} digits")
            try:
                row = [int(ch) for ch in digits]
            except ValueError as exc:
                raise ParseError(f"non-digit in row {ln!r}") from exc
        else:
            fields = ln.split()
            if len(fields) != n:
                raise ParseError(f"row {ln!r} does not have {n} entries")
            try:
                row = [int(f) for f in fields]
            except ValueError as exc:
                raise ParseError(f"non-integer in row {ln!r}") from exc
        for x in row:
            if not 0 <= x < q:
                raise FieldMismatch(f"entry {x} out of range for GF({q})")
        rows.append(row)
    return LinearCode(spec, n, rows)


def render_code(code: LinearCode) -> str:
    """Inverse of parse_code for the canonical generator."""
    head = f"q={code.spec.q} n={code.n}"
    if code.spec.e > 1:
        head += f" p={code.spec.p} e={code.spec.e}"
    lines = [head]
    for row in code.gen:
        if code.spec.q <= 10:
            lines.append("".join(str(x) for x in row))
        else:
            lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def support(vec: Sequence[int]) -> frozenset[int]:
    """1-based coordinates where the vector is nonzero."""
    return frozenset(i + 1 for i, x in enumerate(vec) if x)


def rows_support(rows: Iterable[Sequence[int]]) -> frozenset[int]:
    """Union of row supports; basis independent for a fixed row space."""
    out: set[int] = set()
    for row in rows:
        for i, x in enumerate(row):
            if x:
                out.add(i + 1)
    return frozenset(out)


def codewords(code: LinearCode, max_words: int = MAX_WORDS_DEFAULT) -> Iterator[tuple[int, ...]]:
    """All q^k codewords, in message lexicographic order (m * G)."""
    spec, k, n = code.spec, code.k, code.n
    if spec.q ** k > max_words:
        raise TooLarge(f"{spec.q}^{k} codewords exceed the guard {max_words}")
    for word in _span_words(spec, n, code.gen):
        yield tuple(word)


def _span_words(spec: FieldSpec, n: int, rows) -> Iterator[list[int]]:
    """Every GF(q)-combination of the rows, coefficients in lexicographic order."""
    scaled = [[tuple(spec.mul(a, x) for x in row) for a in range(spec.q)] for row in rows]
    for msg in product(range(spec.q), repeat=len(rows)):
        word = [0] * n
        for a, row_mult in zip(msg, scaled):
            if a:
                mult = row_mult[a]
                word = [spec.add(x, y) for x, y in zip(word, mult)]
        yield word


def _iter_rref_messages(q: int, k: int, r: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every r x k matrix in RREF over GF(q), one per r-dim subspace of GF(q)^k."""
    if r == 0:
        yield ()
        return
    for pivots in combinations(range(k), r):
        pivot_set = set(pivots)
        free = [
            (s, c)
            for s in range(r)
            for c in range(pivots[s] + 1, k)
            if c not in pivot_set
        ]
        base = [[0] * k for _ in range(r)]
        for s, p in enumerate(pivots):
            base[s][p] = 1
        if not free:
            yield tuple(tuple(row) for row in base)
            continue
        for values in product(range(q), repeat=len(free)):
            mat = [row[:] for row in base]
            for (s, c), v in zip(free, values):
                mat[s][c] = v
            yield tuple(tuple(row) for row in mat)


@dataclass(frozen=True)
class Subcode:
    """An r-dimensional subcode presented by an RREF basis inside its parent."""

    parent: LinearCode
    r: int
    basis: tuple[tuple[int, ...], ...]


def subcode_count(code: LinearCode, r: int) -> int:
    return gauss_binom(code.k, r, code.spec.q)


def subcodes(
    code: LinearCode, r: int, max_subcodes: int = MAX_SUBCODES_DEFAULT
) -> Iterator[Subcode]:
    """All r-dim subcodes, each exactly once, as RREF images of message subspaces."""
    if not 0 <= r <= code.k:
        raise ValueError(f"need 0 <= r <= k = {code.k}")
    if subcode_count(code, r) > max_subcodes:
        raise TooLarge(
            f"{subcode_count(code, r)} subcodes exceed the guard {max_subcodes}"
        )
    spec = code.spec
    for msg in _iter_rref_messages(spec.q, code.k, r):
        rows = _message_image(code, msg)
        reduced, _ = rref(spec, rows, code.n)
        yield Subcode(code, r, tuple(tuple(row) for row in reduced))


def _message_image(code: LinearCode, msg_rows) -> list[list[int]]:
    """Map message-space rows through the generator matrix."""
    spec, n = code.spec, code.n
    out = []
    for mrow in msg_rows:
        word = [0] * n
        for a, grow in zip(mrow, code.gen):
            if a:
                if a == 1:
                    word = [spec.add(x, y) for x, y in zip(word, grow)]
                else:
                    word = [
                        spec.add(x, spec.mul(a, y)) for x, y in zip(word, grow)
                    ]
        out.append(word)
    return out


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


def mask_support(mask: int) -> frozenset[int]:
    """The 1-based coordinate set of a support mask."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


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
        blocks.reverse()
    else:
        for p, lead in enumerate(gen):
            blocks.append([
                support_mask([spec.add(x, y) for x, y in zip(lead, tail)])
                for tail in _span_words(spec, n, gen[p + 1:])
            ])
    return [mask for block in blocks for mask in block]


def or_convolve(a: Counter, b: Counter, out: Counter | None = None) -> Counter:
    """Add a[x] * b[y] at x | y for every pair of masks; returns out."""
    if out is None:
        out = Counter()
    for x, cx in a.items():
        for y, cy in b.items():
            out[x | y] += cx * cy
    return out


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


def iter_subcode_supports(
    code: LinearCode, r: int, max_subcodes: int = MAX_SUBCODES_DEFAULT
) -> Iterator[frozenset[int]]:
    """Support of every r-dim subcode, with multiplicity, as 1-based sets."""
    if not 0 <= r <= code.k:
        raise ValueError(f"need 0 <= r <= k = {code.k}")
    if subcode_count(code, r) > max_subcodes:
        raise TooLarge(
            f"{subcode_count(code, r)} subcodes exceed the guard {max_subcodes}"
        )
    for msg in _iter_rref_messages(code.spec.q, code.k, r):
        yield rows_support(_message_image(code, msg))


def column_set_dim(code: LinearCode, cols: frozenset[int]) -> int:
    """dim of the subcode vanishing on the given 1-based coordinate set."""
    ordered = sorted(cols)
    sub = [[row[c - 1] for c in ordered] for row in code.gen]
    return code.k - len(rref(code.spec, sub, len(ordered))[0])


def extension_codewords(
    code: LinearCode, m: int, max_words: int = MAX_WORDS_DEFAULT
) -> Iterator[tuple[int, ...]]:
    """All q^(mk) words of the degree-m extension, as vectors over GF(q^m).

    The base field embeds as the constant polynomials, so only prime base
    fields are supported; extension invariants over GF(p^e) with e > 1 are
    reached through the C^m support histogram and the rank-decomposition
    identity instead.
    """
    if code.spec.e != 1:
        raise UnsupportedBaseField("direct extension needs a prime base field")
    if m < 1:
        raise ValueError("extension degree m must be at least 1")
    spec, k, n = code.spec, code.k, code.n
    if spec.q ** (m * k) > max_words:
        raise TooLarge(
            f"{spec.q}^{m * k} extension words exceed the guard {max_words}"
        )
    ext = field_new(spec.p, m)
    if k == 0:
        yield (0,) * n
        return
    scaled = [
        [tuple(ext.mul(a, x) for x in row) for a in range(ext.q)] for row in code.gen
    ]
    for msg in product(range(ext.q), repeat=k):
        word = [0] * n
        for a, row_mult in zip(msg, scaled):
            if a:
                mult = row_mult[a]
                word = [ext.add(x, y) for x, y in zip(word, mult)]
        yield tuple(word)
