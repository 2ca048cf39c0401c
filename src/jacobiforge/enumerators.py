"""Split-weight enumerators of codes, their subcode and extension
refinements, and the exact identities connecting them.

The central object is the coefficient grid A[i][j] counting objects
(codewords, r-dim subcodes, or extension words) whose support meets the
complement of a reference set T in i places and T itself in j places.
Three independent computation routes exist for each grid:

  * direct enumeration of the objects being counted;
  * a vanishing-dimension sweep: for every coordinate subset U, the
    dimension of the subcode vanishing on U determines how many objects
    avoid U, and an inclusion-exclusion expansion recovers the grid;
  * rank decomposition: the extension table polynomial for degree m is
    the bracket-weighted sum of the subcode table polynomials, and
    inverting that triangular relation recovers subcode tables from
    extension tables.

All routes must agree exactly; the test suite enforces it.

Counted routes build their tables from Counter{(i, j): count}.  Every
route that computes an exact polynomial instead (rank decomposition,
the sweep, the duality transforms, harmonic recovery) reads its table
off it with ``table_from_bipoly``, the one integrality check: a
fractional entry raises NonIntegerResult, naming the first such entry.

Direct enumeration never materialises the objects: codewords, subcodes
and extension words are reduced to a cached Counter{support mask:
multiplicity} (see ``code``), and every table is read off that histogram
with popcount(mask & tmask) for the T-weight and popcount(mask) for the
total weight.

The sweep takes the vanishing dimensions of all 2^n subsets at once:
k minus the rank of the columns in U, i.e. the matroid rank function of
the code (Greene 1976).  A DFS over subsets extends an echelon basis by
one column at a time, in int bitmasks over GF(2) and field-table tuples
otherwise, and keeps one byte per subset.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .bipoly import BiHomPoly, PairSubstitution
from .code import (
    MAX_SUBCODES_DEFAULT,
    MAX_WORDS_DEFAULT,
    LinearCode,
    RefSet,
    monic_masks,
    or_convolve,
    subcode_count,
    subcode_histogram,
)
from .errors import NonIntegerResult, TooLarge
from .qcomb import gauss_binom, qbracket, qfact

_ELL_SWEEP_CAP = 20  # 2^n column subsets; desk scale


class JacobiTable(NamedTuple):
    """Coefficient grid of a split-weight enumerator relative to a set T.

    grid[i][j] counts objects with complement-weight i and T-weight j;
    kind is "plain" (codewords), "higher" (r-dim subcodes, param = r) or
    "extended" (degree-m extension words, param = m).
    """

    kind: str
    param: int | None
    q: int
    n: int
    tset: RefSet
    grid: tuple[tuple[int, ...], ...]

    def mass(self) -> int:
        return sum(sum(row) for row in self.grid)

    def tsize(self) -> int:
        return self.tset.size

    def to_bipoly(self) -> BiHomPoly:
        s = self.tsize()
        return BiHomPoly(s, self.n - s, list(zip(*self.grid)))

    def render(self) -> str:
        return self.to_bipoly().render()

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "q": self.q,
            "n": self.n,
            "T": list(self.tset.sorted()),
            "grid": [list(row) for row in self.grid],
        }
        if self.kind == "higher":
            out["r"] = self.param
        elif self.kind == "extended":
            out["m"] = self.param
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "JacobiTable":
        kind = data["kind"]
        param = data.get("r") if kind == "higher" else data.get("m")
        return cls(
            kind=kind,
            param=param,
            q=data["q"],
            n=data["n"],
            tset=RefSet.of(data["n"], data["T"]),
            grid=tuple(tuple(int(x) for x in row) for row in data["grid"]),
        )

    def first_difference(self, other: "JacobiTable"):
        """(i, j, self value, other value) of the first differing entry, or None."""
        for i, (r1, r2) in enumerate(zip(self.grid, other.grid)):
            for j, (a, b) in enumerate(zip(r1, r2)):
                if a != b:
                    return (i, j, a, b)
        return None


def _table_from_counts(kind, param, code, tset, counts) -> JacobiTable:
    rows = code.n - tset.size + 1
    cols = tset.size + 1
    grid = [[0] * cols for _ in range(rows)]
    for (i, j), c in counts.items():
        grid[i][j] += c
    return JacobiTable(
        kind=kind,
        param=param,
        q=code.spec.q,
        n=code.n,
        tset=tset,
        grid=tuple(tuple(r) for r in grid),
    )


def table_from_bipoly(
    kind, param, q, n, tset: RefSet, poly: BiHomPoly
) -> JacobiTable:
    """Read the coefficient grid off a polynomial: grid[i][j] is the
    coefficient of w^(|T|-j) z^j x^(n-|T|-i) y^i.

    This is how every exact computation becomes a table, and the one
    integrality check: the first fractional entry in grid order raises
    NonIntegerResult, which always signals a bug in some route.
    """
    grid = tuple(zip(*poly.coeff))
    for i, row in enumerate(grid):
        for j, v in enumerate(row):
            if v.denominator != 1:
                raise NonIntegerResult(f"entry ({i},{j}) = {v} is not an integer")
    return JacobiTable(kind=kind, param=param, q=q, n=n, tset=tset, grid=grid)


# ---------------------------------------------------------------------------
# cached raw enumerations


@lru_cache(maxsize=64)
def _monic_masks(code: LinearCode) -> list[int]:
    return monic_masks(code)


@lru_cache(maxsize=64)
def _codeword_supports(code: LinearCode) -> Counter:
    """The zero word, and q - 1 nonzero multiples of every monic message."""
    hist = Counter({0: 1})
    for mask in _monic_masks(code):
        hist[mask] += code.spec.q - 1
    return hist


@lru_cache(maxsize=128)
def _subcode_supports(code: LinearCode, r: int) -> Counter:
    masks = _monic_masks(code) if 0 < r < code.k else ()
    return subcode_histogram(code, r, masks)


@lru_cache(maxsize=64)
def _extension_supports(code: LinearCode, m: int) -> Counter:
    """Degree-m extension words as m-tuples of codewords: the m-fold
    OR-convolution of the codeword histogram."""
    words = hist = _codeword_supports(code)
    for _ in range(m - 1):
        hist = or_convolve(hist, words)
    return hist


def codeword_support_histogram(
    code: LinearCode, max_words: int = MAX_WORDS_DEFAULT
) -> Counter:
    if code.spec.q ** code.k > max_words:
        raise TooLarge(f"{code.spec.q}^{code.k} codewords exceed the guard")
    return _codeword_supports(code)


def subcode_support_histogram(
    code: LinearCode, r: int, max_subcodes: int = MAX_SUBCODES_DEFAULT
) -> Counter:
    if not 0 <= r <= code.k:
        raise ValueError(f"need 0 <= r <= k = {code.k}")
    if subcode_count(code, r) > max_subcodes:
        raise TooLarge(f"{subcode_count(code, r)} subcodes exceed the guard")
    return _subcode_supports(code, r)


@lru_cache(maxsize=64)
def _vanishing_dims(code: LinearCode) -> bytes:
    """dim of the subcode vanishing on U, for every coordinate bitmask U.

    This is k minus the rank of the columns in U: the matroid rank
    function of the code, one byte per subset.  A DFS adds columns in
    increasing index order and carries an echelon basis of the columns
    chosen so far, so each subset costs one column reduction against at
    most k basis vectors.  A subset whose columns span GF(q)^k has dim 0,
    and so has every superset: that subtree is never entered.
    """
    n, k = code.n, code.k
    if n > _ELL_SWEEP_CAP:
        raise TooLarge(f"vanishing-dimension sweep needs n <= {_ELL_SWEEP_CAP}")
    dims = bytearray(1 << n)
    if k == 0:
        return bytes(dims)
    cols, reduce = _column_elimination(code)
    dims[0] = k

    def extend(mask: int, start: int, basis: list) -> None:
        rank = len(basis)
        for c in range(start, n):
            child = mask | (1 << c)
            pivot = reduce(cols[c], basis)
            if pivot is None:
                dims[child] = k - rank
                if c + 1 < n:
                    extend(child, c + 1, basis)
            elif rank + 1 < k:
                dims[child] = k - rank - 1
                if c + 1 < n:
                    extend(child, c + 1, basis + [pivot])

    extend(0, 0, [])
    return bytes(dims)


def _column_elimination(code: LinearCode):
    """The generator's columns, and reduce(v, basis): the (pivot, vector)
    that column v adds to an echelon basis, or None when v lies in its span.

    Every basis vector is zero at the pivots of the vectors before it, so
    one pass in insertion order clears all pivots.  Over GF(2) a column is
    a k-bit int and its pivot the lowest set bit; otherwise it is a k-tuple,
    its pivot the index of the first nonzero entry, and the new vector is
    scaled so that entry is 1.
    """
    spec, gen = code.spec, code.gen
    if spec.q == 2:
        def reduce(v, basis):
            for piv, b in basis:
                if v & piv:
                    v ^= b
            return (v & -v, v) if v else None

        cols = [sum(row[c] << s for s, row in enumerate(gen)) for c in range(code.n)]
        return cols, reduce

    add, mul, neg, inv = spec.add, spec.mul, spec.neg, spec.inv

    def reduce(v, basis):
        for p, b in basis:
            a = v[p]
            if a:
                a = neg(a)
                v = tuple(add(x, mul(a, y)) for x, y in zip(v, b))
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return None
        a = inv(v[p])
        return p, tuple(mul(a, x) for x in v)

    return list(zip(*gen)), reduce


# ---------------------------------------------------------------------------
# direct enumerations


def weight_enum(code: LinearCode, max_words: int = MAX_WORDS_DEFAULT) -> BiHomPoly:
    """Classical weight enumerator: coefficient of x^(n-i) y^i counts weight-i words."""
    return _weight_poly(code.n, codeword_support_histogram(code, max_words))


def higher_weight_enum(
    code: LinearCode, r: int, max_subcodes: int = MAX_SUBCODES_DEFAULT
) -> BiHomPoly:
    """Coefficient of x^(n-i) y^i counts r-dim subcodes of support weight i."""
    return _weight_poly(code.n, subcode_support_histogram(code, r, max_subcodes))


def _weight_poly(n: int, hist: Counter) -> BiHomPoly:
    counts = [0] * (n + 1)
    for mask, mult in hist.items():
        counts[mask.bit_count()] += mult
    return BiHomPoly(0, n, [counts])


def _split_counts(hist: Counter, tset: RefSet) -> Counter:
    """Counter{(complement weight, T-weight): multiplicity} of a support histogram."""
    counts: Counter = Counter()
    tmask = tset.mask
    for mask, mult in hist.items():
        j = (mask & tmask).bit_count()
        counts[(mask.bit_count() - j, j)] += mult
    return counts


def jacobi(
    code: LinearCode, tset: RefSet, max_words: int = MAX_WORDS_DEFAULT
) -> JacobiTable:
    """Codeword split-weight table relative to T; T empty gives the weight enumerator."""
    _check_tset(code, tset)
    counts = _split_counts(codeword_support_histogram(code, max_words), tset)
    return _table_from_counts("plain", None, code, tset, counts)


def higher_jacobi(
    code: LinearCode, tset: RefSet, r: int, max_subcodes: int = MAX_SUBCODES_DEFAULT
) -> JacobiTable:
    """Subcode split-weight table: grid[i][j] counts r-dim subcodes with
    complement-weight i and T-weight j."""
    _check_tset(code, tset)
    counts = _split_counts(subcode_support_histogram(code, r, max_subcodes), tset)
    return _table_from_counts("higher", r, code, tset, counts)


def _check_tset(code: LinearCode, tset: RefSet):
    if tset.n != code.n:
        raise ValueError("reference set length does not match the code")


# ---------------------------------------------------------------------------
# vanishing-dimension route


@lru_cache(maxsize=128)
def _dims_by_split(code: LinearCode, tmask: int) -> Counter:
    """Counter{(|U - T|, |U & T|, dim): subsets U} of the vanishing dims."""
    outside = ~tmask
    return Counter(
        ((mask & outside).bit_count(), (mask & tmask).bit_count(), dim)
        for mask, dim in enumerate(_vanishing_dims(code))
    )


def _q_grid(code: LinearCode, tset: RefSet, weight_of_dim) -> list[list[int]]:
    """Q[s][t]: weight_of_dim summed over the subsets U with |U - T| = s
    and |U & T| = t, read off the dims grouped once per T."""
    tsize = tset.size
    by_dim = [weight_of_dim(d) for d in range(code.k + 1)]
    grid = [[0] * (tsize + 1) for _ in range(code.n - tsize + 1)]
    for (s, t, dim), count in _dims_by_split(code, tset.mask).items():
        grid[s][t] += count * by_dim[dim]
    return grid


_FROM_Q = PairSubstitution.both(1, -1, 0, 1)  # u^(deg-j) v^j -> (u - v)^(deg-j) v^j


def _assemble_from_q(code, tset: RefSet, qgrid) -> BiHomPoly:
    """Expand sum_{s,t} Q[s][t] (w-z)^t z^(|T|-t) (x-y)^s y^(n-|T|-s): the
    Q-grid, both indices flipped, substituted by (u, v) -> (u - v, v)."""
    flipped = [[row[t] for row in reversed(qgrid)] for t in reversed(range(tset.size + 1))]
    return BiHomPoly(tset.size, code.n - tset.size, flipped).substitute(_FROM_Q)


def higher_jacobi_via_q(code: LinearCode, tset: RefSet, r: int) -> JacobiTable:
    """Subcode split-weight table recovered from vanishing dimensions alone."""
    _check_tset(code, tset)
    q = code.spec.q
    qgrid = _q_grid(code, tset, lambda d: gauss_binom(d, r, q))
    poly = _assemble_from_q(code, tset, qgrid)
    return table_from_bipoly("higher", r, q, code.n, tset, poly)


def extended_jacobi_via_q(code: LinearCode, tset: RefSet, m: int) -> JacobiTable:
    """Extension split-weight table recovered from vanishing dimensions alone.

    m = 0 gives the degenerate single-word table; ``higher_from_extended``
    writes that term out itself, so it does not call this with m = 0.
    """
    _check_tset(code, tset)
    qm = code.spec.q ** m
    qgrid = _q_grid(code, tset, lambda d: qm ** d)
    poly = _assemble_from_q(code, tset, qgrid)
    return table_from_bipoly("extended", m, code.spec.q, code.n, tset, poly)


# ---------------------------------------------------------------------------
# extension tables and the rank-decomposition correspondence


def extended_jacobi_direct(
    code: LinearCode, tset: RefSet, m: int, max_words: int = MAX_WORDS_DEFAULT
) -> JacobiTable:
    """Extension table counted word by word: C (x) GF(q^m) is C^m as a
    GF(q)-space, so each of the q^(mk) extension words is an m-tuple of
    codewords and its support is their union.  This holds over any base
    field GF(p^e)."""
    _check_tset(code, tset)
    if m < 1:
        raise ValueError("extension degree m must be at least 1")
    if code.spec.q ** (m * code.k) > max_words:
        raise TooLarge(f"{code.spec.q}^{m * code.k} extension words exceed the guard")
    counts = _split_counts(_extension_supports(code, m), tset)
    return _table_from_counts("extended", m, code, tset, counts)


def extended_jacobi(
    code: LinearCode,
    tset: RefSet,
    m: int,
    max_subcodes: int = MAX_SUBCODES_DEFAULT,
) -> JacobiTable:
    """Extension table via rank decomposition: the degree-m polynomial is
    sum_r [m,r]_q times the r-subcode table polynomial.  The ranks with
    [m,r]_q = 0 (r > m) are skipped, so no table above rank m is built."""
    _check_tset(code, tset)
    if m < 1:
        raise ValueError("extension degree m must be at least 1")
    q = code.spec.q
    poly = BiHomPoly.zero(tset.size, code.n - tset.size)
    for r in range(code.k + 1):
        factor = qfact(m, r, q)
        if factor:
            poly += higher_jacobi(code, tset, r, max_subcodes).to_bipoly().scale(factor)
    return table_from_bipoly("extended", m, q, code.n, tset, poly)


def higher_from_extended(code: LinearCode, tset: RefSet, r: int) -> JacobiTable:
    """Invert the rank decomposition: recover the r-subcode polynomial as
    an alternating q-binomial combination of the extension polynomials of
    degree 0..r, divided by [r]_q.

    The degree-0 term is the single-word polynomial w^|T| x^(n-|T|),
    written out here; degrees 1..r come from the vanishing-dimension route.
    """
    _check_tset(code, tset)
    if not 0 <= r <= code.k:
        raise ValueError(f"need 0 <= r <= k = {code.k}")
    q = code.spec.q

    def coeff(j: int) -> int:
        return gauss_binom(r, j, q) * (-1) ** (r - j) * q ** comb(r - j, 2)

    poly = BiHomPoly.from_terms(tset.size, code.n - tset.size, {(0, 0): coeff(0)})
    for j in range(1, r + 1):
        poly += extended_jacobi_via_q(code, tset, j).to_bipoly().scale(coeff(j))
    poly = poly.scale(Fraction(1, qbracket(r, q)))
    return table_from_bipoly("higher", r, q, code.n, tset, poly)
