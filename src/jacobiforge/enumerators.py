"""Split-weight enumerators of codes, their subcode and extension
refinements, and the exact identities connecting them.

The central object is the coefficient grid A[i][j] counting objects
(codewords, r-dim subcodes, or extension words) whose support meets the
complement of a reference set T in i places and T itself in j places.
Three independent computation routes exist for each grid:

  * direct enumeration of the objects being counted;
  * a vanishing-dimension sweep: for every coordinate subset U, the
    dimension of the subcode vanishing on U determines how many objects
    avoid U, and an inclusion-exclusion expansion (Moebius inversion on
    the subset lattice) recovers the grid: one substitution of the
    integer map (0, 1, 1, -1) into the grid of those counts;
  * rank decomposition: the extension table polynomial for degree m is
    the bracket-weighted sum of the subcode table polynomials, and
    inverting that triangular relation recovers subcode tables from
    extension tables.

All routes must agree exactly; the test suite enforces it.

The guarded routes read their guards from a ``code.Run``, and the rank
decomposition reads each rank-r table through its memo, so a run that
holds a table already, as ``verify``'s does, splits no histogram twice.

Every route computes an exact polynomial and reads its table off it
with ``table_from_bipoly``, the one integrality check: a fractional
entry raises NonIntegerResult, naming the first such entry.  Every
substitution is by an integer map, so an integral grid is expanded in
ints; Fractions enter only where a grid entry is fractional.  The counted
routes write theirs straight from a support histogram (``_split_counts``).

Direct enumeration never materialises the objects: codewords, subcodes
and extension words are reduced to a cached Counter{support mask:
multiplicity} (see ``code``), and every table is read off that histogram
with popcount(mask & tmask) for the T-weight and popcount(mask) for the
total weight.

The sweep takes the vanishing dimensions of all 2^n subsets at once:
k minus the rank of the columns in U, i.e. the matroid rank function of
the code (Greene 1976).  A DFS over subsets carries the columns not yet
added, already reduced against the pivots of the columns chosen so far,
as int bitmasks over GF(2) and field-table tuples otherwise, and keeps
one byte per subset.  It reads only the generator's columns, while the
direct route reads only the codeword histogram.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .bipoly import BiHomPoly
from .code import (
    LinearCode,
    RefSet,
    Run,
    monic_masks,
    or_power,
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
    tset: RefSet
    grid: tuple[tuple[int, ...], ...]

    def mass(self) -> int:
        return sum(sum(row) for row in self.grid)

    def to_bipoly(self) -> BiHomPoly:
        s = self.tset.size
        return BiHomPoly(s, self.tset.n - s, list(zip(*self.grid)))

    def render(self) -> str:
        return self.to_bipoly().render()

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "q": self.q,
            "n": self.tset.n,
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


def table_from_bipoly(kind, param, q, tset: RefSet, poly: BiHomPoly) -> JacobiTable:
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
    return JacobiTable(kind=kind, param=param, q=q, tset=tset, grid=grid)


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
    return or_power(_codeword_supports(code), code.n, m)


def codeword_support_histogram(code: LinearCode, run: Run | None = None) -> Counter:
    if code.spec.q ** code.k > (run or Run()).max_words:
        raise TooLarge(f"{code.spec.q}^{code.k} codewords exceed the guard")
    return _codeword_supports(code)


def subcode_support_histogram(code: LinearCode, r: int, run: Run | None = None) -> Counter:
    if not 0 <= r <= code.k:
        raise ValueError(f"need 0 <= r <= k = {code.k}")
    max_subcodes = (run or Run()).max_subcodes
    if subcode_count(code, r) > max_subcodes:
        raise TooLarge(f"rank-{r} subcodes exceed the guard {max_subcodes}")
    return _subcode_supports(code, r)


@lru_cache(maxsize=64)
def _vanishing_dims(code: LinearCode) -> bytes:
    """dim of the subcode vanishing on U, for every coordinate bitmask U.

    This is k minus the rank of the columns in U: the matroid rank
    function of the code, one byte per subset.  A DFS adds columns in
    increasing index order and carries the columns not yet added, reduced
    against the pivots of the columns chosen so far.  A reduced column
    that is zero lies in their span and adds no rank; a nonzero one becomes
    the next pivot and clears itself from the later columns, one
    elimination step each.  A subset whose columns span GF(q)^k has dim 0,
    and so has every superset: that subtree is never entered.

    Over GF(2) a column is a k-bit int, its pivot the lowest set bit and
    the step an XOR.  Otherwise it is a k-tuple over the field tables, its
    pivot the first nonzero entry, and a column that reduces to zero is
    stored as the empty tuple, so that either way a zero column is falsy.
    """
    n, k = code.n, code.k
    if n > _ELL_SWEEP_CAP:
        raise TooLarge(f"vanishing-dimension sweep needs n <= {_ELL_SWEEP_CAP}")
    dims = bytearray(1 << n)
    if k == 0:
        return bytes(dims)
    spec, gen = code.spec, code.gen
    if spec.q == 2:
        cols = [sum(row[c] << s for s, row in enumerate(gen)) for c in range(n)]

        def clear(v, rest):
            low = v & -v
            return [w ^ v if w & low else w for w in rest]
    else:
        add, mul, neg, inv = spec.add, spec.mul, spec.neg, spec.inv
        cols = [col if any(col) else () for col in zip(*gen)]

        def clear(v, rest):
            p = next(i for i, x in enumerate(v) if x)
            scale = neg(inv(v[p]))
            steps = {}  # w[p]: the multiple of v that clears it
            out = []
            for w in rest:
                if w and (a := w[p]):
                    if a not in steps:
                        c = mul(scale, a)
                        steps[a] = tuple(mul(c, x) for x in v)
                    w = tuple(map(add, w, steps[a]))
                    if not any(w):
                        w = ()
                out.append(w)
            return out

    dims[0] = k

    def extend(mask: int, start: int, rest: list, rank: int) -> None:
        for i, v in enumerate(rest, start):
            child = mask | (1 << i)
            if not v:
                dims[child] = k - rank
                if i + 1 < n:
                    extend(child, i + 1, rest[i + 1 - start:], rank)
            elif rank + 1 < k:
                dims[child] = k - rank - 1
                if i + 1 < n:
                    extend(child, i + 1, clear(v, rest[i + 1 - start:]), rank + 1)

    extend(0, 0, cols, 0)
    return bytes(dims)


# ---------------------------------------------------------------------------
# direct enumerations


def weight_enum(code: LinearCode, run: Run | None = None) -> BiHomPoly:
    """Classical weight enumerator: coefficient of x^(n-i) y^i counts weight-i words."""
    return _weight_poly(code.n, codeword_support_histogram(code, run))


def higher_weight_enum(code: LinearCode, r: int, run: Run | None = None) -> BiHomPoly:
    """Coefficient of x^(n-i) y^i counts r-dim subcodes of support weight i."""
    return _weight_poly(code.n, subcode_support_histogram(code, r, run))


def _weight_poly(n: int, hist: Counter) -> BiHomPoly:
    counts = [0] * (n + 1)
    for mask, mult in hist.items():
        counts[mask.bit_count()] += mult
    return BiHomPoly(0, n, [counts])


def _split_counts(hist: Counter, tset: RefSet) -> BiHomPoly:
    """Split-weight polynomial of a support histogram: a mask of T-weight j
    and complement weight i adds its multiplicity at coeff[j][i]."""
    s, tmask = tset.size, tset.mask
    coeff = [[0] * (tset.n - s + 1) for _ in range(s + 1)]
    for mask, mult in hist.items():
        j = (mask & tmask).bit_count()
        coeff[j][mask.bit_count() - j] += mult
    return BiHomPoly(s, tset.n - s, coeff)


def jacobi(code: LinearCode, tset: RefSet, run: Run | None = None) -> JacobiTable:
    """Codeword split-weight table relative to T; T empty gives the weight enumerator."""
    _check_tset(code, tset)
    poly = _split_counts(codeword_support_histogram(code, run), tset)
    return table_from_bipoly("plain", None, code.spec.q, tset, poly)


def higher_jacobi(code: LinearCode, tset: RefSet, r: int, run: Run | None = None) -> JacobiTable:
    """Subcode split-weight table: grid[i][j] counts r-dim subcodes with
    complement-weight i and T-weight j."""
    _check_tset(code, tset)
    poly = _split_counts(subcode_support_histogram(code, r, run), tset)
    return table_from_bipoly("higher", r, code.spec.q, tset, poly)


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
    splits = _dims_by_split(code, tset.mask)  # its n <= 20 guard before any weight
    by_dim = [weight_of_dim(d) for d in range(code.k + 1)]
    grid = [[0] * (tsize + 1) for _ in range(code.n - tsize + 1)]
    for (s, t, dim), count in splits.items():
        grid[s][t] += count * by_dim[dim]
    return grid


_FROM_Q = (0, 1, 1, -1)  # u^(deg-j) v^j -> v^(deg-j) (u - v)^j


def _assemble_from_q(code, tset: RefSet, qgrid) -> BiHomPoly:
    """Expand sum_{s,t} Q[s][t] (w-z)^t z^(|T|-t) (x-y)^s y^(n-|T|-s): the
    transposed Q-grid substituted by (u, v) -> (v, u - v)."""
    return BiHomPoly(tset.size, code.n - tset.size, zip(*qgrid)).substitute(_FROM_Q)


def higher_jacobi_via_q(code: LinearCode, tset: RefSet, r: int) -> JacobiTable:
    """Subcode split-weight table recovered from vanishing dimensions alone."""
    _check_tset(code, tset)
    q = code.spec.q
    qgrid = _q_grid(code, tset, lambda d: gauss_binom(d, r, q))
    poly = _assemble_from_q(code, tset, qgrid)
    return table_from_bipoly("higher", r, q, tset, poly)


def extended_jacobi_via_q(code: LinearCode, tset: RefSet, m: int) -> JacobiTable:
    """Extension split-weight table recovered from vanishing dimensions alone.

    m = 0 gives the degenerate single-word table; ``higher_from_extended``
    writes that term out itself, so it does not call this with m = 0.
    """
    _check_tset(code, tset)
    qm = code.spec.q ** m
    qgrid = _q_grid(code, tset, lambda d: qm ** d)
    poly = _assemble_from_q(code, tset, qgrid)
    return table_from_bipoly("extended", m, code.spec.q, tset, poly)


# ---------------------------------------------------------------------------
# extension tables and the rank-decomposition correspondence


def extended_jacobi_direct(
    code: LinearCode, tset: RefSet, m: int, run: Run | None = None
) -> JacobiTable:
    """Extension table counted over the q^(mk) extension words: C (x)
    GF(q^m) is C^m as a GF(q)-space, so each word is an m-tuple of
    codewords and its support is their union.  The words are counted by
    support, as the m-fold OR-power of the codeword histogram, not one by
    one.  This holds over any base field GF(p^e)."""
    _check_tset(code, tset)
    if m < 1:
        raise ValueError("extension degree m must be at least 1")
    if code.spec.q ** (m * code.k) > (run or Run()).max_words:
        raise TooLarge(f"{code.spec.q}^{m * code.k} extension words exceed the guard")
    poly = _split_counts(_extension_supports(code, m), tset)
    return table_from_bipoly("extended", m, code.spec.q, tset, poly)


def extended_jacobi(code: LinearCode, tset: RefSet, m: int, run: Run | None = None) -> JacobiTable:
    """Extension table via rank decomposition: the degree-m polynomial is
    sum_r [m,r]_q times the r-subcode table polynomial, each read through
    the run, which may hold it already.  The ranks with [m,r]_q = 0 (r > m)
    are skipped, so no table above rank m is built."""
    _check_tset(code, tset)
    if m < 1:
        raise ValueError("extension degree m must be at least 1")
    q, run = code.spec.q, run or Run()
    poly = BiHomPoly.zero(tset.size, code.n - tset.size)
    for r in range(code.k + 1):
        factor = qfact(m, r, q)
        if factor:
            poly += run.shared(higher_jacobi, code, tset, r, run).to_bipoly().scale(factor)
    return table_from_bipoly("extended", m, q, tset, poly)


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
    return table_from_bipoly("higher", r, q, tset, poly)
