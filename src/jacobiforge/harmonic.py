"""Discrete harmonic analysis on subsets of {1, ..., n}: harmonic
spaces, the Delsarte design criterion, Hahn polynomials, and recovery
of split-weight coefficients from weighted weight enumerators.

Subsets and blocks are int masks, bit i-1 for coordinate i, and a block
multiset is a Counter{mask: multiplicity} weight slice of a support
histogram.  A degree-d subset function assigns a rational to every
d-subset mask; the down operator sends it to the (d-1)-subset function

    (gamma f)(Y) = sum over d-sets Z containing Y of f(Z),

and the harmonic space of degree d is the kernel of gamma.  The
extension f-tilde sums f over the d-subsets of an arbitrary set.  The
Hahn polynomial

    Q_m(x; alpha, beta, N) = 3F2(-m, -x, m+alpha+beta+1; alpha+1, -N+1; 1)

is evaluated exactly as the terminating hypergeometric sum; with the
parameters (t-n-1, -t-1, t+1) it induces, for each t-set T, a harmonic
kernel whose extension depends only on (|X|, |X intersect T|), written
h_{d,t}(l, i).  Inverting the resulting per-weight linear systems turns
weighted weight enumerators back into split-weight coefficient grids.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import mul

from .bipoly import BiHomPoly
from .code import MAX_SUBCODES_DEFAULT, LinearCode, RefSet, coords_mask
from .enumerators import JacobiTable, subcode_support_histogram, table_from_bipoly
from .errors import DegreeUnderflow, PochhammerZeroDenominator
from .exactmath import QQ, RatMatrix, nullspace, rat_solve


class SubsetFn:
    """A rational-valued function on the d-subsets of {1, ..., n}, keyed by
    mask in `values`; __init__, value() and f_tilde also take coordinate sets."""

    __slots__ = ("n", "d", "values")

    def __init__(self, n: int, d: int, values: dict):
        if not 0 <= d <= n:
            raise ValueError("need 0 <= d <= n")
        vals = {}
        for key, v in values.items():
            z = _as_mask(key)
            if z.bit_count() != d or z >> n:
                raise ValueError(f"{key!r} is not a d-subset of 1..{n}")
            vals[z] = Fraction(v)
        self.n = n
        self.d = d
        self.values = vals

    def value(self, z) -> Fraction:
        return self.values.get(_as_mask(z), Fraction(0))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values.values())

    def __repr__(self):
        nonzero = sum(1 for v in self.values.values() if v)
        return f"SubsetFn(n={self.n}, d={self.d}, {nonzero} nonzero values)"


def _as_mask(z) -> int:
    return z if isinstance(z, int) else coords_mask(z)


def _subset_masks(mask: int, d: int):
    """The d-subsets of a mask's points, as masks, in lexicographic order."""
    bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
    return map(sum, combinations(bits, d))


def gamma(f: SubsetFn) -> SubsetFn:
    """Down operator: (gamma f)(Y) = sum of f over the d-sets containing Y."""
    if f.d == 0:
        raise DegreeUnderflow("gamma needs degree at least 1")
    full = (1 << f.n) - 1
    out: dict[int, Fraction] = {}
    for y in _subset_masks(full, f.d - 1):
        above = (y | extra for extra in _subset_masks(full ^ y, 1))
        out[y] = sum((f.values.get(z, 0) for z in above), Fraction(0))
    return SubsetFn(f.n, f.d - 1, out)


class HarmonicFn(SubsetFn):
    """A SubsetFn in the kernel of gamma, verified at construction."""

    def __init__(self, n: int, d: int, values: dict):
        super().__init__(n, d, values)
        if d >= 1 and not gamma(self).is_zero():
            raise ValueError("function is not harmonic")


@lru_cache(maxsize=64)
def harm_basis(n: int, d: int) -> tuple[SubsetFn, ...]:
    """Exact rational basis of the degree-d harmonic space.

    Computed as ``nullspace(QQ, ...)`` of the 0/1 gamma matrix, whose
    rows are the (d-1)-subsets and whose columns are the d-subsets in
    lexicographic order.  There is one basis function per free column of
    the matrix's unique RREF, so the basis and its order are reproducible.
    Degree 0 is the one-dimensional space of constants.  The functions
    are plain SubsetFns: a nullspace vector is in the kernel of gamma by
    construction, so HarmonicFn's check would only repeat the solve.
    """
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    if d == 0:
        return (SubsetFn(n, 0, {0: Fraction(1)}),)
    full = (1 << n) - 1
    cols = list(_subset_masks(full, d))
    matrix = [[int(y & z == y) for z in cols] for y in _subset_masks(full, d - 1)]
    return tuple(
        SubsetFn(n, d, {z: v for z, v in zip(cols, vec) if v})
        for vec in nullspace(QQ, matrix, len(cols))
    )


def f_tilde(f: SubsetFn, x_set) -> Fraction:
    """Extension to arbitrary sets: sum of f over the d-subsets of X.

    Zero when |X| < d; for d = 0 it is the value at the empty set.
    """
    subsets = _subset_masks(_as_mask(x_set), f.d)
    return sum((f.values.get(z, 0) for z in subsets), Fraction(0))


def harmonic_higher_wenum(
    code: LinearCode,
    f: SubsetFn,
    r: int,
    max_subcodes: int = MAX_SUBCODES_DEFAULT,
) -> BiHomPoly:
    """Weight enumerator of the r-dim subcodes, each counted with weight
    f-tilde of its support; coefficients are exact rationals."""
    if f.n != code.n:
        raise ValueError("function and code live on different coordinate sets")
    counts = [Fraction(0)] * (code.n + 1)
    for mask, mult in subcode_support_histogram(code, r, max_subcodes).items():
        counts[mask.bit_count()] += mult * f_tilde(f, mask)
    return BiHomPoly(0, code.n, [counts])


def delsarte_design_check(blocks, t: int) -> bool:
    """Delsarte criterion: the blocks form a t-design iff the f-tilde sum
    vanishes for every harmonic basis function f of degree 1..t.

    That sum is sum_b f-tilde(b) = sum_Z f(Z) lambda_d(Z), where
    lambda_d(Z) counts the blocks containing the d-set Z.  So for each
    degree the incidence counts are taken once, adding each distinct
    block's multiplicity at its C(|b|, d) d-subset masks, and each basis
    function costs one pass over its values.
    """
    for d in range(1, t + 1):
        lam: Counter = Counter()
        for mask, mult in blocks.counts.items():
            lam.update(dict.fromkeys(_subset_masks(mask, d), mult))
        for f in harm_basis(blocks.n, d):
            if sum(v * lam[z] for z, v in f.values.items() if z in lam):
                return False
    return True


# ---------------------------------------------------------------------------
# Hahn polynomials


class HahnParams:
    """Parameters (alpha, beta, N) and degree m of a Hahn polynomial Q_m."""

    __slots__ = ("alpha", "beta", "N", "m")

    def __init__(self, alpha: Fraction, beta: Fraction, N: int, m: int):
        if not 0 <= m < N:
            raise ValueError("need 0 <= m < N")
        self.alpha = alpha
        self.beta = beta
        self.N = N
        self.m = m

    def _key(self) -> tuple:
        return (self.alpha, self.beta, self.N, self.m)

    def __eq__(self, other):
        return isinstance(other, HahnParams) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "HahnParams(alpha={!r}, beta={!r}, N={!r}, m={!r})".format(*self._key())


def hahn_eval(params: HahnParams, x: int) -> Fraction:
    """Exact value of the terminating 3F2 sum defining Q_m(x; alpha, beta, N)."""
    alpha, beta, N, m = params.alpha, params.beta, params.N, params.m
    total = Fraction(1)
    term = Fraction(1)
    for i in range(1, m + 1):
        d1 = alpha + 1 + (i - 1)
        d2 = Fraction(-N + 1 + (i - 1))
        if d1 == 0 or d2 == 0:
            raise PochhammerZeroDenominator(
                f"denominator Pochhammer vanished at step {i}"
            )
        num = Fraction(-m + (i - 1)) * Fraction(-x + (i - 1)) * (
            m + alpha + beta + 1 + (i - 1)
        )
        term = term * num / (d1 * d2 * i)
        total += term
    return total


@lru_cache(maxsize=4096)
def _hahn_qdt(n: int, t: int, d: int, x: int) -> Fraction:
    """Q_d^t(x) with the (t-n-1, -t-1, t+1) parameterization."""
    params = HahnParams(Fraction(t - n - 1), Fraction(-t - 1), t + 1, d)
    return hahn_eval(params, x)


def hahn_kernel_fn(n: int, t: int, d: int, tset: RefSet) -> SubsetFn:
    """The degree-t subset function Z -> Q_d^t(t - |Z meets T|) for a t-set T."""
    if tset.size != t:
        raise ValueError("T must be a t-set")
    tmask = tset.mask
    values = {
        z: _hahn_qdt(n, t, d, t - (z & tmask).bit_count())
        for z in _subset_masks((1 << n) - 1, t)
    }
    return SubsetFn(n, t, values)


def _comb0(a: int, b: int) -> int:
    if b < 0 or a < 0 or b > a:
        return 0
    return comb(a, b)


@lru_cache(maxsize=65536)
def h_dt(n: int, t: int, d: int, ell: int, i: int) -> Fraction:
    """Extension of the Hahn kernel: its value on any set X depends only on
    l = |X| and i = |X meets T|, computed by the quintuple-binomial sum.

    An empty constraint set yields 0.
    """
    lam = comb(n - 2 * d, t - d)
    total = Fraction(0)
    for i1 in range(0, i + 1):
        for i2 in range(0, t - i + 1):
            for i3 in range(0, ell - i + 1):
                if i1 + i2 + i3 > t or i1 + i3 < d:
                    continue
                v = (
                    _comb0(i, i1)
                    * _comb0(t - i, i2)
                    * _comb0(ell - i, i3)
                    * _comb0(n - ell - t + i, t - i1 - i2 - i3)
                    * _comb0(i1 + i3, d)
                )
                if v:
                    total += v * _hahn_qdt(n, t, d, t - i1 - i2)
    return total / lam


# ---------------------------------------------------------------------------
# coefficient recovery


def recover_jacobi(
    code: LinearCode,
    r: int,
    tset: RefSet,
    max_subcodes: int = MAX_SUBCODES_DEFAULT,
) -> JacobiTable:
    """Recover the rank-r split-weight grid from weighted weight statistics.

    For each total weight l the unknowns n_{l,i} (i = the T-weight) satisfy
    one mass equation (their sum is the rank-r weight count at l) and one
    equation per kernel degree d whose coefficients are h_{d,t}(l, i); the
    right-hand side is the corresponding Hahn-weighted enumerator
    coefficient, which vanishes exactly when the support shells are
    t-designs.  Columns that are structurally impossible (i > l, or
    l - i exceeding the complement size) are eliminated before solving, and
    the system uses as many kernel rows as there are surviving unknowns.
    A singular reduced system is surfaced, not suppressed.

    The right-hand side is read from the same T-split counts n_{l,i} that
    the system solves for, so the solve returns them whatever h_{d,t} is:
    this route is not yet independent of direct enumeration (ROADMAP
    item 3).  The solutions become a table through ``table_from_bipoly``.
    """
    t = tset.size
    if tset.n != code.n:
        raise ValueError("reference set length does not match the code")
    if 2 * t > code.n:
        raise ValueError("need |T| <= n/2 for the Hahn parameterization")
    n = code.n
    stats: dict[tuple[int, int], int] = {}
    tmask = tset.mask
    for mask, mult in subcode_support_histogram(code, r, max_subcodes).items():
        key = (mask.bit_count(), (mask & tmask).bit_count())
        stats[key] = stats.get(key, 0) + mult
    terms = {}
    for ell in range(n + 1):
        feasible = [
            i for i in range(t + 1) if i <= ell and ell - i <= n - t
        ]
        counts = [stats.get((ell, i), 0) for i in feasible]
        rows: list[list[Fraction]] = [[Fraction(1)] * len(feasible)]
        rhs: list[Fraction] = [Fraction(sum(counts))]
        for d in range(1, len(feasible)):
            row = [h_dt(n, t, d, ell, i) for i in feasible]
            rows.append(row)
            rhs.append(sum(map(mul, row, counts), Fraction(0)))
        solution = rat_solve(RatMatrix(rows), rhs)
        terms.update(((i, ell - i), val) for i, val in zip(feasible, solution))
    poly = BiHomPoly.from_terms(t, n - t, terms)
    return table_from_bipoly("higher", r, code.spec.q, n, tset, poly)
