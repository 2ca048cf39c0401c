"""Discrete harmonic analysis on subsets of {1, ..., n}: harmonic
spaces, the Delsarte design criterion, Hahn polynomials, and recovery
of split-weight coefficients from weighted weight enumerators.

A degree-d subset function assigns a rational to every d-subset; the
down operator sends it to the (d-1)-subset function

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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from .bipoly import BiHomPoly
from .code import MAX_SUBCODES_DEFAULT, LinearCode, RefSet, mask_support
from .enumerators import JacobiTable, subcode_support_histogram
from .errors import (
    DegreeUnderflow,
    NonIntegerResult,
    PochhammerZeroDenominator,
)
from .exactmath import RatMatrix, rat_solve


class SubsetFn:
    """A rational-valued function on the d-subsets of {1, ..., n}."""

    __slots__ = ("n", "d", "values")

    def __init__(self, n: int, d: int, values: dict):
        if not 0 <= d <= n:
            raise ValueError("need 0 <= d <= n")
        vals = {}
        for key, v in values.items():
            z = frozenset(key)
            if len(z) != d or not all(1 <= i <= n for i in z):
                raise ValueError(f"{sorted(z)} is not a d-subset of 1..{n}")
            vals[z] = Fraction(v)
        self.n = n
        self.d = d
        self.values = vals

    def value(self, z) -> Fraction:
        return self.values.get(frozenset(z), Fraction(0))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values.values())

    def __repr__(self):
        nonzero = sum(1 for v in self.values.values() if v)
        return f"SubsetFn(n={self.n}, d={self.d}, {nonzero} nonzero values)"


def gamma(f: SubsetFn) -> SubsetFn:
    """Down operator: (gamma f)(Y) = sum of f over the d-sets containing Y."""
    if f.d == 0:
        raise DegreeUnderflow("gamma needs degree at least 1")
    out: dict[frozenset[int], Fraction] = {}
    universe = range(1, f.n + 1)
    for y in combinations(universe, f.d - 1):
        yset = frozenset(y)
        total = Fraction(0)
        for extra in universe:
            if extra not in yset:
                total += f.value(yset | {extra})
        out[yset] = total
    return SubsetFn(f.n, f.d - 1, out)


class HarmonicFn(SubsetFn):
    """A SubsetFn in the kernel of gamma, verified at construction."""

    def __init__(self, n: int, d: int, values: dict):
        super().__init__(n, d, values)
        if d >= 1 and not gamma(self).is_zero():
            raise ValueError("function is not harmonic")


@lru_cache(maxsize=64)
def harm_basis(n: int, d: int) -> tuple[HarmonicFn, ...]:
    """Exact rational basis of the degree-d harmonic space.

    Computed as the nullspace of the gamma matrix with deterministic
    pivot order, so the basis is reproducible.  Degree 0 is the
    one-dimensional space of constants.
    """
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    if d == 0:
        return (HarmonicFn(n, 0, {frozenset(): Fraction(1)}),)
    cols = list(combinations(range(1, n + 1), d))
    rows = list(combinations(range(1, n + 1), d - 1))
    col_index = {frozenset(c): idx for idx, c in enumerate(cols)}
    matrix = [[Fraction(0)] * len(cols) for _ in rows]
    for ridx, y in enumerate(rows):
        yset = frozenset(y)
        for extra in range(1, n + 1):
            if extra not in yset:
                matrix[ridx][col_index[yset | {extra}]] = Fraction(1)
    basis_vectors = _nullspace(matrix)
    out = []
    for vec in basis_vectors:
        values = {frozenset(c): vec[idx] for idx, c in enumerate(cols) if vec[idx]}
        out.append(HarmonicFn(n, d, values))
    return tuple(out)


def _nullspace(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the nullspace via exact RREF; one vector per free column."""
    m = [row[:] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    piv = 0
    for col in range(ncols):
        if piv >= nrows:
            break
        sel = next((r for r in range(piv, nrows) if m[r][col] != 0), None)
        if sel is None:
            continue
        m[piv], m[sel] = m[sel], m[piv]
        inv = 1 / m[piv][col]
        m[piv] = [x * inv for x in m[piv]]
        for r in range(nrows):
            if r != piv and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[piv])]
        pivots.append(col)
        piv += 1
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for ridx, p in enumerate(pivots):
            vec[p] = -m[ridx][f]
        basis.append(vec)
    return basis


def f_tilde(f: SubsetFn, x_set) -> Fraction:
    """Extension to arbitrary sets: sum of f over the d-subsets of X.

    Zero when |X| < d; for d = 0 it is the value at the empty set.
    """
    xs = sorted(frozenset(x_set))
    if len(xs) < f.d:
        return Fraction(0)
    total = Fraction(0)
    for z in combinations(xs, f.d):
        total += f.value(z)
    return total


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
        counts[mask.bit_count()] += mult * f_tilde(f, mask_support(mask))
    return BiHomPoly(0, code.n, [counts])


def delsarte_design_check(blocks, t: int) -> bool:
    """Delsarte criterion: the blocks form a t-design iff the f-tilde sum
    vanishes for every harmonic basis function f of degree 1..t.

    That sum is sum_b f-tilde(b) = sum_Z f(Z) lambda_d(Z), where
    lambda_d(Z) counts the blocks containing the d-set Z.  So for each
    degree the incidence counts are taken once, with sum_b C(|b|, d)
    increments, and each basis function costs one pass over its values.
    """
    for d in range(1, t + 1):
        lam = Counter(
            frozenset(z) for b in blocks.blocks for z in combinations(b, d)
        )
        for f in harm_basis(blocks.n, d):
            if sum(v * lam[z] for z, v in f.values.items() if z in lam):
                return False
    return True


# ---------------------------------------------------------------------------
# Hahn polynomials


@dataclass(frozen=True)
class HahnParams:
    alpha: Fraction
    beta: Fraction
    N: int
    m: int

    def __post_init__(self):
        if not 0 <= self.m < self.N:
            raise ValueError("need 0 <= m < N")


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
    values = {}
    for z in combinations(range(1, n + 1), t):
        zset = frozenset(z)
        values[zset] = _hahn_qdt(n, t, d, t - len(zset & tset.members))
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
    grid = [[0] * (t + 1) for _ in range(n - t + 1)]
    for ell in range(n + 1):
        feasible = [
            i for i in range(t + 1) if i <= ell and ell - i <= n - t
        ]
        u = len(feasible)
        mass = sum(stats.get((ell, i), 0) for i in range(t + 1))
        rows: list[list[Fraction]] = [[Fraction(1)] * u]
        rhs: list[Fraction] = [Fraction(mass)]
        for d in range(1, u):
            rows.append([h_dt(n, t, d, ell, i) for i in feasible])
            rhs.append(
                sum(
                    (
                        h_dt(n, t, d, ell, i) * cnt
                        for (l2, i), cnt in stats.items()
                        if l2 == ell
                    ),
                    Fraction(0),
                )
            )
        solution = rat_solve(RatMatrix(rows), rhs)
        for i, val in zip(feasible, solution):
            if val.denominator != 1:
                raise NonIntegerResult(
                    f"recovered count at (l={ell}, i={i}) is {val}"
                )
            grid[ell - i][i] = int(val)
    return JacobiTable(
        kind="higher",
        param=r,
        q=code.spec.q,
        n=n,
        tset=tset,
        grid=tuple(tuple(row) for row in grid),
    )
