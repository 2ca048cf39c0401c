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
weighted weight enumerators, read off the support shells' lambda kernel,
back into split-weight coefficient grids without reading a split count.
Each system depends only on (n, t, l), so it is inverted once per (n, t)
and a recovery is an integer mat-vec per weight.  Every harmonic basis
value is 1 or -1, so the bases and the Delsarte sums build no Fraction.
The support shells are read as ``designs.support_shells``, through the
run's memo.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, lcm
from operator import add

from . import designs
from .bipoly import BiHomPoly
from .code import LinearCode, RefSet, Run, coords_mask
from .enumerators import JacobiTable, _check_tset, table_from_bipoly
from .errors import PochhammerZeroDenominator
from .exactmath import apply_inverse, exact, rat_inverse


class SubsetFn:
    """A rational-valued function on the d-subsets of {1, ..., n}, keyed by
    mask in `values`; __init__ and f_tilde also take coordinate sets."""

    __slots__ = ("n", "d", "values")

    def __init__(self, n: int, d: int, values: dict):
        if not 0 <= d <= n:
            raise ValueError("need 0 <= d <= n")
        vals = {}
        for key, v in values.items():
            z = _as_mask(key)
            if z.bit_count() != d or z >> n:
                raise ValueError(f"{key!r} is not a d-subset of 1..{n}")
            vals[z] = exact(v)
        self.n = n
        self.d = d
        self.values = vals

    def __repr__(self):
        nonzero = sum(1 for v in self.values.values() if v)
        return f"SubsetFn(n={self.n}, d={self.d}, {nonzero} nonzero values)"


def _as_mask(z) -> int:
    return z if isinstance(z, int) else coords_mask(z)


def top_sets(n: int, d: int):
    """The top sets B = {b_1 < ... < b_d}, b_i >= 2i, in lexicographic order:
    the second rows of the standard tableaux of shape (n-d, d), of which
    there are C(n, d) - C(n, d-1) (Filmus, EJC 2016), none for 2d > n."""
    for top in combinations(range(1, n + 1), d):
        if all(b >= 2 * i for i, b in enumerate(top, 1)):
            yield top


def basis_function(n: int, top) -> SubsetFn:
    """The basis function of a top set B of size d: with a_1 < ... < a_d the
    d smallest points outside B, f_B = prod_i (x_{a_i} - x_{b_i}) is
    (-1)^{|Z meets B|} on the 2^d d-sets Z with one point of each pair
    {a_i, b_i}, 0 elsewhere.  It is harmonic, as a (d-1)-set extends into
    its support by a_i and by b_i with opposite signs, and the f_B are the
    Specht polynomials of the standard tableaux, so independent (James,
    LNM 682)."""
    bottom = [a for a in range(1, n + 1) if a not in top][:len(top)]
    values = {0: 1}
    for a, b in zip(bottom, top):
        pair = ((1 << a - 1, 1), (1 << b - 1, -1))
        values = {z | bit: s * v for z, v in values.items() for bit, s in pair}
    return SubsetFn(n, len(top), values)


@lru_cache(maxsize=64)
def harm_basis(n: int, d: int) -> tuple[SubsetFn, ...]:
    """Basis of the degree-d harmonic space: one function per top set."""
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    return tuple(basis_function(n, top) for top in top_sets(n, d))


def f_tilde(f: SubsetFn, x_set) -> Fraction:
    """Extension to arbitrary sets: sum of f over the d-subsets of X.

    Zero when |X| < d; for d = 0 it is the value at the empty set.  It
    sums f at its keys inside X; ``_kernel_sum`` takes it over a whole
    shell at once.
    """
    x = _as_mask(x_set)
    return sum((v for z, v in f.values.items() if z & x == z), Fraction(0))


def harmonic_higher_wenum(
    code: LinearCode, f: SubsetFn, r: int, run: Run | None = None
) -> BiHomPoly:
    """Weight enumerator of the r-dim subcodes, each counted with weight
    f-tilde of its support: at weight w, the lambda kernel sum of the
    weight-w shell (see ``delsarte_design_check``), an exact rational."""
    if f.n != code.n:
        raise ValueError("function and code live on different coordinate sets")
    counts, run = [0] * (code.n + 1), run or Run()
    for w, shell in run.shared(designs.support_shells, code, r, run).items():
        counts[w] = _kernel_sum(f, shell.lambdas(f.d))
    return BiHomPoly(0, code.n, [counts])


def _kernel_sum(f: SubsetFn, lam) -> int | Fraction:
    """sum_Z f(Z) lambda(Z), which is sum_b f-tilde(b) over the blocks
    whose lambda kernel lam is, taken to depth at least f.d."""
    return sum(v * lam[z] for z, v in f.values.items() if z in lam)


def delsarte_design_check(blocks, t: int) -> bool:
    """Delsarte criterion: blocks of size at least t form a t-design iff the
    f-tilde sum vanishes for every harmonic basis function f of degree 1..t;
    smaller blocks form one by the raw definition, as in ``is_t_design``.

    That sum is sum_b f-tilde(b) = sum_Z f(Z) lambda_d(Z), where
    lambda_d(Z) counts the blocks containing the d-set Z: the block
    multiset's lambda kernel (``BlockMultiset.lambdas``), taken once to
    depth t, so each basis function costs one pass over its values.
    """
    if t > blocks.block_size:
        return True
    lam = blocks.lambdas(t)
    for d in range(1, t + 1):
        for f in harm_basis(blocks.n, d):
            if _kernel_sum(f, lam):
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
    by_x: dict[int, int] = {}  # Hahn argument x = t - i1 - i2: its binomial products
    for i1 in range(0, i + 1):
        for i2 in range(0, t - i + 1):
            x = t - i1 - i2
            v = _comb0(i, i1) * _comb0(t - i, i2) * sum(
                _comb0(ell - i, i3) * _comb0(n - ell - t + i, x - i3) * _comb0(i1 + i3, d)
                for i3 in range(max(0, d - i1), min(ell - i, x) + 1)
            )
            if v:
                by_x[x] = by_x.get(x, 0) + v
    total = sum((v * _hahn_qdt(n, t, d, x) for x, v in by_x.items()), Fraction(0))
    return total / lam


# ---------------------------------------------------------------------------
# coefficient recovery


@lru_cache(maxsize=64)
def _recovery_systems(n: int, t: int) -> tuple:
    """Per total weight l: the feasible T-weights i (i <= l, l - i <= n - t),
    per kernel degree d the weights h_{d,t}(d, j) of the lambda sums over
    the d-sets meeting T in j points, and the ``rat_inverse`` of the system
    under the mass row; each kernel row h_{d,t}(l, i) and its weights are
    scaled to ints together."""
    systems = []
    for ell in range(n + 1):
        feasible = [i for i in range(t + 1) if i <= ell and ell - i <= n - t]
        rows, weights = [[1] * len(feasible)], []
        for d in range(1, len(feasible)):
            row = [h_dt(n, t, d, ell, i) for i in feasible]
            side = [h_dt(n, t, d, d, j) for j in range(d + 1)]
            scale = lcm(*(x.denominator for x in row + side))
            rows.append([int(x * scale) for x in row])
            weights.append([int(x * scale) for x in side])
        systems.append((feasible, weights, rat_inverse(rows)))
    return tuple(systems)


def recover_jacobi(
    code: LinearCode,
    r: int,
    tset: RefSet,
    run: Run | None = None,
) -> JacobiTable:
    """Recover the rank-r split-weight grid from the lambda kernel of the
    rank-r support shells, shared through the run (a fresh one when None).

    For each total weight l the unknowns n_{l,i} (i = the T-weight) satisfy
    one mass equation (their sum is |shell_l|, lambda_l of the empty set)
    and one equation per kernel degree d whose coefficients are
    h_{d,t}(l, i), the extension of the degree-d harmonic function
    Z -> h_{d,t}(d, |Z meets T|).  Summed over shell l that extension is

        sum over d-sets Z of h_{d,t}(d, |Z meets T|) lambda_l(Z),

    the right-hand side, which reads no T-split count and vanishes when
    shell l is a d-design.  The system uses as many kernel rows as there
    are feasible unknowns, and its inverse is built once per (n, t)
    (``_recovery_systems``); a singular system is surfaced, not suppressed.
    The solutions become a table through ``table_from_bipoly``.  The kernel
    needs |T| <= n/2; a larger T transposes the table at [n] - T.
    """
    _check_tset(code, tset)
    t, n, tmask, run = tset.size, code.n, tset.mask, run or Run()
    if 2 * t > n:
        table = recover_jacobi(code, r, RefSet.of(n, set(range(1, n + 1)) - tset.members), run)
        return table._replace(tset=tset, grid=tuple(zip(*table.grid)))
    shells = run.shared(designs.support_shells, code, r, run)
    lambdas = {ell: shell.lambdas(t) for ell, shell in shells.items()}
    coeff = [[0] * (n - t + 1) for _ in range(t + 1)]
    for ell, (feasible, weights, inverse) in enumerate(_recovery_systems(n, t)):
        # slot |Z| (n + 1) + |Z meets T| sums lambda_l(Z); slots with |Z| > t go unread
        sums = [0] * (n + 1) ** 2
        lam = lambdas.get(ell, {})
        sizes = map((n + 1).__mul__, map(int.bit_count, lam))
        keys = map(add, sizes, map(int.bit_count, map(tmask.__and__, lam)))
        for key, v in zip(keys, lam.values()):
            sums[key] += v
        rhs = [sums[0]] + [
            sum(w * sums[d * (n + 1) + j] for j, w in enumerate(side))
            for d, side in enumerate(weights, 1)
        ]
        for i, x in zip(feasible, apply_inverse(inverse, rhs)):
            coeff[i][ell - i] = x
    poly = BiHomPoly(t, n - t, coeff)
    return table_from_bipoly("higher", r, code.spec.q, tset, poly)
