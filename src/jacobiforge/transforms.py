"""Duality transforms: compute the dual code's enumerators from primal
data by pairwise linear substitution.

For the extension table of degree m the transform is a single
substitution

    (w, z) -> (w + (q^m - 1) z, w - z),   (x, y) -> likewise,

scaled by q^(-km).  For subcode tables of rank r the dual grid is a
double sum over j and l of substituted rank-l grids with coefficients

    (-1)^(r-j) q^(C(r-j,2) - j(r-j) - l(j-l) - jk) / ([r-j]_q [j-l]_q).

By linearity the inner sum over l is taken before the substitution, so
rank r costs r + 1 substitutions.  The individual summands are
fractional and only the total is integral, so every coefficient is
scaled by the lcm of their denominators: the substitutions run on
integer grids, and the total is divided by that lcm once.  Every result
becomes a table through ``enumerators.table_from_bipoly``, the one
integrality check.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import NamedTuple, Sequence

from .bipoly import BiHomPoly, PairSubstitution
from .code import RefSet
from .enumerators import JacobiTable, table_from_bipoly
from .qcomb import qbracket


class MWContext(NamedTuple):
    """Parameters of the primal code the transform coefficients depend on.

    k must be the primal dimension: the q^(-jk) factor is not recoverable
    from the tables alone.
    """

    q: int
    n: int
    k: int
    tsize: int


def _qpow(q: int, exp: int) -> Fraction:
    if exp >= 0:
        return Fraction(q ** exp)
    return Fraction(1, q ** (-exp))


def _dual_substitution(scale: int) -> PairSubstitution:
    """(u, v) -> (u + (scale - 1) v, u - v) on both variable pairs."""
    return PairSubstitution.both(1, scale - 1, 1, -1)


def _dual_coeff(ctx: MWContext, r: int, j: int, ell: int) -> Fraction:
    exp = comb(r - j, 2) - j * (r - j) - ell * (j - ell) - j * ctx.k
    sign = (-1) ** (r - j)
    return (
        sign
        * _qpow(ctx.q, exp)
        / (qbracket(r - j, ctx.q) * qbracket(j - ell, ctx.q))
    )


def _fold(polys: Sequence[BiHomPoly], ctx: MWContext) -> BiHomPoly:
    """sum_j S_j(sum_l c(r, j, l) P_l) for the rank-l polynomials P_l, l <= r.

    By linearity the rank-l terms under one substitution S_j are summed
    before it is applied: r + 1 substitutions instead of (r+1)(r+2)/2.
    Every coefficient is first multiplied by the lcm D of their
    denominators, so integral inputs are substituted in ints, and the sum
    is divided by D once at the end.
    """
    r = len(polys) - 1
    coeffs = [[_dual_coeff(ctx, r, j, ell) for ell in range(j + 1)] for j in range(r + 1)]
    denom = lcm(*(c.denominator for row in coeffs for c in row))
    acc = zero = BiHomPoly.zero(polys[0].deg_wz, polys[0].deg_xy)
    for j, row in enumerate(coeffs):
        inner = zero
        for poly, c in zip(polys, row):
            inner = inner + poly.scale(c * denom)
        acc = acc + inner.substitute(_dual_substitution(ctx.q ** j))
    return acc.scale(Fraction(1, denom))


def mw_higher_weight(enums: Sequence[BiHomPoly], ctx: MWContext) -> BiHomPoly:
    """Dual weight enumerator of rank r from the primal enumerators of
    rank 0..r; enums[l] must be the rank-l weight enumerator.  It is read
    as the table at T = {}, which checks that it came out integral."""
    r = len(enums) - 1
    acc = _fold(enums, ctx)
    return table_from_bipoly("higher", r, ctx.q, RefSet.of(ctx.n), acc).to_bipoly()


def mw_higher_jacobi(tables: Sequence[JacobiTable], ctx: MWContext) -> JacobiTable:
    """Dual split-weight table of rank r from the primal tables of rank 0..r."""
    r = len(tables) - 1
    acc = _fold([table.to_bipoly() for table in tables], ctx)
    return table_from_bipoly("higher", r, ctx.q, tables[0].tset, acc)


def mw_extended_jacobi(table: JacobiTable, ctx: MWContext) -> JacobiTable:
    """Dual extension table: substitute with scale q^m and divide by q^(km)."""
    m = table.param
    sub = _dual_substitution(ctx.q ** m)
    poly = table.to_bipoly().substitute(sub).scale(_qpow(ctx.q, -ctx.k * m))
    return table_from_bipoly("extended", m, ctx.q, table.tset, poly)
