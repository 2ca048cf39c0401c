"""Exact arithmetic used everywhere else: rationals and one exact
elimination routine over any field.

Python ints are already arbitrary precision and ``fractions.Fraction``
already stores lowest terms with a positive denominator, so those two
stand in for the big-integer and rational types; a value is kept as an
int wherever it is integral (``exact``), so ``QQ`` eliminations with
pivots of 1 or -1 build no Fraction.

``rref`` is the one Gauss-Jordan elimination in the library.  It works
over any field given as an object with ``inv``, ``mul``, ``sub`` and
``neg``: a ``FieldSpec`` for GF(q) on its integer encodings, or ``QQ``
for the rationals on ints and Fractions.  ``nullspace`` and
``rat_inverse`` (A^-1 as an int matrix over one denominator) are read off
its output, so the dual code and the recovery systems share it (the
harmonic bases are closed-form products).  Exactness, not speed, is the
contract; the incremental rank sweep in ``enumerators`` is separate.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm
from types import SimpleNamespace
from typing import Iterable, Sequence

from .errors import SingularMatrix


def exact(x):
    """x as an int when it is integral, else as a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


# the rationals, with the field operations of a FieldSpec
QQ = SimpleNamespace(
    inv=lambda a: exact(1 / Fraction(a)), mul=operator.mul, sub=operator.sub, neg=operator.neg
)


def rref(field, rows: Iterable[Sequence], ncols: int) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Columns are taken left to right, and each pivot is the first nonzero
    entry at or below the current pivot row.  The RREF of a row space is
    unique, so the output depends only on the span of the rows.
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    piv = 0
    pivots = []
    for col in range(ncols):
        if piv >= m:
            break
        sel = next((r for r in range(piv, m) if rows[r][col] != 0), None)
        if sel is None:
            continue
        rows[piv], rows[sel] = rows[sel], rows[piv]
        inv = field.inv(rows[piv][col])
        if inv != 1:
            rows[piv] = [field.mul(inv, x) for x in rows[piv]]
        prow = rows[piv]
        for r in range(m):
            c = rows[r][col]
            if r != piv and c != 0:
                rows[r] = [field.sub(x, field.mul(c, y)) for x, y in zip(rows[r], prow)]
        pivots.append(col)
        piv += 1
    return rows[:piv], pivots


def nullspace(field, rows: Iterable[Sequence], ncols: int) -> list[list]:
    """Basis of {v : row . v = 0 for every row}, one vector per free column.

    The vector of free column f has 1 at f, 0 at the other free columns,
    and minus the RREF's column f at the pivot columns.
    """
    reduced, pivots = rref(field, rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [0] * ncols
        vec[f] = 1
        for row, p in zip(reduced, pivots):
            vec[p] = field.neg(row[f])
        basis.append(vec)
    return basis


def format_rational(x: Fraction) -> str:
    """Render as ``p/q``, omitting ``/q`` when the denominator is 1."""
    return str(Fraction(x))


def parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())


class RatMatrix:
    """Immutable rectangular matrix of exact rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        grid = tuple(tuple(Fraction(x) for x in row) for row in entries)
        if not grid:
            raise ValueError("matrix needs at least one row")
        width = len(grid[0])
        if width == 0 or any(len(row) != width for row in grid):
            raise ValueError("matrix rows must be nonempty and equal length")
        self.entries = grid
        self.rows = len(grid)
        self.cols = width


def rat_inverse(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """(M, D) with A^-1 = M / D, D > 0 least, from the RREF of [A | I];
    raises SingularMatrix naming the first column of A without a pivot."""
    n = len(rows)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    reduced, pivots = rref(QQ, [list(row) + e for row, e in zip(rows, identity)], 2 * n)
    missing = next((c for c in range(n) if c not in pivots), None)
    if missing is not None:
        raise SingularMatrix(f"no pivot in column {missing}")
    den = lcm(*(Fraction(x).denominator for row in reduced for x in row[n:]))
    return [[int(x * den) for x in row[n:]] for row in reduced], den


def apply_inverse(inverse: tuple[list[list[int]], int], b: Sequence) -> list:
    """A^-1 b for (M, D) from ``rat_inverse``: a mat-vec, in ints for an
    integral b, then one division by D."""
    m, den = inverse
    totals = [sum(map(operator.mul, row, b)) for row in m]
    return [x // den if x % den == 0 else Fraction(x, den) for x in totals]


def rat_solve(a: RatMatrix, b: Sequence) -> list:
    """Solve A x = b exactly for square nonsingular A, through ``rat_inverse``.

    Raises SingularMatrix naming the first column of A without a pivot.
    """
    if a.rows != a.cols:
        raise ValueError("rat_solve needs a square matrix")
    if len(b) != a.rows:
        raise ValueError("right-hand side length does not match")
    return apply_inverse(rat_inverse(a.entries), b)
