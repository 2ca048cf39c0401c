"""Exact arithmetic used everywhere else: rationals and one exact
elimination routine over any field.

Python ints are already arbitrary precision and ``fractions.Fraction``
already stores lowest terms with a positive denominator, so those two
stand in for the big-integer and rational types.

``rref`` is the one Gauss-Jordan elimination in the library.  It works
over any field given as an object with ``inv``, ``mul``, ``sub`` and
``neg``: a ``FieldSpec`` for GF(q) on its integer encodings, or ``QQ``
for the rationals on ints and Fractions.  ``nullspace`` and ``rat_solve``
are read off its output, so the dual code, the harmonic bases and the
recovery systems all share it.  Exactness, not speed, is the contract;
the incremental rank sweep in ``enumerators`` is a separate algorithm.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterable, Sequence

from .errors import SingularMatrix

# the rationals, with the field operations of a FieldSpec
QQ = SimpleNamespace(
    inv=lambda a: 1 / Fraction(a), mul=operator.mul, sub=operator.sub, neg=operator.neg
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

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, RatMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(format_rational(x) for x in row) for row in self.entries)
        return f"RatMatrix[{body}]"


def rat_solve(a: RatMatrix, b: Sequence) -> list[Fraction]:
    """Solve A x = b exactly for square nonsingular A, as the RREF of [A | b].

    Raises SingularMatrix naming the first column of A without a pivot.
    """
    if a.rows != a.cols:
        raise ValueError("rat_solve needs a square matrix")
    if len(b) != a.rows:
        raise ValueError("right-hand side length does not match")
    n = a.rows
    augmented = [row + (Fraction(x),) for row, x in zip(a.entries, b)]
    reduced, pivots = rref(QQ, augmented, n + 1)
    missing = next((c for c in range(n) if c not in pivots), None)
    if missing is not None:
        raise SingularMatrix(f"no pivot in column {missing}")
    return [row[n] for row in reduced]
