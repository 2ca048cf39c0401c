"""Bihomogeneous polynomials in the variable pairs (w, z) and (x, y).

A BiHomPoly of bidegree (s, n) is a sum of monomials

    c[j][i] * w^(s-j) z^j x^(n-i) y^i,      0 <= j <= s, 0 <= i <= n,

held as a dense grid of exact numbers: each entry is a Python int when
it is integral and a Fraction otherwise.  A plain bivariate polynomial
in (x, y) is the s = 0 case.  The two operations that matter are
pairwise linear substitution and polarization w*d/dx + z*d/dy, which
moves one degree from the (x, y) pair to the (w, z) pair.

Substitution applies one 2x2 integer map to both pairs.  The image of
the monomial u^(deg-j) v^j of a pair is a fixed vector that depends
only on the map and the degree, so those vectors are cached as one int
matrix per (map, degree).  The grid is then contracted with the matrix
of each pair in turn, first over i at the (x, y)-degree and then over j
at the (w, z)-degree: O(s n^2 + s^2 n) products instead of O(s^2 n^2).
An integral grid is expanded entirely in ints; Fractions enter only
where a grid entry is fractional.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import DegreeMismatch, DegreeUnderflow
from .exactmath import exact, format_rational, parse_rational


def _pair_power(m, deg: int, j: int) -> list:
    """Coefficient vector of (a u + b v)^(deg-j) (c u + d v)^j over v-degree.

    Entry [t] is the coefficient of u^(deg-t) v^t.
    """
    a, b, c, d = m
    first = [
        math.comb(deg - j, t) * a ** (deg - j - t) * b ** t for t in range(deg - j + 1)
    ]
    second = [math.comb(j, t) * c ** (j - t) * d ** t for t in range(j + 1)]
    out = [0] * (deg + 1)
    for t1, f1 in enumerate(first):
        if f1 == 0:
            continue
        for t2, f2 in enumerate(second):
            out[t1 + t2] += f1 * f2
    return out


@lru_cache(maxsize=256)
def _pair_matrix(m, deg: int) -> tuple[tuple, ...]:
    """The substitution matrix of one pair at one degree, by columns.

    Entry [t][j] is the coefficient of u^(deg-t) v^t in the image
    (a u + b v)^(deg-j) (c u + d v)^j of u^(deg-j) v^j.
    """
    return tuple(zip(*(_pair_power(m, deg, j) for j in range(deg + 1))))


class BiHomPoly:
    """Dense bihomogeneous polynomial with exact rational coefficients."""

    __slots__ = ("deg_wz", "deg_xy", "coeff")

    def __init__(self, deg_wz: int, deg_xy: int, coeff):
        if deg_wz < 0 or deg_xy < 0:
            raise ValueError("bidegrees must be nonnegative")
        grid = tuple(tuple(map(exact, row)) for row in coeff)
        if len(grid) != deg_wz + 1 or any(len(row) != deg_xy + 1 for row in grid):
            raise ValueError("coefficient grid does not match bidegree")
        self.deg_wz = deg_wz
        self.deg_xy = deg_xy
        self.coeff = grid

    @classmethod
    def zero(cls, deg_wz: int, deg_xy: int) -> "BiHomPoly":
        return cls(deg_wz, deg_xy, [[0] * (deg_xy + 1) for _ in range(deg_wz + 1)])

    @classmethod
    def from_terms(cls, deg_wz: int, deg_xy: int, terms: dict) -> "BiHomPoly":
        """Build from a {(j, i): coefficient} mapping."""
        grid = [[0] * (deg_xy + 1) for _ in range(deg_wz + 1)]
        for (j, i), c in terms.items():
            grid[j][i] += Fraction(c)
        return cls(deg_wz, deg_xy, grid)

    def __eq__(self, other):
        return (
            isinstance(other, BiHomPoly)
            and self.deg_wz == other.deg_wz
            and self.deg_xy == other.deg_xy
            and self.coeff == other.coeff
        )

    def __hash__(self):
        return hash((self.deg_wz, self.deg_xy, self.coeff))

    def __add__(self, other: "BiHomPoly") -> "BiHomPoly":
        if (self.deg_wz, self.deg_xy) != (other.deg_wz, other.deg_xy):
            raise DegreeMismatch("cannot add polynomials of different bidegrees")
        return BiHomPoly(
            self.deg_wz,
            self.deg_xy,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.coeff, other.coeff)
            ],
        )

    def scale(self, c) -> "BiHomPoly":
        c = exact(c)
        return BiHomPoly(
            self.deg_wz, self.deg_xy, [[c * x for x in row] for row in self.coeff]
        )

    def substitute(self, m: tuple[int, int, int, int]) -> "BiHomPoly":
        """Apply u -> a u + b v, v -> c u + d v, for m = (a, b, c, d), to
        both (w, z) and (x, y), and re-expand.

        Singular maps are permitted, and bidegree is preserved.  The grid
        is contracted with the cached matrix at the (x, y)-degree over i,
        then with the one at the (w, z)-degree over j.
        """
        s, n = self.deg_wz, self.deg_xy
        xy_cols = _pair_matrix(m, n)
        wz_cols = _pair_matrix(m, s)
        # half[j][i2]: the grid with only the (x, y) pair substituted
        half = [[sum(map(mul, row, col)) for col in xy_cols] for row in self.coeff]
        half_cols = list(zip(*half))
        return BiHomPoly(
            s,
            n,
            [[sum(map(mul, wcol, hcol)) for hcol in half_cols] for wcol in wz_cols],
        )

    def polarize(self) -> "BiHomPoly":
        """w * d/dx + z * d/dy: bidegree (s, n) becomes (s+1, n-1)."""
        s, n = self.deg_wz, self.deg_xy
        if n == 0:
            raise DegreeUnderflow("cannot polarize at (x, y)-degree zero")
        out = [[0] * n for _ in range(s + 2)]
        for j in range(s + 1):
            for i in range(n + 1):
                c = self.coeff[j][i]
                if c == 0:
                    continue
                # w * d/dx of w^(s-j) z^j x^(n-i) y^i
                if n - i > 0:
                    out[j][i] += (n - i) * c
                # z * d/dy
                if i > 0:
                    out[j + 1][i - 1] += i * c
        return BiHomPoly(s + 1, n - 1, out)

    def render(self) -> str:
        """Monomial sum in lexicographic (j, i) order, e.g. ``2*z*x^2*y^3``."""
        parts = []
        for j in range(self.deg_wz + 1):
            for i in range(self.deg_xy + 1):
                c = self.coeff[j][i]
                if c == 0:
                    continue
                factors = []
                for name, exp in (
                    ("w", self.deg_wz - j),
                    ("z", j),
                    ("x", self.deg_xy - i),
                    ("y", i),
                ):
                    if exp == 1:
                        factors.append(name)
                    elif exp > 1:
                        factors.append(f"{name}^{exp}")
                mag = format_rational(abs(c))
                if factors and mag == "1":
                    body = "*".join(factors)
                elif factors:
                    body = "*".join([mag] + factors)
                else:
                    body = mag
                parts.append((c < 0, body))
        if not parts:
            return "0"
        out = ("-" if parts[0][0] else "") + parts[0][1]
        for negative, body in parts[1:]:
            out += (" - " if negative else " + ") + body
        return out

    def to_json_dict(self) -> dict:
        return {
            "deg_wz": self.deg_wz,
            "deg_xy": self.deg_xy,
            "coeff": [[format_rational(c) for c in row] for row in self.coeff],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BiHomPoly":
        return cls(
            data["deg_wz"],
            data["deg_xy"],
            [[parse_rational(c) for c in row] for row in data["coeff"]],
        )

    def __repr__(self):
        return f"BiHomPoly({self.render()})"
