"""q-analog combinatorics: the brackets [a,b]_q and Gaussian binomials.

    [a,b]_q = prod_{i=0}^{b-1} (q^a - q^i),    [a]_q = [a,a]_q,
    binom_q(a,b) = [a,b]_q / [b]_q,

the latter counting b-dimensional subspaces of a vector space of
dimension a over a field with q elements.  Everything is exact integer
arithmetic, generic in q.
"""

from __future__ import annotations


def qfact(a: int, b: int, q: int) -> int:
    """The bracket [a,b]_q; empty product (b = 0) is 1, zero when b > a."""
    if a < 0 or b < 0:
        raise ValueError("qfact arguments must be nonnegative")
    out = 1
    qa = q ** a
    for i in range(b):
        out *= qa - q ** i
    return out


def qbracket(a: int, q: int) -> int:
    """[a]_q = [a,a]_q, the order of GL(a, q)."""
    return qfact(a, a, q)


def gauss_binom(a: int, b: int, q: int) -> int:
    """Number of b-dimensional subspaces of GF(q)^a, as an exact integer."""
    num = qfact(a, b, q)
    if num == 0:
        return 0
    quot, rem = divmod(num, qfact(b, b, q))
    assert rem == 0, f"[{a},{b}]_{q} not divisible by [{b}]_{q}"
    return quot

