"""Finite field GF(p^e) arithmetic with canonical integer encodings.

An element is encoded as the integer whose base-p digits are the
coefficients of its polynomial representative, constant term least
significant.  So in GF(4) with modulus x^2+x+1 the encodings are
0 -> 0, 1 -> 1, 2 -> x, 3 -> x+1.

The order is capped at q <= 256, and every field builds its full q x q
addition and multiplication tables, and its negation and inverse tables,
at construction: field operations dominate enumeration inner loops, so
each one is a single lookup.  The tables are filled row by row: the row
of a = a0 + x a1 is read off the rows of a1 and of the constant a0, so no
product is reduced modulo the modulus one at a time.
"""

from __future__ import annotations

from .errors import DivisionByZero, NotPrime, TooLarge

_ORDER_CAP = 256


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _digits(value: int, p: int, e: int) -> list[int]:
    out = []
    for _ in range(e):
        out.append(value % p)
        value //= p
    return out


def _poly_divisible(num: list[int], div: list[int], p: int) -> bool:
    """Whether the monic polynomial div divides num over GF(p)."""
    rem = list(num)
    d = len(div) - 1
    for deg in range(len(rem) - 1, d - 1, -1):
        c = rem[deg]
        if c:
            for j in range(d + 1):
                rem[deg - d + j] = (rem[deg - d + j] - c * div[j]) % p
    return all(c == 0 for c in rem)


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    e = len(coeffs) - 1
    if coeffs[0] == 0:
        return False
    for d in range(1, e // 2 + 1):
        for low in range(p ** d):
            div = _digits(low, p, d) + [1]
            if _poly_divisible(coeffs, div, p):
                return False
    return True


class FieldSpec:
    """GF(p^e) with a fixed monic irreducible modulus; immutable and shareable.

    Built by ``field_new``, which caps q at 256, so each q x q table holds at
    most 65536 entries.
    """

    __slots__ = ("p", "e", "q", "modulus", "_add", "_mul", "_inv", "_neg")

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = modulus
        q, top = self.q, self.q // p
        elems = range(q)
        # the encoding a = a0 + p * a1 is the polynomial a0 + x * a1, and sums
        # are digitwise, so the row of a is the row of a1 one digit up
        add = [list(elems)]
        for a in range(1, q):
            a0, rest = a % p, add[a // p]
            add.append([(a0 + b) % p + p * rest[b // p] for b in elems])
        # v * x: the digits move up one place, and the top one's x^e is minus
        # the lower terms of the modulus
        minus_low = [sum(-c * m % p * p ** i for i, m in enumerate(modulus[:e])) for c in range(p)]
        times_x = [add[v % top * p][minus_low[v // top]] for v in elems]
        # a constant c scales each digit, and a * b = a0 * b + x * (a1 * b)
        mul = [[0] * q for _ in range(p)]
        for c, row in enumerate(mul):
            for b in range(1, q):
                row[b] = c * (b % p) % p + p * row[b // p]
        for a in range(p, q):
            mul.append([add[s][times_x[m]] for s, m in zip(mul[a % p], mul[a // p])])
        self._add = tuple(map(tuple, add))
        self._mul = tuple(map(tuple, mul))
        self._neg = tuple(row.index(0) for row in self._add)
        self._inv = (0,) + tuple(row.index(1) for row in self._mul[1:])

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return self._inv[a]

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"FieldSpec(GF({self.q}))"


def field_new(p: int, e: int = 1) -> FieldSpec:
    """GF(p^e) with the lexicographically least monic irreducible modulus.

    For e = 1 the modulus is the placeholder x and arithmetic is plain mod p.
    """
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if e < 1:
        raise ValueError("extension degree must be at least 1")
    if p ** e > _ORDER_CAP:
        raise TooLarge(f"field order {p}^{e} exceeds {_ORDER_CAP}")
    if e == 1:
        return FieldSpec(p, 1, (0, 1))
    for low in range(p ** e):
        coeffs = _digits(low, p, e) + [1]
        if _is_irreducible(coeffs, p):
            return FieldSpec(p, e, tuple(coeffs))
    raise AssertionError("no irreducible modulus found; unreachable")
