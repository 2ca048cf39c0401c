"""Finite field GF(p^e) arithmetic with canonical integer encodings.

An element is encoded as the integer whose base-p digits are the
coefficients of its polynomial representative, constant term least
significant.  So in GF(4) with modulus x^2+x+1 the encodings are
0 -> 0, 1 -> 1, 2 -> x, 3 -> x+1.

The order is capped at q <= 256, and every field builds its full q x q
addition and multiplication tables, and its negation and inverse tables,
at construction: field operations dominate enumeration inner loops, so
each one is a single lookup.  Polynomial reduction runs only to fill the
multiplication table.
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


def _poly_mul_mod(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    """Multiply coefficient lists and reduce by the monic modulus, all mod p."""
    e = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for deg in range(len(prod) - 1, e - 1, -1):
        c = prod[deg]
        if c:
            prod[deg] = 0
            for j in range(e + 1):
                prod[deg - e + j] = (prod[deg - e + j] - c * modulus[j]) % p
    out = prod[:e]
    out += [0] * (e - len(out))
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
        elems = range(self.q)
        self._add = tuple(tuple(self._add_raw(a, b) for b in elems) for a in elems)
        self._mul = tuple(tuple(self._mul_raw(a, b) for b in elems) for a in elems)
        self._neg = tuple(row.index(0) for row in self._add)
        self._inv = (0,) + tuple(row.index(1) for row in self._mul[1:])

    def _add_raw(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        if e == 1:
            return (a + b) % p
        da, db = _digits(a, p, e), _digits(b, p, e)
        total = 0
        for i in range(e - 1, -1, -1):
            total = total * p + (da[i] + db[i]) % p
        return total

    def _mul_raw(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        if e == 1:
            return (a * b) % p
        prod = _poly_mul_mod(_digits(a, p, e), _digits(b, p, e), list(self.modulus), p)
        total = 0
        for i in range(e - 1, -1, -1):
            total = total * p + prod[i]
        return total

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
