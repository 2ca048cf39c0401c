"""Finite field GF(p^e) arithmetic with canonical integer encodings.

An element is encoded as the integer whose base-p digits are the
coefficients of its polynomial representative, constant term least
significant.  So in GF(4) with modulus x^2+x+1 the encodings are
0 -> 0, 1 -> 1, 2 -> x, 3 -> x+1.

Full q x q add/mul tables are built at construction for small q; field
operations dominate enumeration inner loops, so lookups pay off.  For
larger q (still capped at 2^16) arithmetic falls back to on-the-fly
polynomial reduction.
"""

from __future__ import annotations

from .errors import DivisionByZero, NotPrime, TooLarge

_ORDER_CAP = 1 << 16
_TABLE_CAP = 256


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
    """GF(p^e) with a fixed monic irreducible modulus; immutable and shareable."""

    __slots__ = ("p", "e", "q", "modulus", "_add", "_mul", "_inv", "_neg")

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = modulus
        self._build_tables()

    def _build_tables(self):
        q, p, e = self.q, self.p, self.e
        self._neg = tuple(self._neg_raw(a) for a in range(q)) if q <= _TABLE_CAP else None
        if q <= _TABLE_CAP:
            self._add = tuple(
                tuple(self._add_raw(a, b) for b in range(q)) for a in range(q)
            )
            self._mul = tuple(
                tuple(self._mul_raw(a, b) for b in range(q)) for a in range(q)
            )
            inv = [0] * q
            for a in range(1, q):
                inv[a] = next(b for b in range(1, q) if self._mul[a][b] == 1)
            self._inv = tuple(inv)
        else:
            self._add = self._mul = self._inv = None

    def _add_raw(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        if e == 1:
            return (a + b) % p
        da, db = _digits(a, p, e), _digits(b, p, e)
        total = 0
        for i in range(e - 1, -1, -1):
            total = total * p + (da[i] + db[i]) % p
        return total

    def _neg_raw(self, a: int) -> int:
        p, e = self.p, self.e
        if e == 1:
            return (-a) % p
        da = _digits(a, p, e)
        total = 0
        for i in range(e - 1, -1, -1):
            total = total * p + (-da[i]) % p
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
        if self._add is not None:
            return self._add[a][b]
        return self._add_raw(a, b)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self._neg is not None:
            return self._neg[a]
        return self._neg_raw(a)

    def mul(self, a: int, b: int) -> int:
        if self._mul is not None:
            return self._mul[a][b]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0")
        if self._inv is not None:
            return self._inv[a]
        # a^(q-2) by square and multiply
        result, base, exp = 1, a, self.q - 2
        while exp:
            if exp & 1:
                result = self._mul_raw(result, base)
            base = self._mul_raw(base, base)
            exp >>= 1
        return result

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
