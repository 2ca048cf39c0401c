import random
from itertools import product

import pytest

from helpers import poly_mul_mod
from jacobiforge import (
    DivisionByZero,
    NotPrime,
    TooLarge,
    field_new,
)
from jacobiforge.gf import _digits, _is_prime

# every (p, e) with p^e <= 256
PRIME_POWERS = [
    (p, e) for p in range(2, 257) if _is_prime(p) for e in range(1, 9) if p ** e <= 256
]


def test_prime_field_basics():
    f2 = field_new(2, 1)
    assert f2.q == 2
    assert f2.add(1, 1) == 0


def test_gf4_modulus_is_least_irreducible():
    f4 = field_new(2, 2)
    # x^2 + x + 1 is the only monic irreducible quadratic over GF(2)
    assert f4.modulus == (1, 1, 1)
    assert f4.mul(2, 2) == 3  # x * x = x + 1


def test_gf8_gf9_moduli():
    assert field_new(2, 3).modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert field_new(3, 2).modulus == (1, 0, 1)  # x^2 + 1


def test_not_prime():
    with pytest.raises(NotPrime):
        field_new(4, 1)


def test_too_large():
    for p, e in ((2, 17), (2, 9), (17, 2)):
        with pytest.raises(TooLarge):
            field_new(p, e)


def test_inverse_examples():
    f3 = field_new(3)
    assert f3.inv(2) == 2
    with pytest.raises(DivisionByZero):
        f3.inv(0)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, e):
    spec = field_new(p, e)
    q = spec.q
    for a, b, c in product(range(q), repeat=3):
        assert spec.add(spec.add(a, b), c) == spec.add(a, spec.add(b, c))
        assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
        assert spec.add(a, b) == spec.add(b, a)
        assert spec.mul(a, b) == spec.mul(b, a)
        assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b), spec.mul(a, c))
    for a in range(1, q):
        assert spec.mul(a, spec.inv(a)) == 1
        assert spec.add(a, spec.neg(a)) == 0
    assert all(spec.mul(1, a) == a for a in range(q))


@pytest.mark.parametrize(
    "p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]
)
def test_multiplicative_group_cyclic(p, e):
    spec = field_new(p, e)
    q = spec.q

    def order(a):
        x, k = a, 1
        while x != 1:
            x = spec.mul(x, a)
            k += 1
        return k

    assert any(order(a) == q - 1 for a in range(2, q)) or q == 2


def test_largest_fields_satisfy_the_axioms_on_random_triples():
    # GF(256) and GF(243) are the largest fields under the cap; too large to
    # check exhaustively, so seeded random triples stand in
    rng = random.Random(256)
    for p, e in ((2, 8), (3, 5)):
        spec = field_new(p, e)
        q = spec.q
        for _ in range(2000):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert spec.add(spec.add(a, b), c) == spec.add(a, spec.add(b, c))
            assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
            assert spec.add(a, b) == spec.add(b, a)
            assert spec.mul(a, b) == spec.mul(b, a)
            assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b), spec.mul(a, c))
            assert spec.add(a, spec.neg(a)) == 0
            assert spec.sub(a, b) == spec.add(a, spec.neg(b))
        for a in range(1, q):
            assert spec.mul(a, spec.inv(a)) == 1
        assert all(spec.mul(1, a) == a and spec.add(0, a) == a for a in range(q))


def test_every_table_is_the_schoolbook_arithmetic():
    assert len(PRIME_POWERS) == 70
    for p, e in PRIME_POWERS:
        spec = field_new(p, e)
        q = spec.q
        digits = [_digits(a, p, e) for a in range(q)]
        encode = {tuple(d): a for a, d in enumerate(digits)}
        modulus = list(spec.modulus)
        for a in range(q):
            if e == 1:
                adds = [(a + b) % p for b in range(q)]
                products = [a * b % p for b in range(q)]
            else:
                da = digits[a]
                adds = [encode[tuple((x + y) % p for x, y in zip(da, db))] for db in digits]
                products = [encode[tuple(poly_mul_mod(da, db, modulus, p))] for db in digits]
            assert [spec.add(a, b) for b in range(q)] == adds, (q, a)
            assert [spec.mul(a, b) for b in range(q)] == products, (q, a)
