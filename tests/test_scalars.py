import random
from fractions import Fraction

import pytest

from hopfatlas.scalars import (
    FieldElem,
    FieldOrderMismatch,
    cyclotomic_polynomial,
    divisors,
    is_odd_prime,
    totient,
)

SEED = 0


def test_cyclotomic_small():
    assert list(cyclotomic_polynomial(1)) == [Fraction(-1), Fraction(1)]          # x - 1
    assert list(cyclotomic_polynomial(4)) == [Fraction(1), Fraction(0), Fraction(1)]  # x^2 + 1
    # divide x^12 - 1 by the proper-divisor cyclotomics by hand: x^4 - x^2 + 1
    assert list(cyclotomic_polynomial(12)) == [Fraction(1), 0, Fraction(-1), 0, Fraction(1)]


def test_cyclotomic_degree_and_product():
    for n in range(1, 30):
        assert len(cyclotomic_polynomial(n)) == totient(n) + 1
    # product over divisors of 12 reconstructs x^12 - 1
    prod = [Fraction(1)]
    for d in divisors(12):
        poly = cyclotomic_polynomial(d)
        new = [Fraction(0)] * (len(prod) + len(poly) - 1)
        for i, a in enumerate(prod):
            for j, b in enumerate(poly):
                new[i + j] += a * b
        prod = new
    assert prod[0] == -1 and prod[-1] == 1 and all(c == 0 for c in prod[1:-1])


def test_arith_examples():
    z4 = FieldElem.zeta(4)
    assert z4 * z4 == -1
    z3 = FieldElem.zeta(3)
    assert (FieldElem.one(3) + z3 + z3 * z3).is_zero()
    one = FieldElem.one(4)
    assert (one + z4) * (one - z4) / FieldElem.from_rational(2, 4) == 1


def test_zeta_orders():
    for n in (2, 3, 4, 5, 6, 12):
        z = FieldElem.zeta(n)
        assert z.power(n) == 1
        for k in range(1, n):
            assert z.power(k) != 1


def test_errors():
    with pytest.raises(FieldOrderMismatch):
        FieldElem.zeta(3) + FieldElem.zeta(4)
    with pytest.raises(ZeroDivisionError):
        FieldElem.one(4) / FieldElem.zero(4)
    with pytest.raises(FieldOrderMismatch):
        FieldElem.zeta(4).embed(6)


def test_embed_examples():
    assert FieldElem.from_rational(-1, 2).embed(4) == FieldElem.from_rational(-1, 4)
    assert FieldElem.zeta(3).embed(6) == FieldElem.zeta(6, 2)
    img = FieldElem.zeta(4).embed(12)
    assert img == FieldElem.zeta(12, 3)
    assert img.power(4) == 1 and img.power(2) != 1


def _random_elem(rng, order):
    phi = totient(order)
    return FieldElem(order, [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(phi)])


def test_field_axioms_random():
    rng = random.Random(SEED)
    for order in (3, 4, 5, 12):
        for _ in range(15):
            a, b, c = (_random_elem(rng, order) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not b.is_zero():
                assert (a / b) * b == a


def test_embed_is_ring_hom_random():
    rng = random.Random(SEED + 1)
    for (n, m) in ((2, 4), (3, 12), (4, 12), (6, 12)):
        for _ in range(10):
            a, b = _random_elem(rng, n), _random_elem(rng, n)
            assert (a * b).embed(m) == a.embed(m) * b.embed(m)
            assert (a + b).embed(m) == a.embed(m) + b.embed(m)


def test_serialization_round_trip():
    rng = random.Random(SEED + 2)
    for order in (1, 2, 12):
        a = _random_elem(rng, order)
        assert FieldElem.from_json(a.to_json()) == a
        assert all("/" in s for s in a.to_strings())


def test_hash_agrees_with_eq_against_int_and_fraction():
    assert len({FieldElem.one(4), 1}) == 1
    assert len({FieldElem.from_rational(Fraction(1, 2), 12), Fraction(1, 2)}) == 1
    assert FieldElem.zeta(4) in {FieldElem.zeta(4)}
    assert {FieldElem.zero(3): "zero"}[0] == "zero"


def test_from_rational_refuses_floats():
    with pytest.raises(TypeError):
        FieldElem.from_rational(0.1, 4)
    assert FieldElem.from_rational("1/10", 4).coords[0] == Fraction(1, 10)


def test_constructor_and_arithmetic_refuse_floats():
    with pytest.raises(TypeError, match="inexact float"):
        FieldElem(4, [0.5, 0])
    with pytest.raises(TypeError, match="inexact float"):
        FieldElem.from_json({"N": 4, "coords": ["1/2", 0.25]})
    with pytest.raises(TypeError, match="inexact float"):
        FieldElem.from_rational(0.5, 4)
    z = FieldElem.zeta(4)
    for op in (lambda: z + 0.5, lambda: 0.5 + z, lambda: z - 0.5, lambda: 0.5 - z,
               lambda: z * 0.5, lambda: 0.5 * z, lambda: z / 0.5, lambda: 0.5 / z):
        with pytest.raises(TypeError):
            op()
    assert FieldElem(4, ["1/2", Fraction(1, 3)]).to_strings() == ["1/2", "1/3"]


def test_is_odd_prime_exact_past_float_range():
    # 3^700 and 9 * 10^400 are past the float range, where a float square root overflows
    assert [p for p in range(30) if is_odd_prime(p)] == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_odd_prime(3 ** 700) and not is_odd_prime(9 * 10 ** 400 + 3)
    assert not is_odd_prime(10007 ** 2) and is_odd_prime(10007)
