"""Differential test of the integer-numerator FieldElem against the Fraction one.

`fraction_scalars.FieldElem` is the earlier implementation, with one Fraction
per coordinate.  Both are fed the same seeded random elements of Q(zeta_N)
for every N in 1..24, drawn by HOPFATLAS_TEST_SEED, with sparse and dense
coordinates, small, shared and large denominators; every result must print
the same reduced "p/q" coordinates and the same repr.
"""

import os
import random
from fractions import Fraction

import pytest

import fraction_scalars as ref
from hopfatlas.scalars import FieldElem, FieldOrderMismatch, totient

SEED = int(os.environ.get("HOPFATLAS_TEST_SEED", "0"))
ORDERS = range(1, 25)


def _coord(rng, shared):
    kind = rng.randrange(6)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randrange(-5, 6), rng.randrange(1, 7))
    if kind == 2:
        return Fraction(rng.randrange(-10 ** 9, 10 ** 9), rng.randrange(1, 10 ** 6))
    if kind == 3:
        return Fraction(rng.randrange(-50, 51), shared)
    return Fraction(rng.choice((-1, 1)) * rng.randrange(1, 4))


def _pair(rng, order, most=None):
    """The same random element in both implementations, with at most `most`
    nonzero coordinates."""
    phi = totient(order)
    shared = rng.choice((1, 2, 6, 12, 3 * 2 ** 20))
    support = rng.sample(range(phi), rng.randrange(1, min(phi, most or phi) + 1))
    coords = [_coord(rng, shared) if i in support else Fraction(0) for i in range(phi)]
    return FieldElem(order, coords), ref.FieldElem(order, coords)


def _same(new, old):
    assert isinstance(new, FieldElem)
    assert (new.order, new.to_strings(), repr(new)) == (old.order, old.to_strings(), repr(old))
    assert new.to_json() == old.to_json()
    assert new.coords == old.coords
    assert new.is_zero() == old.is_zero() and new.is_rational() == old.is_rational()
    assert bool(new) == bool(old)
    assert new == FieldElem.from_json(old.to_json())


@pytest.mark.parametrize("order", ORDERS)
def test_matches_fraction_reference(order):
    rng = random.Random(f"{SEED}:{order}")
    for _ in range(8):
        # the reference inverts by a rational Euclid that is slow on dense
        # elements with large denominators, so the divisor b is sparser
        (a, ra), (b, rb) = _pair(rng, order), _pair(rng, order, most=6)
        q = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        m = rng.randrange(-9, 10)
        _same(a, ra)
        _same(a + b, ra + rb)
        _same(a - b, ra - rb)
        _same(a * b, ra * rb)
        _same(-a, -ra)
        _same(a - a, ra - ra)
        if not rb.is_zero():
            # the reference divides and takes negative powers through its
            # inverse, which therefore runs once here
            rb_inv = rb.inverse()
            _same(b.inverse(), rb_inv)
            _same(a / b, ra * rb_inv)
            k = rng.randrange(1, 4)
            _same(b.power(-k), rb_inv.power(k))
            _same(q / b, q * rb_inv)
        _same(a.power(3), ra.power(3))
        _same(a.embed(2 * order), ra.embed(2 * order))
        _same(a.embed(order), ra.embed(order))
        _same(a + q, ra + q)
        _same(m - a, m - ra)
        _same(q * a, q * ra)
        if q:
            _same(a / q, ra / q)
        if a:
            assert a * a.inverse() == 1 and a.inverse() * a == FieldElem.one(order)
        assert (a == b) == (ra == rb)
        assert a == FieldElem(order, ra.coords) and hash(a) == hash(FieldElem(order, ra.coords))


@pytest.mark.parametrize("order", ORDERS)
def test_eq_and_hash_against_int_and_fraction(order):
    rng = random.Random(f"{SEED}:eq:{order}")
    phi = totient(order)
    for q in (0, 1, -3, Fraction(1, 2), Fraction(-7, 10 ** 9 + 7),
              Fraction(rng.randrange(-10 ** 12, 10 ** 12), rng.randrange(1, 10 ** 9))):
        a, ra = FieldElem.from_rational(q, order), ref.FieldElem.from_rational(q, order)
        _same(a, ra)
        assert a == q and ra == q and hash(a) == hash(q) == hash(ra)
        assert len({a, q}) == 1
        assert (a == q + 1) == (ra == q + 1) == False  # noqa: E712
        if phi > 1:
            off = a + FieldElem.zeta(order)
            assert off != q and (ra + ref.FieldElem.zeta(order)) != q
            assert not off.is_rational()


def test_combining_orders_still_refused():
    with pytest.raises(FieldOrderMismatch):
        FieldElem.zeta(5) * FieldElem.zeta(10)
    assert FieldElem.one(5) != FieldElem.one(10) and ref.FieldElem.one(5) != ref.FieldElem.one(10)


@pytest.mark.parametrize("order", ORDERS)
def test_rational_left_factor_matches_reference(order):
    # a rational left factor takes the scaling path as a rational right one does
    rng = random.Random(f"{SEED}:left:{order}")
    for _ in range(8):
        b, rb = _pair(rng, order)
        q = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        for r in (q, 1, -1, 0):
            left = FieldElem.from_rational(r, order)
            _same(left * b, ref.FieldElem.from_rational(r, order) * rb)
            assert left * b == b * left
        with pytest.raises(FieldOrderMismatch):
            FieldElem.from_rational(q, order + 1) * b
