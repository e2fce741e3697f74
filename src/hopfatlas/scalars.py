"""Exact scalars: rationals and cyclotomic field elements.

Every coefficient in the library lives in Q(zeta_N) for some fixed N,
represented in the power basis 1, z, ..., z^(phi(N)-1) of Q[x]/(Phi_N(x)).
An element is stored as integer numerators over one positive denominator,

    (a_0 + a_1 z + ... + a_(phi-1) z^(phi-1)) / d,   gcd(d, a_0, ..., a_(phi-1)) = 1,

the form of FLINT's fmpq_poly and nf_elem (see also Cohen, A Course in
Computational Algebraic Number Theory, GTM 138).  With the content removed
the form is unique, so equality is a comparison of integers and hashing
agrees with it, also against int and Fraction.  Phi_N is monic with integer
coefficients, so a product is the schoolbook product of the numerators,
reduced with integer rows and divided by one gcd at the end.  No float is
ever accepted.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm


class FieldOrderMismatch(ValueError):
    """Raised when two FieldElems from different Q(zeta_N) are combined."""


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    assert n >= 1
    count = 0
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            count += 1
    return count


def divisors(n: int) -> list[int]:
    assert n >= 1
    return [d for d in range(1, n + 1) if n % d == 0]


def is_odd_prime(p: int) -> bool:
    return p >= 3 and p % 2 == 1 and all(p % d for d in range(3, isqrt(p) + 1, 2))


def _divide_monic(num: list[int], den: tuple[int, ...]) -> list[int]:
    # exact division by a monic integer polynomial, remainder must vanish
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        c = num[shift + len(den) - 1]
        out[shift] = c
        if c:
            for i, d in enumerate(den):
                num[shift + i] -= c * d
    assert not any(num), "division not exact"
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of the n-th cyclotomic polynomial, monic of degree phi(n)."""
    if n < 1:
        raise ValueError(f"cyclotomic order must be >= 1, got {n}")
    # (x^n - 1) divided by the product of Phi_d over proper divisors d of n
    num = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        num = _divide_monic(num, cyclotomic_polynomial(d))
    assert len(num) - 1 == totient(n)
    return tuple(num)


@lru_cache(maxsize=None)
def _z_phi(n: int) -> tuple[int, ...]:
    # integer coordinates of z^phi(n), as Phi_n is monic
    return tuple(-c for c in cyclotomic_polynomial(n)[:-1])


def _times_z(vec: tuple[int, ...], n: int) -> tuple[int, ...]:
    # integer coordinates of z*vec in Q(zeta_n)
    out = [0, *vec[:-1]]
    top = vec[-1]
    if top:
        for i, c in enumerate(_z_phi(n)):
            out[i] += top * c
    return tuple(out)


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # z^k for k = phi(n) .. 2*phi(n)-2, reduced mod Phi_n: integer rows, kept
    # sparse as (coordinate, value) pairs
    rows = [_z_phi(n)]
    for _ in range(totient(n) - 2):
        rows.append(_times_z(rows[-1], n))
    return tuple(tuple((i, c) for i, c in enumerate(row) if c) for row in rows)


def _exact(c):
    if isinstance(c, float):
        raise TypeError(f"inexact float {c!r}; pass an int, Fraction or string")
    return c if type(c) is int else Fraction(c)


class FieldElem:
    """An element nums/den of Q(zeta_order), immutable, in reduced power-basis
    coordinates with the content removed."""

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coords):
        """coords are ints, Fractions or strings such as "1/2", phi(order) of
        them; floats are refused because they are not exact."""
        coords = [_exact(c) for c in coords]
        phi = totient(order)
        if len(coords) != phi:
            raise ValueError(f"need {phi} coordinates for order {order}, got {len(coords)}")
        # with every coordinate in lowest terms, the lcm of the denominators
        # leaves no common factor in the numerators
        den = lcm(*(c.denominator for c in coords))
        _set_order(self, order)
        _set_nums(self, tuple(c.numerator * (den // c.denominator) for c in coords))
        _set_den(self, den)

    def __setattr__(self, *a):
        raise AttributeError("FieldElem is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "FieldElem":
        return _zero(order)

    @classmethod
    def one(cls, order: int) -> "FieldElem":
        return _zeta(order, 0)

    @classmethod
    def from_rational(cls, q, order: int) -> "FieldElem":
        """q is an int, a Fraction or a string such as "1/2"; floats are
        refused because they are not exact."""
        q = _exact(q)
        return _rational(order, q.numerator, q.denominator)

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "FieldElem":
        """zeta_order ** power, reduced."""
        return _zeta(order, power % order)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.order != self.order:
                raise FieldOrderMismatch(
                    f"cannot combine Q(zeta_{self.order}) with Q(zeta_{other.order}); embed first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return _rational(self.order, other.numerator, other.denominator)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not FieldElem or other.order != self.order:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _sum(self, other.nums, other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not FieldElem or other.order != self.order:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _sum(self, [-b for b in other.nums], other.den)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _elem(self.order, tuple(-a for a in self.nums), self.den)

    def __mul__(self, other):
        if type(other) is not FieldElem or other.order != self.order:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        order, a, b = self.order, self.nums, other.nums
        den = self.den * other.den
        if any(b[1:]) and not any(a[1:]):
            self, a, b, other = other, b, a, self
        if not any(b[1:]):
            # a rational factor, on either side, scales the other; a product
            # by 1 returns the other factor itself
            y = b[0]
            if y == other.den == 1:
                return self
            return _reduced(order, [x * y for x in a], den)
        phi = len(a)
        nonzero = [(j, y) for j, y in enumerate(b) if y]
        prod = [0] * (2 * phi - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in nonzero:
                    prod[i + j] += x * y
        out = prod[:phi]
        for row, c in zip(_reduction_rows(order), prod[phi:]):
            if c:
                for i, r in row:
                    out[i] += c * r
        return _reduced(order, out, den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_%d)" % self.order)
        order, a, den = self.order, self.nums, self.den
        phi = len(a)
        if self.is_rational():
            n = a[0]
            return _rational(order, den if n > 0 else -den, abs(n))
        # Solve a*y = 1 for the coordinates y: column j of the matrix holds
        # a*z^j.  Fraction-free Gauss-Jordan elimination (Bareiss) divides
        # exactly and ends with d*I on the left and d*y on the right.
        cols = [a]
        for _ in range(phi - 1):
            cols.append(_times_z(cols[-1], order))
        m = [[col[i] for col in cols] + [int(i == 0)] for i in range(phi)]
        d = 1
        for k in range(phi):
            p = k
            while not m[p][k]:
                p += 1
            m[k], m[p] = m[p], m[k]
            top = m[k]
            pivot = top[k]
            for r, row in enumerate(m):
                if r != k:
                    f = row[k]
                    for c in range(k + 1, phi + 1):
                        row[c] = (row[c] * pivot - f * top[c]) // d
                    row[k] = 0
            d = pivot
        if d < 0:
            d, den = -d, -den
        # (a/den)^-1 = den*y
        return _reduced(order, [den * row[phi] for row in m], d)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def power(self, k: int) -> "FieldElem":
        if k < 0:
            return self.inverse().power(-k)
        result = FieldElem.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    __pow__ = power

    # -- predicates and misc -------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.order == other.order and self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):
            return (self.den == other.denominator and self.nums[0] == other.numerator
                    and self.is_rational())
        return NotImplemented

    def __hash__(self):
        # a rational element equals the int or Fraction of its value
        if self.is_rational():
            return hash(self.nums[0] if self.den == 1 else Fraction(self.nums[0], self.den))
        return hash((self.order, self.nums, self.den))

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions, a read-only view."""
        return tuple(Fraction(a, self.den) for a in self.nums)

    def embed(self, target_order: int) -> "FieldElem":
        """Image under zeta_N -> zeta_M^(M/N); requires N | M."""
        n, m = self.order, target_order
        if m % n != 0:
            raise FieldOrderMismatch(f"order {n} does not divide {m}")
        if m == n:
            return self
        step = m // n
        out = [0] * totient(m)
        for i, c in enumerate(self.nums):
            if c:
                for j, z in enumerate(_zeta(m, i * step).nums):
                    out[j] += c * z
        return _reduced(m, out, self.den)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z{self.order}")
            else:
                terms.append(f"{c}*z{self.order}^{i}")
        return " + ".join(terms) if terms else "0"

    # -- serialization -------------------------------------------------------

    def to_strings(self) -> list[str]:
        """Each coordinate in lowest terms as "p/q"."""
        return [f"{c.numerator}/{c.denominator}" for c in self.coords]

    def to_json(self) -> dict:
        return {"N": self.order, "coords": self.to_strings()}

    @classmethod
    def from_json(cls, obj) -> "FieldElem":
        return cls(obj["N"], obj["coords"])


def embed(x, order: int):
    """x with every FieldElem in it embedded in Q(zeta_order); dicts and lists
    keep their shape and keys, any other value is kept as it is."""
    if isinstance(x, FieldElem):
        return x.embed(order)
    if isinstance(x, dict):
        return {k: embed(v, order) for k, v in x.items()}
    if isinstance(x, list):
        return [embed(v, order) for v in x]
    return x


# Arithmetic builds its results here, bypassing the checking constructor.
_new = object.__new__
_set_order = FieldElem.order.__set__
_set_nums = FieldElem.nums.__set__
_set_den = FieldElem.den.__set__


def _elem(order: int, nums: tuple[int, ...], den: int) -> FieldElem:
    # trusted: nums/den is already in normal form
    e = _new(FieldElem)
    _set_order(e, order)
    _set_nums(e, nums)
    _set_den(e, den)
    return e


def _reduced(order: int, nums, den: int) -> FieldElem:
    # nums/den with den > 0, the content removed here
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [a // g for a in nums]
    return _elem(order, tuple(nums), den)


def _sum(x: FieldElem, b, db: int) -> FieldElem:
    # x + b/db for numerators b of the same order
    a, da = x.nums, x.den
    if da == db:
        return _reduced(x.order, [p + q for p, q in zip(a, b)], da)
    g = gcd(da, db)
    sa, sb = db // g, da // g
    return _reduced(x.order, [p * sa + q * sb for p, q in zip(a, b)], da * sa)


def _rational(order: int, p: int, q: int) -> FieldElem:
    # p/q in lowest terms with q > 0
    return _elem(order, (p,) + (0,) * (totient(order) - 1), q)


@lru_cache(maxsize=None)
def _zero(order: int) -> FieldElem:
    return _rational(order, 0, 1)


@lru_cache(maxsize=None)
def _zeta(order: int, power: int) -> FieldElem:
    # zeta_order ** power for 0 <= power < order
    phi = totient(order)
    if phi == 1:
        # Q(zeta_1) = Q(zeta_2) = Q; zeta is 1 or -1
        return _rational(order, -1 if power % 2 and order == 2 else 1, 1)
    if power < phi:
        nums = [0] * phi
        nums[power] = 1
        return _elem(order, tuple(nums), 1)
    nums = (0,) * (phi - 1) + (1,)
    for _ in range(power - phi + 1):
        nums = _times_z(nums, order)
    return _elem(order, nums, 1)

