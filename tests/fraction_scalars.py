"""Reference cyclotomic scalars with one Fraction per coordinate.

This is the FieldElem that hopfatlas.scalars used before it stored integer
numerators over one denominator, kept unchanged as the slow path of the
differential test in test_scalars.py.  Every coefficient lives in
Q(zeta_N), in the power basis 1, z, ..., z^(phi(N)-1) of Q[x]/(Phi_N(x)),
with Fraction coordinates.  Equality is coordinatewise, hence decidable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


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


def _poly_divide_exact(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    # exact division of polynomials with Fraction coefficients, remainder must vanish
    num = list(num)
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    while len(num) >= len(den):
        if num[-1] == 0:
            num.pop()
            continue
        shift = len(num) - len(den)
        coeff = num[-1] / den[-1]
        out[shift] = coeff
        for i, c in enumerate(den):
            num[shift + i] -= coeff * c
        assert num[-1] == 0
        num.pop()
    assert all(c == 0 for c in num), "division not exact"
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial, monic of degree phi(n)."""
    if n < 1:
        raise ValueError(f"cyclotomic order must be >= 1, got {n}")
    # (x^n - 1) divided by the product of Phi_d over proper divisors d of n
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in divisors(n)[:-1]:
        num = _poly_divide_exact(num, list(cyclotomic_polynomial(d)))
    assert len(num) - 1 == totient(n)
    return tuple(num)


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[Fraction, ...], ...]:
    # coordinates of z^k for k = phi(n) .. 2*phi(n)-2, reduced mod Phi_n
    phi = totient(n)
    poly = cyclotomic_polynomial(n)
    rows = []
    cur = [-c for c in poly[:phi]]  # z^phi = -(a_0 + a_1 z + ... ), Phi monic
    rows.append(tuple(cur))
    for _ in range(phi - 2):
        nxt = [Fraction(0)] + cur[:-1]
        top = cur[-1]
        if top:
            for i in range(phi):
                nxt[i] += top * rows[0][i]
        cur = nxt
        rows.append(tuple(cur))
    return tuple(rows)


class FieldElem:
    """An element of Q(zeta_N), immutable, in reduced power-basis coordinates."""

    __slots__ = ("order", "coords")

    def __init__(self, order: int, coords):
        phi = totient(order)
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != phi:
            raise ValueError(f"need {phi} coordinates for order {order}, got {len(coords)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("FieldElem is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "FieldElem":
        return cls(order, (Fraction(0),) * totient(order))

    @classmethod
    def one(cls, order: int) -> "FieldElem":
        return cls.from_rational(Fraction(1), order)

    @classmethod
    def from_rational(cls, q, order: int) -> "FieldElem":
        """q is an int, a Fraction or a string such as "1/2"; floats are
        refused because they are not exact."""
        if isinstance(q, float):
            raise TypeError(f"inexact float {q!r}; pass an int, Fraction or string")
        coords = [Fraction(q)] + [Fraction(0)] * (totient(order) - 1)
        return cls(order, coords)

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "FieldElem":
        """zeta_order ** power, reduced."""
        power %= order
        phi = totient(order)
        if power < phi:
            coords = [Fraction(0)] * phi
            coords[power] = Fraction(1)
            return cls(order, coords)
        elem = cls(order, [Fraction(0)] * (phi - 1) + [Fraction(1)]) if phi > 1 else cls.one(order)
        if phi == 1:
            # Q(zeta_1) = Q(zeta_2) = Q; zeta is 1 or -1
            val = Fraction(1) if order == 1 else Fraction(-1) ** power
            return cls(order, (Fraction(val),))
        # z^(phi-1) times z^(power-phi+1)
        for _ in range(power - phi + 1):
            elem = elem._times_z()
        return elem

    def _times_z(self) -> "FieldElem":
        phi = len(self.coords)
        shifted = [Fraction(0)] + list(self.coords[:-1])
        top = self.coords[-1]
        if top:
            row = _reduction_rows(self.order)[0]
            for i in range(phi):
                shifted[i] += top * row[i]
        return FieldElem(self.order, shifted)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.order != self.order:
                raise FieldOrderMismatch(
                    f"cannot combine Q(zeta_{self.order}) with Q(zeta_{other.order}); embed first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElem.from_rational(other, self.order)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElem(self.order, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElem(self.order, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return FieldElem(self.order, tuple(-a for a in self.coords))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        phi = len(self.coords)
        if phi == 1:
            return FieldElem(self.order, (self.coords[0] * other.coords[0],))
        prod = [Fraction(0)] * (2 * phi - 1)
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(other.coords):
                if b:
                    prod[i + j] += a * b
        out = prod[:phi]
        rows = _reduction_rows(self.order)
        for k in range(phi, 2 * phi - 1):
            c = prod[k]
            if c:
                row = rows[k - phi]
                for i in range(phi):
                    out[i] += c * row[i]
        return FieldElem(self.order, out)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_%d)" % self.order)
        phi = len(self.coords)
        if phi == 1:
            return FieldElem(self.order, (1 / self.coords[0],))
        # extended Euclid in Q[x]: s*a + t*Phi = 1, inverse = s mod Phi
        a = list(self.coords)
        b = list(cyclotomic_polynomial(self.order))
        s0, s1 = [Fraction(1)], [Fraction(0)]

        def trim(p):
            while p and p[-1] == 0:
                p.pop()
            return p

        a, b = trim(a), trim(b)
        while b:
            q, r = _poly_divmod(a, b)
            a, b = b, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        assert len(a) == 1 and a[0] != 0, "cyclotomic polynomial not coprime to element"
        inv = [c / a[0] for c in s0]
        inv = (inv + [Fraction(0)] * phi)[:phi]
        return FieldElem(self.order, inv)

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
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FieldElem.from_rational(other, self.order)
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.order == other.order and self.coords == other.coords

    def __hash__(self):
        # a rational element equals the int or Fraction of its value
        if self.is_rational():
            return hash(self.coords[0])
        return hash((self.order, self.coords))

    def embed(self, target_order: int) -> "FieldElem":
        """Image under zeta_N -> zeta_M^(M/N); requires N | M."""
        n, m = self.order, target_order
        if m % n != 0:
            raise FieldOrderMismatch(f"order {n} does not divide {m}")
        if m == n:
            return self
        step = m // n
        out = FieldElem.zero(m)
        for i, c in enumerate(self.coords):
            if c:
                out = out + FieldElem.zeta(m, i * step) * FieldElem.from_rational(c, m)
        return out

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
        return [f"{c.numerator}/{c.denominator}" for c in self.coords]

    def to_json(self) -> dict:
        return {"N": self.order, "coords": self.to_strings()}

    @classmethod
    def from_json(cls, obj) -> "FieldElem":
        return cls(obj["N"], [Fraction(s) for s in obj["coords"]])


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        c = a[-1] / b[-1]
        q[shift] = c
        for i, bc in enumerate(b):
            a[shift + i] -= c * bc
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return q, a


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    while out and out[-1] == 0:
        out.pop()
    return out


def embed(a: FieldElem, target_order: int) -> FieldElem:
    return a.embed(target_order)
