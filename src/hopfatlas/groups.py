"""Small finite groups used by the atlas: cyclics, products of cyclics, dihedrals.

Character and irreducible-representation data is exact over Q(zeta_e) where e
is large enough to split; it feeds the grouplike / matrix-coalgebra claims of
group algebras and their duals.
"""

from __future__ import annotations

from math import lcm

from .scalars import FieldElem


class FiniteGroup:
    def __init__(self, name, elements, mult, inv, identity, labels=None):
        self.name = name
        self.elements = list(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.mult = mult
        self.inv = inv
        self.identity = identity
        self.labels = labels or [str(e) for e in self.elements]

    @property
    def order(self):
        return len(self.elements)

    def element_order(self, e):
        k, cur = 1, e
        while cur != self.identity:
            cur = self.mult(cur, e)
            k += 1
        return k

    @property
    def exponent(self):
        return lcm(*[self.element_order(e) for e in self.elements])

    def characters(self, field_order):
        """Linear characters as value-vectors over the element list."""
        raise NotImplementedError

    def two_dim_irreps(self, field_order):
        """List of {element: 2x2 matrix of FieldElem} for each 2-dim irreducible."""
        return []


class AbelianGroup(FiniteGroup):
    def __init__(self, orders):
        self.orders = tuple(orders)
        if any(n < 1 for n in self.orders):
            raise ValueError("cyclic order must be >= 1")
        elements = [()]
        for n in self.orders:
            elements = [e + (a,) for e in elements for a in range(n)]
        name = "x".join(f"C{n}" for n in self.orders) or "C1"

        def mult(a, b):
            return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

        def inv(a):
            return tuple((-x) % n for x, n in zip(a, self.orders))

        labels = ["*".join(f"g{i}^{a}" for i, a in enumerate(e) if a) or "1" for e in elements]
        super().__init__(name, elements, mult, inv, tuple(0 for _ in self.orders), labels)

    def characters(self, field_order):
        chars = []
        for m in self.elements:
            vals = []
            for e in self.elements:
                k = sum(
                    mi * ei * (field_order // ni) for mi, ei, ni in zip(m, e, self.orders)
                )
                vals.append(FieldElem.zeta(field_order, k))
            chars.append(vals)
        return chars


class DihedralGroup(FiniteGroup):
    """D_k of order 2k: elements (i, f) standing for r^i s^f."""

    def __init__(self, k):
        if k < 3:
            raise ValueError(f"dihedral group needs k >= 3, got {k}")
        self.k = k
        elements = [(i, f) for f in (0, 1) for i in range(k)]

        def mult(a, b):
            i, f = a
            j, g = b
            return ((i + (j if f == 0 else -j)) % k, (f + g) % 2)

        def inv(a):
            i, f = a
            return ((-i) % k, 0) if f == 0 else a

        labels = [("1" if i == 0 else f"r^{i}") + ("" if f == 0 else "*s") for (i, f) in elements]
        super().__init__(f"D{k}", elements, mult, inv, (0, 0), labels)

    def characters(self, field_order):
        one = FieldElem.one(field_order)
        neg = -one
        chars = [[one for _ in self.elements]]
        chars.append([one if f == 0 else neg for (_, f) in self.elements])
        if self.k % 2 == 0:
            chars.append([one if i % 2 == 0 else neg for (i, _) in self.elements])
            chars.append(
                [one if (i + f) % 2 == 0 else neg for (i, f) in self.elements]
            )
        return chars

    def two_dim_irreps(self, field_order):
        k = self.k
        step = field_order // k
        reps = []
        zero = FieldElem.zero(field_order)
        for j in range(1, (k - 1) // 2 + 1):
            rep = {}
            for (i, f) in self.elements:
                a = FieldElem.zeta(field_order, (j * i * step) % field_order)
                b = FieldElem.zeta(field_order, (-j * i * step) % field_order)
                if f == 0:
                    rep[(i, f)] = ((a, zero), (zero, b))
                else:
                    rep[(i, f)] = ((zero, a), (b, zero))
            reps.append(rep)
        return reps
