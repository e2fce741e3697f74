"""Cyclic and dihedral group data used by the atlas.

A group is a frozen record over element indices 0..order-1, the identity at
index 0.  Its characters and 2-dim irreducible representations are exact
values over Q(zeta_field_order), which splits the group; they feed the
grouplike / matrix-coalgebra claims of group algebras and their duals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import FieldElem


@dataclass(frozen=True)
class FiniteGroup:
    name: str
    labels: tuple        # labels[a]: display label of element a
    mul: tuple           # mul[a][b]: index of the product ab
    inv: tuple           # inv[a]: index of the inverse of a
    field_order: int
    characters: tuple    # linear characters, each a value per element index
    irreps: tuple        # 2-dim irreducibles, each a 2x2 matrix per element index

    @property
    def order(self):
        return len(self.labels)


def cyclic_group(n: int) -> FiniteGroup:
    """C_n, element i standing for g^i, over Q(zeta_n)."""
    if n < 1:
        raise ValueError("cyclic order must be >= 1")
    return FiniteGroup(
        f"C{n}", ("1",) + tuple(f"g0^{i}" for i in range(1, n)),
        tuple(tuple((i + j) % n for j in range(n)) for i in range(n)),
        tuple((-i) % n for i in range(n)), n,
        tuple(tuple(FieldElem.zeta(n, m * i) for i in range(n)) for m in range(n)), (),
    )


def dihedral_group(k: int) -> FiniteGroup:
    """D_k of order 2k over Q(zeta_k): index i + k*f stands for r^i s^f."""
    if k < 3:
        raise ValueError(f"dihedral group needs k >= 3, got {k}")
    elements = [(i, f) for f in (0, 1) for i in range(k)]

    def index(i, f):
        return i % k + k * (f % 2)

    one, zero = FieldElem.one(k), FieldElem.zero(k)
    neg = -one
    chars = [[one] * (2 * k), [one if f == 0 else neg for (_, f) in elements]]
    if k % 2 == 0:
        chars.append([one if i % 2 == 0 else neg for (i, _) in elements])
        chars.append([one if (i + f) % 2 == 0 else neg for (i, f) in elements])
    irreps = []
    for j in range(1, (k - 1) // 2 + 1):
        rep = []
        for (i, f) in elements:
            a, b = FieldElem.zeta(k, j * i), FieldElem.zeta(k, -j * i)
            rep.append(((a, zero), (zero, b)) if f == 0 else ((zero, a), (b, zero)))
        irreps.append(tuple(rep))
    return FiniteGroup(
        f"D{k}",
        tuple(("1" if i == 0 else f"r^{i}") + ("" if f == 0 else "*s") for (i, f) in elements),
        tuple(tuple(index(i + (j if f == 0 else -j), f + g) for (j, g) in elements)
              for (i, f) in elements),
        tuple(index(-i, 0) if f == 0 else index(i, f) for (i, f) in elements), k,
        tuple(tuple(c) for c in chars), tuple(irreps),
    )
