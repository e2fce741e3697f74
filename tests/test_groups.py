"""The group records behind kC{n}, kC{n}dual and kD{k}dual, checked as groups
with exact arithmetic: the group laws, and characters and 2-dim irreps that
are homomorphisms and exhaust the group by 1 * #characters + 4 * #irreps."""

from itertools import product

import pytest

from hopfatlas.groups import cyclic_group, dihedral_group
from hopfatlas.scalars import FieldElem

GROUPS = [cyclic_group(n) for n in range(1, 13)] + [dihedral_group(k) for k in range(3, 7)]


def _matmul(x, y):
    return tuple(tuple(x[u][0] * y[0][v] + x[u][1] * y[1][v] for v in range(2))
                 for u in range(2))


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_group_laws(group):
    n, mul = group.order, group.mul
    assert len(mul) == n and all(sorted(row) == list(range(n)) for row in mul)
    for a, b, c in product(range(n), repeat=3):
        assert mul[mul[a][b]][c] == mul[a][mul[b][c]], (a, b, c)
    for a in range(n):
        assert mul[0][a] == a == mul[a][0]
        assert mul[a][group.inv[a]] == 0 == mul[group.inv[a]][a]


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_characters_and_irreps_are_homomorphisms(group):
    n, mul, N = group.order, group.mul, group.field_order
    one, zero = FieldElem.one(N), FieldElem.zero(N)
    for chi in group.characters:
        assert chi[0] == one
        for a, b in product(range(n), repeat=2):
            assert chi[mul[a][b]] == chi[a] * chi[b], (a, b)
    for rho in group.irreps:
        assert rho[0] == ((one, zero), (zero, one))
        for a, b in product(range(n), repeat=2):
            assert rho[mul[a][b]] == _matmul(rho[a], rho[b]), (a, b)
    assert len(set(group.characters)) == len(group.characters)
    assert len(group.characters) + 4 * len(group.irreps) == n


def test_out_of_range_parameters_are_refused():
    for n in (0, -3):
        with pytest.raises(ValueError, match="cyclic order must be >= 1"):
            cyclic_group(n)
    with pytest.raises(ValueError, match="dihedral group needs k >= 3, got 2"):
        dihedral_group(2)
