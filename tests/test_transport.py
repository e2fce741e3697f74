"""Basis-change metamorphic oracle.

transport(h, P) writes the Hopf algebra h in the basis c_i = sum_k P[k][i] b_k.
P is a seeded sparse invertible rational matrix, a permutation times a
unitriangular matrix with a few entries in {+-1, +-2, +-1/2}, so the
transported structure constants are dense-ish and carry denominators, unlike
the monomial bases of the atlas.  The result is isomorphic to h, so it must
verify, and every isomorphism invariant the paper counts with (coradical
filtration, grouplikes, skew-primitive dimensions, antipode order,
trace(S^2)) must come out the same.  Families of dimension <= 12 are drawn
by HOPFATLAS_TEST_SEED.
"""

import os
import random
from fractions import Fraction

import pytest

from hopfatlas import invariants as inv
from hopfatlas.atlas import build, list_families
from hopfatlas.hopf import FinHopf, verify_antipode, verify_bialgebra
from hopfatlas.linalg import LinearMap, sp_add_into
from hopfatlas.scalars import FieldElem

SEED = int(os.environ.get("HOPFATLAS_TEST_SEED", "0"))
ENTRIES = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))
FIXED = ("taft3", "a22")


def basis_change(order: int, n: int, rng) -> LinearMap:
    """P = permutation * unitriangular, with about n/3 off-diagonal entries,
    the first of them +-1/2."""
    one = FieldElem.one(order)
    cols = [{i: one} for i in range(n)]
    for e in range(max(1, n // 3) if n > 1 else 0):
        i, j = sorted(rng.sample(range(n), 2))
        q = rng.choice(ENTRIES[-2:] if e == 0 else ENTRIES)  # at least one 1/2
        cols[j][i] = FieldElem.from_rational(q, order)
    perm = list(range(n))
    rng.shuffle(perm)
    return LinearMap(order, n, n, [{perm[r]: c for r, c in col.items()} for col in cols])


def transport(h: FinHopf, P: LinearMap) -> FinHopf:
    """h written in the basis given by the columns of P."""
    n, order = h.dim, h.order
    Pinv = P.inverse()
    new = Pinv.apply              # old coordinates -> new coordinates
    functional = P.transpose().apply   # f -> f o P, for functionals on h
    c = P.columns                 # the new basis in old coordinates

    def new_pairs(t):
        out = {}
        for (j, k), a in t.items():
            for x, u in Pinv.columns[j].items():
                sp_add_into(out, {(x, y): u * v for y, v in Pinv.columns[k].items()}, a)
        return out

    mult = {(i, j): row for i in range(n) for j in range(n) if (row := new(h.mul(c[i], c[j])))}
    comult = {i: row for i in range(n) if (row := new_pairs(h.delta(c[i])))}
    counit = {i: e for i in range(n) if (e := h.eps(c[i]))}
    meta = dict(h.metadata)
    meta["claimed_grouplikes"] = [new(g) for g in meta.get("claimed_grouplikes", [])]
    meta["claimed_matrix_bases"] = [[[new(v) for v in row] for row in block]
                                    for block in meta.get("claimed_matrix_bases", [])]
    meta["claimed_generators"] = {g: new(v) for g, v in meta.get("claimed_generators", {}).items()}
    meta["dual_grouplikes"] = [functional(f) for f in meta.get("dual_grouplikes", [])]
    meta["dual_matrix_bases"] = [[[functional(f) for f in row] for row in block]
                                 for block in meta.get("dual_matrix_bases", [])]
    return FinHopf(f"{h.name}^P", n, order, mult, new(h.unit), comult, counit,
                   Pinv.compose(h.antipode.compose(P)), meta)


def _family(case: str) -> str:
    if not case.startswith("seeded:"):
        return case
    pool = [f for f in list_families() if f not in FIXED and build(f).dim <= 12]
    return random.Random(SEED).sample(pool, 3)[int(case[7:])]


def _invariants(h: FinHopf):
    s = inv.summarize(h)
    return {
        "coradical": s.corad_dim,
        "filtration": s.filtration,
        "grouplikes": s.grouplike_count,
        "dual grouplikes": s.dual_grouplike_count,
        "grouplike orders": sorted(inv.grouplikes(h).orders),
        "skew dims": sorted(s.skew_table.values()),
        "antipode order": s.antipode_order,
        "trace S^2": s.trace_S2,
    }


@pytest.mark.parametrize("case", FIXED + ("seeded:0", "seeded:1", "seeded:2"))
def test_transport_keeps_axioms_and_invariants(case):
    fam = _family(case)
    h = build(fam)
    rng = random.Random(f"{SEED}:{fam}")
    P = basis_change(h.order, h.dim, rng)
    t = transport(h, P)
    tables = list(t.mult.values()) + list(t.comult.values()) + t.antipode.columns
    assert any(c.den > 1 for row in tables for c in row.values()), fam
    assert verify_bialgebra(t).ok and verify_antipode(t).ok, fam
    assert _invariants(t) == _invariants(h), fam

    # one changed entry is rejected: b_i*b_j gains b_k for some b_i in the
    # support of the unit, so 1*b_j != b_j ...
    i, j, k = rng.choice(sorted(t.unit)), rng.randrange(t.dim), rng.randrange(t.dim)
    mult = {key: dict(row) for key, row in t.mult.items()}
    row = mult.setdefault((i, j), {})
    row[k] = row.get(k, FieldElem.zero(t.order)) + 1
    if not row[k]:
        del row[k]
    bad = FinHopf(t.name, t.dim, t.order, mult, t.unit, t.comult, t.counit, t.antipode, t.metadata)
    assert not verify_bialgebra(bad).ok, fam
    # ... and a changed antipode entry is no convolution inverse of the identity
    cols = [dict(col) for col in t.antipode.columns]
    r, s = rng.randrange(t.dim), rng.randrange(t.dim)
    cols[s][r] = cols[s].get(r, FieldElem.zero(t.order)) + 1
    if not cols[s][r]:
        del cols[s][r]
    anti = LinearMap(t.order, t.dim, t.dim, cols)
    bad = FinHopf(t.name, t.dim, t.order, t.mult, t.unit, t.comult, t.counit, anti, t.metadata)
    assert not verify_antipode(bad).ok, fam
