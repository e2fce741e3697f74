"""Differential test of the axiom checkers against singleton-basis references.

The checkers in hopf.py read products, counits, antipode and morphism images
straight from the structure tables.  The references below are the earlier
checkers, which applied every map and multiplication to basis singletons
b_i = {i: 1}.  On perturbed copies of a few families (one entry changed,
deleted or set to an explicit zero in mult, comult, counit or the antipode
columns, positions drawn from HOPFATLAS_TEST_SEED) both must return the same
failure list: axiom, witness tuple, message and order.
"""

import os
import random

import pytest

from hopfatlas.atlas import build
from hopfatlas.hopf import (
    FinHopf,
    Report,
    _check_shapes,
    verify_antipode,
    verify_bialgebra,
    verify_hopf_morphism,
)
from hopfatlas.linalg import LinearMap, sp_add_into, sp_scale
from hopfatlas.scalars import FieldElem

SEED = int(os.environ.get("HOPFATLAS_TEST_SEED", "0"))

FAMILIES = ("h4", "kC3dual", "kD3dual", "k8", "taft3")
TABLES = ("mult", "comult", "counit", "antipode")
KINDS = ("changed", "deleted", "zero")


# -- references: every product and map applied to basis singletons ------------

def reference_bialgebra(h: FinHopf) -> Report:
    _check_shapes(h)
    rep = Report(f"bialgebra({h.name})")
    n = h.dim
    one = h.one_elem()

    for i in range(n):
        b = h.basis_elem(i)
        if h.mul(one, b) != b or h.mul(b, one) != b:
            rep.fail("unit", (i,), "1*b != b or b*1 != b")

    for i in range(n):
        for j in range(n):
            bij = h.mul(h.basis_elem(i), h.basis_elem(j))
            for k in range(n):
                left = h.mul(bij, h.basis_elem(k))
                right = h.mul(h.basis_elem(i), h.mul(h.basis_elem(j), h.basis_elem(k)))
                if left != right:
                    rep.fail("associativity", (i, j, k))

    for i in range(n):
        d = h.comult.get(i, {})
        left = {}
        right = {}
        for (j, k), c in d.items():
            for (a, b), c2 in h.comult.get(j, {}).items():
                sp_add_into(left, {(a, b, k): c * c2}, None)
            for (a, b), c2 in h.comult.get(k, {}).items():
                sp_add_into(right, {(j, a, b): c * c2}, None)
        if left != right:
            rep.fail("coassociativity", (i,))
        lc, rc = {}, {}
        for (j, k), c in d.items():
            e = h.counit.get(j)
            if e:
                sp_add_into(lc, {k: c * e}, None)
            e = h.counit.get(k)
            if e:
                sp_add_into(rc, {j: c * e}, None)
        if lc != h.basis_elem(i) or rc != h.basis_elem(i):
            rep.fail("counit", (i,))

    unit_tensor = h.tensor_elem(one, one)
    if h.delta(one) != unit_tensor:
        rep.fail("comult-algebra-map", ("unit",), "Delta(1) != 1(x)1")
    if not h.eps(one) == 1:
        rep.fail("counit-algebra-map", ("unit",), "eps(1) != 1")
    for i in range(n):
        di = h.comult.get(i, {})
        for j in range(n):
            prod = h.mul(h.basis_elem(i), h.basis_elem(j))
            if h.delta(prod) != h.mul2(di, h.comult.get(j, {})):
                rep.fail("comult-algebra-map", (i, j))
            lhs = h.eps(prod)
            rhs = h.eps(h.basis_elem(i)) * h.eps(h.basis_elem(j))
            if lhs != rhs:
                rep.fail("counit-algebra-map", (i, j))
    return rep


def reference_antipode(h: FinHopf) -> Report:
    rep = Report(f"antipode({h.name})")
    for i in range(h.dim):
        target = sp_scale(h.unit, h.counit.get(i, FieldElem.zero(h.order)))
        left, right = {}, {}
        for (j, k), c in h.comult.get(i, {}).items():
            sp_add_into(left, h.mul(h.s(h.basis_elem(j)), h.basis_elem(k)), c)
            sp_add_into(right, h.mul(h.basis_elem(j), h.s(h.basis_elem(k))), c)
        if left != target:
            rep.fail("antipode-left", (i,))
        if right != target:
            rep.fail("antipode-right", (i,))
    return rep


def reference_morphism(f: LinearMap, h: FinHopf, k: FinHopf) -> Report:
    # all three arguments share one field order here, so no embedding
    rep = Report(f"morphism({h.name}->{k.name})")
    if f.apply(h.one_elem()) != k.one_elem():
        rep.fail("unit", (), "f(1) != 1")
    for i in range(h.dim):
        fi = f.apply(h.basis_elem(i))
        for j in range(h.dim):
            if f.apply(h.mul(h.basis_elem(i), h.basis_elem(j))) != k.mul(fi, f.apply(h.basis_elem(j))):
                rep.fail("mult", (i, j))
        lhs = {}
        for (a, b), c in h.comult.get(i, {}).items():
            sp_add_into(lhs, k.tensor_elem(f.apply(h.basis_elem(a)), f.apply(h.basis_elem(b))), c)
        if lhs != k.delta(fi):
            rep.fail("comult", (i,))
        if h.eps(h.basis_elem(i)) != k.eps(fi):
            rep.fail("counit", (i,))
        if f.apply(h.s(h.basis_elem(i))) != k.s(fi):
            rep.fail("antipode", (i,), "S-compatibility failed: inconsistent input")
    return rep


# -- perturbed copies ------------------------------------------------------------

def _perturb_row(row: dict, keys, kind, rng, zero):
    """Change or delete one stored entry of row, or store an explicit zero at
    a key drawn from keys (present or not)."""
    if kind == "zero":
        row[rng.choice(keys)] = zero
        return
    key = rng.choice(sorted(row))
    if kind == "changed":
        row[key] = row[key] + row[key]
    else:
        del row[key]


def perturbed(h: FinHopf, table: str, kind: str, rng) -> FinHopf:
    n, zero = h.dim, FieldElem.zero(h.order)
    mult = {ij: dict(row) for ij, row in h.mult.items()}
    comult = {i: dict(row) for i, row in h.comult.items()}
    counit = dict(h.counit)
    cols = [dict(col) for col in h.antipode.columns]
    if table == "counit":
        _perturb_row(counit, range(n), kind, rng, zero)
    else:
        rows = {"mult": mult, "comult": comult, "antipode": dict(enumerate(cols))}[table]
        if kind == "zero":
            key = rng.choice(sorted(rows))
        else:
            key = rng.choice(sorted(k for k, row in rows.items() if row))
        keys = [(a, b) for a in range(n) for b in range(n)] if table == "comult" else range(n)
        _perturb_row(rows[key], keys, kind, rng, zero)
    return FinHopf(f"{h.name}~", n, h.order, mult, dict(h.unit), comult, counit,
                   LinearMap(h.order, n, n, cols), dict(h.metadata))


CASES = [(fam, table, kind) for fam in FAMILIES for table in TABLES for kind in KINDS]


@pytest.mark.parametrize("fam,table,kind", CASES, ids=["-".join(c) for c in CASES])
def test_checkers_match_singleton_references(fam, table, kind):
    h = build(fam)
    bad = perturbed(h, table, kind, random.Random(f"{SEED}:{fam}:{table}:{kind}"))
    ident = LinearMap.identity(h.order, h.dim)
    pairs = [
        (verify_bialgebra(bad), reference_bialgebra(bad)),
        (verify_antipode(bad), reference_antipode(bad)),
        (verify_hopf_morphism(ident, bad, h), reference_morphism(ident, bad, h)),
        (verify_hopf_morphism(ident, h, bad), reference_morphism(ident, h, bad)),
    ]
    for new, ref in pairs:
        assert new.subject == ref.subject
        assert new.failures == ref.failures, ref.subject
    if kind == "changed":
        assert any(ref.failures for _, ref in pairs), "a changed entry went unnoticed"
