import copy

import pytest

from hopfatlas.atlas import build, list_families, shipped_surjections
from hopfatlas.hopf import (
    CoinvariantDimensionError,
    FinHopf,
    ShapeError,
    coinvariants,
    equal_tensors,
    hopf_dual,
    tensor_hopf,
    verify_antipode,
    verify_bialgebra,
    verify_hopf_morphism,
)
from hopfatlas.linalg import LinearMap
from hopfatlas.scalars import FieldElem


def test_group_algebra_verifies():
    assert verify_bialgebra(build("kC2")).ok
    assert verify_antipode(build("kC2")).ok


def test_sweedler_verifies():
    h4 = build("h4")
    assert verify_bialgebra(h4).ok and verify_antipode(h4).ok


def test_corrupted_relation_fails_comult_compat():
    h4 = build("h4")
    mult = {k: dict(v) for k, v in h4.mult.items()}
    # basis 1, g, x, gx: force x*g = +gx instead of -gx
    mult[(2, 1)] = {3: FieldElem.one(h4.order)}
    bad = FinHopf("h4-corrupt", 4, h4.order, mult, dict(h4.unit), h4.comult,
                  dict(h4.counit), h4.antipode)
    rep = verify_bialgebra(bad)
    assert not rep.ok
    assert "comult-algebra-map" in rep.failed_axioms()
    witnesses = [w for ax, w, _ in rep.failures if ax == "comult-algebra-map"]
    assert any(w for w in witnesses)


@pytest.mark.parametrize("part,message", [
    (lambda h, one: {"mult": {**h.mult, (4, 0): {0: one}}}, "mult entry out of range at (4,0)"),
    (lambda h, one: {"mult": {**h.mult, (1, 2): {4: one}}}, "mult entry out of range at (1,2)"),
    (lambda h, one: {"comult": {**h.comult, 0: {(0, 4): one}}}, "comult entry out of range at 0"),
    (lambda h, one: {"unit": {4: one}}, "unit/counit out of range"),
    (lambda h, one: {"antipode": LinearMap(h.order, 4, 5, h.antipode.columns)},
     "antipode must be 4x4"),
], ids=["mult-key", "mult-row", "comult-index", "unit-index", "antipode-not-square"])
def test_verify_bialgebra_refuses_malformed_tables(part, message):
    h4 = build("h4")
    bad = copy.copy(h4)
    bad.name = "h4-bad"
    for attr, value in part(h4, FieldElem.one(h4.order)).items():
        setattr(bad, attr, value)
    with pytest.raises(ShapeError) as exc:
        verify_bialgebra(bad)
    assert str(exc.value) == f"h4-bad: {message}"


def test_identity_antipode_fails_on_skew():
    h4 = build("h4")
    bad = FinHopf("h4-idS", 4, h4.order, h4.mult, dict(h4.unit), h4.comult,
                  dict(h4.counit), LinearMap.identity(h4.order, 4))
    rep = verify_antipode(bad)
    assert not rep.ok
    # x sits at basis index 2
    assert any(2 in w for _, w, _ in rep.failures)


def test_dual_examples():
    c2 = build("kC2")
    d = hopf_dual(c2)
    # two orthogonal idempotents: f_i * f_i = f_i, f_0 * f_1 = 0
    f0, f1 = d.basis_elem(0), d.basis_elem(1)
    assert d.mul(f0, f1) == {}
    assert d.mul(f0, f0) == f0 and d.mul(f1, f1) == f1
    t = build("taft4")
    assert equal_tensors(hopf_dual(hopf_dual(t)), t)


def test_dual_of_a4pp_invariants():
    from hopfatlas.invariants import coradical

    d = build("dual:a4pp")
    assert d.dim == 8
    assert verify_bialgebra(d).ok and verify_antipode(d).ok
    assert coradical(d).dim == 6


def test_tensor_examples():
    h4, c3 = build("h4"), build("kC3")
    t = tensor_hopf(h4, c3)
    assert t.dim == 12
    assert verify_bialgebra(t).ok and verify_antipode(t).ok
    assert equal_tensors(tensor_hopf(h4, build("kC1")), h4)
    assert equal_tensors(hopf_dual(t), tensor_hopf(hopf_dual(h4), hopf_dual(c3)))


def test_morphism_examples():
    h4 = build("h4")
    ident = LinearMap.identity(h4.order, 4)
    assert verify_hopf_morphism(ident, h4, h4).ok
    big, small, pi = shipped_surjections()["h4xc3-to-h4"]
    assert verify_hopf_morphism(pi, big, small).ok
    # counit as a map to the one-dimensional Hopf algebra
    one = build("kC1")
    eps_cols = [
        {0: h4.counit[i].embed(2)} if i in h4.counit else {} for i in range(4)
    ]
    eps_map = LinearMap(2, 4, 1, eps_cols)
    assert verify_hopf_morphism(eps_map, h4, one).ok


def test_coinvariants_examples():
    table = shipped_surjections()
    big, small, pi = table["h4xc3-to-h4"]
    sub = coinvariants(big, small, pi, "right")
    assert sub.dim == 3  # forced by the dimension law: 12 = 3 * 4
    big, small, pi = table["h4xc3-to-kc3"]
    sub = coinvariants(big, small, pi, "right")
    assert sub.dim == 4
    h4 = build("h4")
    sub = coinvariants(h4, h4, LinearMap.identity(h4.order, 4), "right")
    assert sub.dim == 1 and sub.contains(h4.one_elem())


def test_coinvariants_dimension_law_hard_error():
    h4, c2 = build("h4"), build("kC2")
    # surjective linear map that is not a Hopf algebra map: 1,g -> 1, x -> c
    bogus = LinearMap(2, 4, 2, [
        {0: FieldElem.one(2)}, {0: FieldElem.one(2)},
        {1: FieldElem.one(2)}, {},
    ])
    with pytest.raises(CoinvariantDimensionError):
        coinvariants(h4, c2, bogus, "right")


def test_left_right_coinvariants_dimension_law():
    for name, (big, small, pi) in shipped_surjections().items():
        for side in ("left", "right"):
            sub = coinvariants(big, small, pi, side)
            assert sub.dim * small.dim == big.dim, (name, side)


def _grouplike_candidates(h):
    """The claimed grouplikes; each with one coefficient changed; sums of two
    (counit 2) and g_a + g_b - g_c (counit 1), cancelled entries kept as
    explicit zeros; the zero vector."""
    def combination(*terms):
        out = {}
        for sign, v in terms:
            for i, x in v.items():
                out[i] = out.get(i, 0 * x) + sign * x
        return out

    gs = h.metadata.get("claimed_grouplikes", [])
    out = [dict(g) for g in gs] + [{}]
    out += [{**g, min(g): g[min(g)] + g[min(g)] * g[min(g)]} for g in gs]
    out += [combination((1, a), (1, b)) for a, b in zip(gs, gs[1:])]
    out += [combination((1, a), (1, b), (-1, c)) for a, b, c in zip(gs, gs[1:], gs[2:])]
    return out


def test_is_grouplike_matches_its_definition():
    # unseeded: every claim of every listed family and of its dual
    checked = 0
    for fam in list_families():
        for k in (build(fam), hopf_dual(build(fam))):
            for u in _grouplike_candidates(k):
                expect = k.delta(u) == k.tensor_elem(u, u) and k.eps(u) == 1
                assert k.is_grouplike(u) == expect, (k.name, u)
                checked += expect
    assert checked >= 2 * len(list_families())
