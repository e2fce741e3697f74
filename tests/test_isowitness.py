import pytest

from hopfatlas.atlas import build, builtin_witnesses
from hopfatlas.hopf import verify_hopf_morphism
from hopfatlas.isowitness import (
    IsoWitness,
    distinguish,
    induced_map,
    search_iso,
    verify_iso,
)
from hopfatlas.scalars import FieldElem


def test_builtin_witnesses_all_verify():
    for w in builtin_witnesses():
        h = build(w.source_family)
        k = build(w.target)
        assert verify_iso(h, k, w).ok, (w.source_family, w.target)


def test_identity_witness():
    h4 = build("h4")
    w = IsoWitness("h4", "h4", {
        "g": h4.basis_elem(1), "x": h4.basis_elem(2),
    })
    assert verify_iso(h4, h4, w).ok


def test_invalid_witness_fails_on_relations():
    # mapping g -> g, x -> x from a4p to a4pp violates the x^2 relation
    a4p, a4pp = build("a4p"), build("a4pp")
    w = IsoWitness("a4p", "a4pp", {"g": a4pp.basis_elem(1), "x": a4pp.basis_elem(4)})
    rep = verify_iso(a4p, a4pp, w)
    assert not rep.ok
    assert rep.failures[0][0] == "relations"
    assert "x^2" in rep.failures[0][1]


def test_search_finds_taft_self_duality():
    for fam in ("taft2", "taft3"):
        w = search_iso(build(fam), build(f"dual:{fam}"))
        assert not isinstance(w, str)
        assert verify_iso(build(fam), build(f"dual:{fam}"), w).ok


def test_search_respects_budget():
    out = search_iso(build("taft3"), build("dual:taft3"), budget=0)
    assert out == "none found (budget)"


def test_search_failure_is_explicit_not_a_proof():
    out = search_iso(build("a4p"), build("a4pp"),
                     grid=[FieldElem.zero(4), FieldElem.one(4)], budget=5000)
    assert isinstance(out, str) and out.startswith("none found")


def test_inverse_witness_is_morphism():
    w = [x for x in builtin_witnesses() if x.source_family == "taft3"][0]
    h, k = build("taft3"), build("dual:taft3")
    inv_map = induced_map(h, k, w.generator_images).inverse()
    assert verify_hopf_morphism(inv_map, k.embed(inv_map.order), h.embed(inv_map.order)).ok


def test_distinguish_separates_a4p_a4pp():
    cert = distinguish(build("a4p"), build("a4pp"))
    assert cert is not None
    name, a, b = cert
    assert a != b


def test_distinguish_h4xc3_vs_am11():
    cert = distinguish(build("h4xc:3"), build("am11:3"))
    assert cert is not None


def test_distinguish_self_is_none():
    assert distinguish(build("k8"), build("k8")) is None


def test_distinguish_indistinguishable_on_witness_pairs():
    # every invariant used by distinguish is an isomorphism invariant
    for w in builtin_witnesses():
        h, k = build(w.source_family), build(w.target)
        assert distinguish(h, k) is None, (w.source_family, w.target)
