import copy
import json
import re

import pytest

from json_trace import assert_same_text

from hopfatlas.atlas import (
    AtlasConstructionError,
    UnknownFamilyError,
    build,
    builtin_witnesses,
    list_families,
    parse_family,
    sub_hopf_claims,
)
from hopfatlas.hopf import hopf_dual, verify_hopf_morphism
from hopfatlas.linalg import Subspace
from hopfatlas.serialize import (
    FormatError,
    dump_algebra,
    dump_witness,
    load_algebra,
    load_witness,
)


def test_dims_match():
    assert build("taft2").dim == 4
    assert build("taft3").dim == 9
    assert build("taft4").dim == 16
    for fam in ("a2", "a4p", "a4pp", "a4ppp+", "a4ppp-", "a22", "k8"):
        assert build(fam).dim == 8
    for p in (3, 5):
        for fid in ("am10", "am10d", "am11", "h4xc"):
            assert build(f"{fid}:{p}").dim == 4 * p


def test_parse_errors():
    with pytest.raises(UnknownFamilyError):
        parse_family("nope")
    with pytest.raises(ValueError):
        build("taft1")
    with pytest.raises(ValueError):
        build("am10:4")  # not an odd prime
    with pytest.raises(ValueError):
        build("am11:9")
    with pytest.raises(UnknownFamilyError):
        sub_hopf_claims("k8")  # its generators are not grouplike or skew-primitive


@pytest.mark.parametrize("name", ["kCdual", "kCxdual", "taftq", "kD dual", "am10:p"])
def test_non_integer_parameter_is_an_unknown_family(name):
    with pytest.raises(UnknownFamilyError, match=f"^unknown family {name!r}$"):
        parse_family(name)


def test_sweedler_structure():
    h4 = build("h4")
    # relations: x^2 = 0, g^2 = 1, gx = -xg; Delta x = x(x)1 + g(x)x
    g, x = h4.basis_elem(1), h4.basis_elem(2)
    assert h4.mul(x, x) == {}
    assert h4.mul(g, g) == h4.one_elem()
    gx = h4.mul(g, x)
    xg = h4.mul(x, g)
    assert {k: -v for k, v in xg.items()} == gx
    assert h4.delta(x) == {(2, 0): h4.scalar(1), (1, 2): h4.scalar(1)}


def test_am11_relation():
    h = build("am11:3")
    g, x = h.basis_elem(1), h.basis_elem(6)
    # x^2 - g^2 + 1 = 0 and g has order 6
    want = h.mul(g, g)
    lhs = dict(h.mul(x, x))
    lhs_plus_one = dict(lhs)
    from hopfatlas.linalg import sp_add_into

    sp_add_into(lhs_plus_one, h.one_elem())
    assert lhs_plus_one == want
    from hopfatlas.invariants import grouplikes

    rep = grouplikes(h)
    assert rep.complete and sorted(rep.orders) == [1, 2, 3, 3, 6, 6]


def test_k8_coalgebra_decomposition():
    k8 = build("k8")
    blocks = k8.metadata["claimed_matrix_bases"]
    assert len(blocks) == 1 and len(blocks[0]) == 2
    from hopfatlas.invariants import verify_coalgebra_profile

    prof = verify_coalgebra_profile(k8)
    assert prof.certified and prof.grouplike_count == 2 and prof.blocks == ((2, 1),)
    assert prof.corad_dim == 6  # pointed part of dim 2 plus one 4-dim matrix block


def test_grouplike_claims_are_units():
    for fam in ("taft3", "a22", "k8", "am10d:3", "kD5dual"):
        h = build(fam)
        for g in h.metadata["claimed_grouplikes"]:
            assert h.delta(g) == h.tensor_elem(g, g)
            assert h.eps(g) == 1
            assert h.mul(h.s(g), g) == h.one_elem()


def test_matrix_basis_claims():
    for fam in ("k8", "dual:am11:3", "kD3dual", "kD5dual"):
        h = build(fam)
        for block in h.metadata.get("claimed_matrix_bases", []):
            d = len(block)
            vecs = [block[u][v] for u in range(d) for v in range(d)]
            assert Subspace.from_vectors(h.order, h.dim, vecs).dim == d * d
            for u in range(d):
                for v in range(d):
                    expect = {}
                    from hopfatlas.linalg import sp_add_into

                    for l in range(d):
                        sp_add_into(expect, h.tensor_elem(block[u][l], block[l][v]))
                    assert h.delta(block[u][v]) == expect


def _with_claim(fam, side, kind, edit):
    """A copy of build(fam) whose first claimed grouplike or matrix-like block
    on the given side is edit(claim, grouplikes of that side); the cached
    family stays as it is."""
    h = build(fam)
    prefix = "dual" if side else "claimed"
    key = f"{prefix}_{kind}"
    grouplikes = h.metadata[f"{prefix}_grouplikes"]
    claims = list(h.metadata[key])
    claims[0] = edit(claims[0], grouplikes)
    bad = copy.copy(h)
    bad.metadata = {**h.metadata, key: claims}
    return bad


def _combination(*terms):
    from hopfatlas.linalg import sp_add_into

    out = {}
    for scale, vec in terms:
        sp_add_into(out, vec, scale)
    return out


# (family, claim kind, edit, message after "<family>: <side>"); on the dual
# side the family is dual:<family> for a matrix-like block, because the
# dual_* claims of dual:k8 are the claimed_* ones of k8
_BAD_CLAIMS = {
    # g1 + g2 - g0 has eps 1, but its coproduct is not its own square
    "not-grouplike": ("taft3", "grouplikes",
                      lambda g, gs: _combination((1, gs[1]), (1, gs[2]), (-1, gs[0])),
                      "claimed grouplike fails Delta/eps"),
    # Delta(2 e01) still fits the (0, 1) law, but the (0, 0) law now needs
    # 2 e01 (x) e10
    "entry-changed": ("k8", "matrix_bases",
                      lambda b, gs: [[b[0][0], _combination((2, b[0][1]))], b[1]],
                      "matrix-like comult fails at (0, 0)"),
    "zero-block": ("k8", "matrix_bases", lambda b, gs: [[{}, {}], [{}, {}]],
                   "matrix-like counit fails at (0, 0)"),
    # Delta and eps hold for [[g, 0], [0, g]], but its entries are dependent
    "grouplike-block": ("k8", "matrix_bases", lambda b, gs: [[gs[0], {}], [{}, gs[0]]],
                        "matrix-like basis not independent"),
}


@pytest.mark.parametrize("side", ["", "dual "])
@pytest.mark.parametrize("case", list(_BAD_CLAIMS))
def test_each_corrupted_metadata_claim_is_refused(side, case):
    from hopfatlas.atlas import _verify_metadata_claims

    fam, kind, edit, message = _BAD_CLAIMS[case]
    if side and kind == "matrix_bases":
        fam = f"dual:{fam}"
    _verify_metadata_claims(_with_claim(fam, side, kind, lambda claim, gs: claim), fam)
    with pytest.raises(AtlasConstructionError) as exc:
        _verify_metadata_claims(_with_claim(fam, side, kind, edit), fam)
    assert str(exc.value) == f"{fam}: {side}{message}" and exc.value.report is None


def test_serialization_round_trip_byte_identical():
    for fam in ("h4", "taft3", "k8", "kD3dual", "am10d:3"):
        h = build(fam)
        text = dump_algebra(h)
        again = dump_algebra(load_algebra(text))
        assert_same_text(again, text, fam)
        loaded = load_algebra(text)
        from hopfatlas.hopf import equal_tensors, verify_antipode, verify_bialgebra

        assert verify_bialgebra(loaded).ok and verify_antipode(loaded).ok
        assert equal_tensors(loaded, h)
    for fam in list_families():
        text = dump_algebra(build(fam))
        assert_same_text(dump_algebra(load_algebra(text)), text, fam)


def test_load_algebra_checks_every_coefficient():
    # structure-constant coefficients go through the same checked reader as metadata
    obj = json.loads(dump_algebra(build("taft4")))
    wrong_order = copy.deepcopy(obj)
    wrong_order["mult"][0][3]["N"] = 3
    no_coords = copy.deepcopy(obj)
    del no_coords["unit"][0]["coords"]
    for bad in (wrong_order, no_coords):
        with pytest.raises(FormatError):
            load_algebra(json.dumps(bad))


@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda o: o["mult"][0].__setitem__(2, 99),
                 "'mult': index 99 out of range for dimension 9", id="mult-index"),
    pytest.param(lambda o: o["unit"].append(o["unit"][0]), "'unit' is not a list of 9",
                 id="unit-extra-entry"),
    pytest.param(lambda o: o.__setitem__("format", 2), "not an algebra file of format 1",
                 id="format-2"),
    pytest.param(lambda o: o["antipode"][0].__setitem__(1, 50),
                 "'antipode': index 50 out of range for dimension 9", id="antipode-column"),
    pytest.param(lambda o: o["mult"][0].__delitem__(slice(1, 3)),
                 "is not [index, index, index, coefficient]", id="mult-two-elements"),
    pytest.param(lambda o: o.__delitem__("N"), "N=None", id="missing-N"),
    pytest.param(lambda o: o.__setitem__("dim", "9"), "dim='9'", id="string-dim"),
])
def test_load_algebra_checks_the_table_structure(edit, message):
    # an exported taft3 (dimension 9) with one structural fault each
    obj = json.loads(dump_algebra(build("taft3")))
    edit(obj)
    with pytest.raises(FormatError, match=re.escape(message)):
        load_algebra(json.dumps(obj))


@pytest.mark.parametrize("key,value,message", [
    pytest.param(None, 7, "'metadata' is not an object", id="metadata-int"),
    pytest.param("claimed_grouplikes", 5, "'claimed_grouplikes' is not a list", id="vectors-int"),
    pytest.param("dual_grouplikes", {}, "'dual_grouplikes' is not a list", id="vectors-object"),
    pytest.param("claimed_generators", [], "'claimed_generators' is not an object",
                 id="generators-list"),
    pytest.param("claimed_matrix_bases", 5, "'claimed_matrix_bases' is not a list",
                 id="blocks-int"),
    pytest.param("claimed_matrix_bases", [5], "'claimed_matrix_bases' is not a list",
                 id="block-int"),
    pytest.param("dual_matrix_bases", [[5]], "'dual_matrix_bases' is not a list", id="row-int"),
])
def test_load_algebra_checks_the_metadata_structure(key, value, message):
    # an exported taft3 with its metadata, or one metadata key, replaced
    obj = json.loads(dump_algebra(build("taft3")))
    if key is None:
        obj["metadata"] = value
    else:
        obj["metadata"][key] = value
    with pytest.raises(FormatError, match=re.escape(message)):
        load_algebra(json.dumps(obj))


def test_load_algebra_rejects_text_that_is_not_json():
    with pytest.raises(FormatError, match="not JSON: "):
        load_algebra("{not json")


def test_witness_files_round_trip():
    for w in builtin_witnesses()[:3]:
        text = dump_witness(w)
        again = dump_witness(load_witness(text, build(w.target)))
        assert_same_text(again, text, w.source_family)


def test_h4_embedding_maps_are_injective_morphisms():
    for fam in ("a2", "a22", "a4ppp+", "am10d:5", "h4xc:5", "h4"):
        claim = sub_hopf_claims(fam)
        assert claim.contains_h4
        h4 = build("h4")
        target = build(fam)
        assert claim.embedding.rank() == 4
        assert verify_hopf_morphism(claim.embedding, h4, target).ok


def test_negative_certificates_exhaustive():
    for fam in ("a4p", "a4pp", "am10:5", "am11:5", "taft4"):
        claim = sub_hopf_claims(fam)
        assert not claim.contains_h4
        cert = claim.certificate
        assert cert["order2_grouplikes"] == len(cert["per_grouplike"]) == 1


def test_list_families_builds():
    fams = list_families()
    assert len(fams) == len(set(fams))
    assert "kD3dual" in fams and "kD5dual" in fams and "h4xc:5" in fams


def test_matrix_coalgebra_only():
    # the matrix-like coalgebra laws on k8's claimed 2 x 2 block e_uv, whose
    # entries are basis elements: Delta(e_uv) = sum_l e_ul (x) e_lv
    from hopfatlas.linalg import sp_add_into

    h = build("k8")
    (block,) = h.metadata["claimed_matrix_bases"]
    d = len(block)
    assert d * d == 4
    for u in range(d):
        for v in range(d):
            e_uv = block[u][v]
            delta = h.delta(e_uv)
            expect = {}
            for l in range(d):
                sp_add_into(expect, h.tensor_elem(block[u][l], block[l][v]))
            assert delta == expect
            assert h.eps(e_uv) == (1 if u == v else 0)
            # coassociativity
            left, right = {}, {}
            for (j, k), c in delta.items():
                for (a, b), c2 in h.comult[j].items():
                    sp_add_into(left, {(a, b, k): c * c2})
                for (a, b), c2 in h.comult[k].items():
                    sp_add_into(right, {(j, a, b): c * c2})
            assert left == right
            # counit laws: (eps (x) id) after comult is the identity
            lc = {}
            for (j, k), c in delta.items():
                e = h.counit.get(j)
                if e:
                    sp_add_into(lc, {k: c * e})
            (i,) = e_uv
            assert list(lc) == [i] and lc[i] == 1


def test_pointed_relations_accept_identity_and_reject_perturbed():
    from hopfatlas.atlas import presentation
    from hopfatlas.linalg import sp_add_into

    pointed = [f for f in list_families() if not f.startswith("kC") and not f.startswith("kD")]
    assert len(pointed) == 19
    for fam in pointed:
        h, pres = build(fam), presentation(fam)
        images = {g: h.basis_elem(pres.words.index(((g, 1),))) for g in pres.gen_names}
        assert pres.relations(images, h) == [], fam
        for g in pres.gen_names:
            # g + 1 breaks the power relation of every generator kind
            bent = dict(images)
            bent[g] = sp_add_into(dict(images[g]), h.one_elem())
            assert pres.relations(bent, h), (fam, g)
    assert presentation("kC3") is None and presentation("dual:taft2") is None
    assert presentation(None) is None and presentation("nope") is None


def test_k8_relation_names_and_presentation():
    from hopfatlas.atlas import presentation

    pres = presentation("k8")
    assert pres.gen_names == ["a", "c"] and pres.grouplike_gens == {} and pres.skew_gens == {}
    k8 = build("k8")
    swapped = {"a": k8.basis_elem(4), "c": k8.basis_elem(1)}
    assert set(pres.relations(swapped, k8)) >= {"a^4=1", "c^2"}
