import pytest

from hopfatlas.atlas import (
    AtlasConstructionError,
    UnknownFamilyError,
    build,
    builtin_witnesses,
    list_families,
    parse_family,
    sub_hopf_claims,
)
from hopfatlas.groups import parse_group
from hopfatlas.hopf import hopf_dual, verify_hopf_morphism
from hopfatlas.linalg import Subspace
from hopfatlas.serialize import dump_algebra, dump_witness, load_algebra, load_witness


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


def test_group_descriptors():
    assert parse_group("C6").order == 6
    assert parse_group("C2xC2").order == 4
    assert parse_group("D5").order == 10
    with pytest.raises(ValueError):
        parse_group("Q8")


def test_serialization_round_trip_byte_identical():
    for fam in ("h4", "taft3", "k8", "kD3dual", "am10d:3"):
        h = build(fam)
        text = dump_algebra(h)
        again = dump_algebra(load_algebra(text))
        assert text == again
        loaded = load_algebra(text)
        from hopfatlas.hopf import equal_tensors, verify_antipode, verify_bialgebra

        assert verify_bialgebra(loaded).ok and verify_antipode(loaded).ok
        assert equal_tensors(loaded, h)


def test_witness_files_round_trip():
    for w in builtin_witnesses()[:3]:
        text = dump_witness(w)
        again = dump_witness(load_witness(text, w.target_hopf()))
        assert text == again


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
    from hopfatlas.atlas import matrix_coalgebra
    from hopfatlas.linalg import sp_add_into

    dim, comult, counit = matrix_coalgebra(2)
    assert dim == 4
    # coassociativity on every basis element
    for i in range(dim):
        left, right = {}, {}
        for (j, k), c in comult[i].items():
            for (a, b), c2 in comult[j].items():
                sp_add_into(left, {(a, b, k): c * c2})
            for (a, b), c2 in comult[k].items():
                sp_add_into(right, {(j, a, b): c * c2})
        assert left == right
    # counit laws: (eps (x) id) after comult is the identity
    for i in range(dim):
        lc = {}
        for (j, k), c in comult[i].items():
            e = counit.get(j)
            if e:
                sp_add_into(lc, {k: c * e})
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
