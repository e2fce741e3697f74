"""Verification of claimed Hopf algebra isomorphisms and a bounded witness search.

A witness assigns target elements to the source family's generators.  The
induced map extends multiplicatively along the source monomial basis, must
be well-defined on the relations, bijective, and a Hopf algebra morphism.

The search is witness-producing, never witness-refuting: grids are finite
and exhaustion returns an explicit "none found", which is not a proof of
non-isomorphism.  Enumeration order is deterministic and documented below,
so the first witness found is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm

from . import invariants as inv
from .atlas import presentation
from .hopf import FinHopf, Report, hopf_dual, verify_hopf_morphism
from .linalg import LinearMap, sp_add_into, sp_scale
from .scalars import FieldElem, embed


@dataclass
class IsoWitness:
    source_family: str
    target: str               # family string
    generator_images: dict    # name -> sparse vector in the target basis


class WitnessError(ValueError):
    pass


def _common_field(h: FinHopf, k: FinHopf, witness: IsoWitness):
    """h, k and the witness's generator images, embedded in one field."""
    images = witness.generator_images
    order = lcm(h.order, k.order, *(c.order for v in images.values() for c in v.values()))
    return h.embed(order), k.embed(order), embed(images, order)


def _presentation(h: FinHopf):
    pres = presentation(h.metadata.get("family"))
    if pres is None:
        raise WitnessError(f"no presentation registered for {h.name!r}")
    return pres


def induced_map(source: FinHopf, target: FinHopf, images: dict) -> LinearMap:
    cols = [target.word_image(images, word) for word in _presentation(source).words]
    return LinearMap(target.order, source.dim, target.dim, cols)


def verify_iso(h: FinHopf, k: FinHopf, witness: IsoWitness) -> Report:
    """Extend generator images along the source basis; check relations,
    bijectivity, and the full morphism axioms."""
    pres = _presentation(h)
    rep = Report(f"iso({h.name}->{k.name})")
    if h.dim != k.dim:
        rep.fail("dimension", (h.dim, k.dim))
        return rep
    hs, ks, images = _common_field(h, k, witness)
    failed = pres.relations(images, ks)
    if failed:
        rep.fail("relations", tuple(failed), "not well-defined on relations, witness invalid")
        return rep
    f = induced_map(hs, ks, images)
    if not f.is_bijective():
        rep.fail("bijectivity", (f.rank(),), f"rank {f.rank()} < {h.dim}")
        return rep
    morph = verify_hopf_morphism(f, hs, ks)
    for failure in morph.failures:
        rep.fail(*failure)
    return rep


# ---------------------------------------------------------------------------
# grid search
#
# Deterministic enumeration order: grouplike generators take images over the
# certified grouplike list of the target, filtered by element order, in list
# order; skew generators take grid-coefficient combinations over the basis of
# the matching skew-primitive space, with coefficients iterated in grid order,
# last basis vector fastest.  The first verified witness is returned.
# ---------------------------------------------------------------------------

def default_grid(order: int):
    grid = [FieldElem.zero(order), FieldElem.one(order), -FieldElem.one(order)]
    for k in range(1, order):
        z = FieldElem.zeta(order, k)
        for cand in (z, -z):
            if cand not in grid:
                grid.append(cand)
    half = FieldElem.from_rational("1/2", order)
    two = FieldElem.from_rational(2, order)
    for cand in (half, -half, two, -two):
        if cand not in grid:
            grid.append(cand)
    return grid


def search_iso(h: FinHopf, k: FinHopf, grid=None, budget: int = 200000):
    """Bounded deterministic search for an isomorphism witness h -> k.

    Returns an IsoWitness or the string "none found (budget)" /
    "none found (grid exhausted)"; exhaustion is NOT a non-isomorphism proof.
    """
    fam = h.metadata.get("family")
    pres = _presentation(h)
    if not pres.grouplike_gens and pres.skew_gens == {}:
        raise WitnessError(f"{fam}: search supports grouplike/skew generated families")
    if h.dim != k.dim:
        return "none found (dimension mismatch)"
    order = lcm(h.order, k.order)
    hs, ks = h.embed(order), k.embed(order)
    grep = inv.grouplikes(ks)
    if not grep.complete:
        return "none found (target grouplikes not certified)"
    if grid is None:
        grid = default_grid(order)
    else:
        grid = embed(list(grid), order)

    gl_names = list(pres.grouplike_gens)
    gl_choices = []
    for name in gl_names:
        want = pres.grouplike_gens[name]
        opts = [
            dict(g) for g, o in zip(grep.verified, grep.orders) if o == want
        ]
        if not opts:
            return "none found (no grouplike of matching order)"
        gl_choices.append(opts)

    skew_names = list(pres.skew_gens)
    counter = [0]

    def skew_candidates(images, name):
        partner = ks.word_image(images, pres.skew_gens[name].items())
        space = inv.skew_space(ks, ks.one_elem(), partner)
        basis = space.basis_vectors()
        # grid^dim, last coordinate fastest; grid index 0 contributes nothing,
        # and the zero vector is skipped
        for idx in product(range(len(grid)), repeat=len(basis)):
            vec = {}
            for t, b in zip(idx, basis):
                if t:
                    sp_add_into(vec, sp_scale(b, grid[t]))
            if vec:
                yield vec

    def assign_skews(i, images):
        if i == len(skew_names):
            yield dict(images)
            return
        name = skew_names[i]
        for cand in skew_candidates(images, name):
            counter[0] += 1
            if counter[0] > budget:
                raise _Budget()
            images[name] = cand
            # partial relation check: unassigned skew generators act as 0
            if i + 1 == len(skew_names) or not pres.relations(
                    images | {gen: {} for gen in pres.gen_names if gen not in images}, ks):
                yield from assign_skews(i + 1, images)
        images.pop(name, None)

    class _Budget(Exception):
        pass

    try:
        for gl_combo in product(*gl_choices):  # first generator slowest
            for images in assign_skews(0, dict(zip(gl_names, gl_combo))):
                if pres.relations(images, ks):
                    continue
                f = induced_map(hs, ks, images)
                if not f.is_bijective():
                    continue
                if verify_hopf_morphism(f, hs, ks).ok:
                    return IsoWitness(fam, k.metadata.get("family", k.name), images)
    except _Budget:
        return "none found (budget)"
    return "none found (grid exhausted)"


# ---------------------------------------------------------------------------
# invariant-based distinction
# ---------------------------------------------------------------------------

def distinguish(h: FinHopf, k: FinHopf):
    """First differing isomorphism invariant, or None if indistinguishable
    by the implemented invariants."""
    if h.dim != k.dim:
        return ("dim", h.dim, k.dim)
    sh, sk = inv.summarize(h), inv.summarize(k)
    checks = [
        ("is_semisimple", sh.is_semisimple, sk.is_semisimple),
        ("type", sh.hopf_type, sk.hopf_type),
        ("antipode_order", sh.antipode_order, sk.antipode_order),
        ("filtration_dims", tuple(sh.filtration), tuple(sk.filtration)),
        ("skew_table_dims", _skew_multiset(sh), _skew_multiset(sk)),
    ]
    for name, a, b in checks:
        if a != b:
            return (name, a, b)
    dh, dk = inv.coradical_filtration(hopf_dual(h)), inv.coradical_filtration(hopf_dual(k))
    if dh.layer_dims != dk.layer_dims:
        return ("dual_filtration_dims", tuple(dh.layer_dims), tuple(dk.layer_dims))
    return None


def _skew_multiset(summary):
    return tuple(sorted(summary.skew_table.values()))
