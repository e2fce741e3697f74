"""Acceptance battery: every criterion as a callable returning (ok, detail).

Used by both the pytest suite and the `hopfatlas suite` CLI verb; criteria
run at their stated tolerances, which are exact throughout.
"""

from __future__ import annotations

import random
from math import gcd

from . import invariants as inv
from .atlas import AtlasConstructionError, build, builtin_witnesses, list_families, \
    shipped_surjections, sub_hopf_claims
from .hopf import coinvariants, equal_tensors, hopf_dual, verify_hopf_morphism
from .isowitness import distinguish, search_iso, verify_iso
from .prover import (
    Assumptions,
    CoradicalProfile,
    FREE_TRANSLATION,
    _Call,
    _variable_system,
    apply_base_pack,
    apply_extended_pack,
    full_orbit,
    naive_assignment_oracle,
    prove,
)
from .statuskb import crosscheck_with_prover, status

FLAGS = (FREE_TRANSLATION, full_orbit(2))
AXIOMS = ("pq-half-dim",)


def ac1_axiom_suite(seed=0):
    """Every atlas family passes the bialgebra and antipode axioms exactly."""
    bad = []
    for fam in list_families():
        try:
            build(fam)  # runs both checkers; a failure raises
        except AtlasConstructionError:
            bad.append(fam)
    return not bad, f"all {len(list_families())} families verified" if not bad else f"failed: {bad}"


def ac2_duality(seed=0):
    """dual(dual(H)) = H on tensors for all families; dual(a4pp) matches the
    presentation-built k8 via the shipped change-of-basis witness."""
    for fam in list_families():
        h = build(fam)
        if not equal_tensors(h, hopf_dual(hopf_dual(h))):
            return False, f"dual involution failed on {fam}"
    shipped = [w for w in builtin_witnesses() if w.source_family == "k8"]
    if not shipped:
        return False, "no shipped k8 change-of-basis witness"
    rep = verify_iso(build("k8"), build("dual:a4pp"), shipped[0])
    if not rep.ok:
        return False, f"k8 <-> dual(a4pp) witness failed: {rep.failures[:2]}"
    return True, "dual involution exact on all families; k8 change-of-basis verified"


def ac3_coradical_numbers(seed=0):
    expectations = []
    expectations.append(("h4", inv.coradical(build("h4")).dim, 2))
    expectations.append(("taft3", inv.coradical(build("taft3")).dim, 3))
    expectations.append(("k8", inv.coradical(build("k8")).dim, 6))
    expectations.append(("dual:am11:3", inv.coradical(build("dual:am11:3")).dim, 10))
    filt = inv.coradical_filtration(build("taft3")).layer_dims
    expectations.append(("taft3 filtration", tuple(filt), (3, 6, 9)))
    bad = [(n, g, e) for n, g, e in expectations if g != e]
    return not bad, "coradical dimensions exact" if not bad else f"mismatches: {bad}"


def ac4_larson_radford(seed=0):
    for fam in list_families():
        h = build(fam)
        tr = inv.trace_s2(h)
        corad = inv.coradical(h).dim
        semi = bool(tr)
        if semi != (corad == h.dim):
            return False, f"{fam}: trace(S^2) vs coradical disagree"
        group_like_family = fam.startswith("kC") or fam.startswith("kD")
        if group_like_family and not semi:
            return False, f"{fam}: group algebra or dual reported nonsemisimple"
        if not group_like_family and not tr.is_zero():
            return False, f"{fam}: expected trace(S^2) = 0 exactly"
    return True, "trace(S^2) = 0 iff nonsemisimple iff coradical proper, on all families"


def ac5_antipode_orders(seed=0):
    cases = [("h4", 4), ("taft4", 8)]
    for p in (3, 5):
        for fid in ("am10", "am10d", "am11", "h4xc"):
            cases.append((f"{fid}:{p}", 4))
    bad = []
    for fam, want in cases:
        got = inv.antipode_order(build(fam))
        if got != want:
            bad.append((fam, got, want))
    return not bad, "antipode orders exact" if not bad else f"mismatches: {bad}"


def ac6_iso_witnesses(seed=0):
    pairs = [
        ("taft2", "dual:taft2"),
        ("taft3", "dual:taft3"),
        ("taft4", "dual:taft4"),
        ("a2", "dual:a2"),
        ("a22", "dual:a22"),
        ("a4ppp+", "dual:a4p"),
        ("a4ppp+", "a4ppp-"),
    ]
    for a, b in pairs:
        w = search_iso(build(a), build(b))
        if isinstance(w, str):
            return False, f"search_iso({a}, {b}) found nothing: {w}"
        if not verify_iso(build(a), build(b), w).ok:
            return False, f"witness for {a} -> {b} failed verification"
    cert = distinguish(build("a4p"), build("a4pp"))
    if cert is None:
        return False, "distinguish(a4p, a4pp) returned indistinguishable"
    return True, f"all searched witnesses verified; a4p vs a4pp separated by {cert[0]}"


def ac7_sub_hopf(seed=0):
    positive = ["a2", "a4ppp+", "a22", "am10d:3", "h4xc:3"]
    negative = ["a4p", "a4pp", "am10:3", "am11:3"]
    for fam in positive:
        claim = sub_hopf_claims(fam)
        if not claim.contains_h4 or claim.embedding is None:
            return False, f"{fam}: expected a verified h4 embedding"
    for fam in negative:
        claim = sub_hopf_claims(fam)
        if claim.contains_h4 or claim.certificate is None:
            return False, f"{fam}: expected a negative certificate"
    return True, "h4 embeddings verified and absences certified"


def ac8_coinvariants(seed=0):
    for name, (big, small, pi) in shipped_surjections().items():
        if not verify_hopf_morphism(pi, big, small).ok:
            return False, f"{name}: projection is not a Hopf algebra map"
        right = coinvariants(big, small, pi, "right")
        left = coinvariants(big, small, pi, "left")
        if right.dim * small.dim != big.dim or left.dim * small.dim != big.dim:
            return False, f"{name}: dimension law failed"
        big_e, small_e = big, small.embed(big.order)
        one = small_e.one_elem()
        for v in right.basis_vectors():
            eps = big_e.eps(v)
            expect = {t: c * eps for t, c in one.items() if c * eps}
            if pi.apply(v) != expect:
                return False, f"{name}: pi restricted to coinvariants is not the counit"
    return True, "dim H = dim(coinv) * dim B and pi|_R = eps|_R on all shipped surjections"


def ac9_prover_base(seed=0):
    for p in (3, 5, 7, 11):
        rep = prove(8 * p, pack="base")
        if not {p, 4 * p, 8 * p} <= set(rep.eliminated_gs()):
            return False, f"n={8 * p}: missing eliminations"
    for n in (24, 40, 56):
        if 8 not in prove(n, pack="base").eliminated_gs():
            return False, f"n={n}: g=8 not eliminated"
    targets = {42: {6, 7, 14, 21}, 70: {7, 10, 14}, 66: {11, 22, 33}, 78: {13, 26, 39}}
    pq_values = {42: 21, 70: 35, 66: 33, 78: 39}
    for n, need in targets.items():
        rep = prove(n, pack="base", axioms=AXIOMS)
        if not need <= set(rep.eliminated_gs()):
            return False, f"n={n}: missing eliminations {need - set(rep.eliminated_gs())}"
        v = rep.verdict_for(pq_values[n])
        if not (v.eliminated and v.used_axiom and
                all(s.rule.startswith("A-") for s in v.axiom_steps)):
            return False, f"n={n}: g={pq_values[n]} must be an AXIOM elimination"
    return True, "base-pack eliminations reproduced, pq cases via AXIOM steps in traces"


def ac10_prover_extended(seed=0):
    r70 = prove(70, pack="extended", flags=FLAGS, axioms=AXIOMS)
    if 5 not in r70.eliminated_gs():
        return False, "n=70: g=5 not eliminated with flags"
    r66 = prove(66, pack="extended", flags=FLAGS, axioms=AXIOMS)
    if 6 not in r66.eliminated_gs():
        return False, "n=66: g=6 not eliminated with flags"
    r78 = prove(78, pack="extended", flags=FLAGS, axioms=AXIOMS)
    if 6 in r78.eliminated_gs():
        return False, "n=78: g=6 must survive"
    r42 = prove(42, pack="extended", flags=FLAGS, axioms=AXIOMS)
    survivors = [pv for pv in r42.verdict_for(3).profiles if not pv.eliminated]
    if len(survivors) != 1 or survivors[0].profile.blocks != ((3, 1),):
        return False, f"n=42 g=3: expected exactly the {{(3,1)}} profile, got {survivors}"
    want = {"y_GG": 3, "y_GD_3": 9, "y_DD_3_3": 9}
    if survivors[0].assignment != want:
        return False, f"n=42 g=3: assignment {survivors[0].assignment} != {want}"
    return True, "flagged eliminations at 70/66, survival at 78, unique profile at 42"


def _true_assumptions(h):
    semi = bool(inv.trace_s2(h))
    prof = inv.verify_coalgebra_profile(h)
    if not prof.certified:
        raise RuntimeError(f"{h.name}: profile not certified")
    dual_prof = inv.verify_coalgebra_profile(hopf_dual(h))
    pointed = prof.corad_dim == prof.grouplike_count
    copointed = dual_prof.corad_dim == dual_prof.grouplike_count
    asm = Assumptions(
        nonsemisimple=not semi, nonpointed=not pointed, noncopointed=not copointed
    )
    blocks = tuple((d, m) for d, m in prof.blocks)
    return CoradicalProfile(h.dim, prof.grouplike_count, blocks), asm


def ac11_soundness(seed=0):
    for fam in list_families():
        h = build(fam)
        profile, asm = _true_assumptions(h)
        eliminated, steps = apply_base_pack(profile, asm)
        if eliminated:
            return False, f"{fam}: base pack eliminated the true profile"
        if apply_extended_pack(profile, asm, ())[0]:
            return False, f"{fam}: extended pack eliminated the true profile"
    rng = random.Random(seed)
    checked = 0
    attempts = 0
    while checked < 20 and attempts < 500:
        attempts += 1
        n = rng.randrange(12, 40)
        gs = [d for d in range(1, n + 1) if n % d == 0]
        g = rng.choice(gs)
        nclasses = rng.choice((1, 1, 1, 2))
        blocks, c0 = [], g
        d = 2
        for _ in range(nclasses):
            d = rng.randrange(d, d + 2)
            step = g // gcd(g, d * d)
            m = step * rng.randrange(1, 3)
            if c0 + m * d * d >= n:
                break
            blocks.append((d, m))
            c0 += m * d * d
            d += 1
        if not blocks:
            continue
        profile = CoradicalProfile(n, g, tuple(blocks))
        flags = []
        if rng.random() < 0.5:
            flags.append(FREE_TRANSLATION)
        if rng.random() < 0.5:
            flags.append(full_orbit(blocks[0][0]))
        asm = Assumptions()
        eliminated = apply_extended_pack(profile, asm, flags)[0]
        branches = [d for d, _ in profile.blocks] if profile.no_skew else [None]
        oracle_feasible = False
        for witness in branches:
            variables, _ = _variable_system(profile, witness, _Call(flags))
            if naive_assignment_oracle(variables, n - profile.c0) is not None:
                oracle_feasible = True
                break
        if oracle_feasible != (not eliminated):
            return False, f"oracle mismatch on {profile} flags={flags}"
        checked += 1
    if checked < 20:
        return False, f"only {checked} random instances generated"
    return True, f"no atlas profile eliminated; search matches oracle on {checked} instances"


def ac12_status_kb(seed=0):
    expect = {
        8: ("completed", "completed", "none", "none"),
        16: ("completed", "completed", "completed", "completed"),
        24: ("open", "completed", "open", "open"),
        27: ("completed", "completed", "none", "none"),
        30: ("completed", "none", "none", "completed"),
        32: ("open", "completed", "open", "open"),
        42: ("completed", "none", "none", "open"),
        60: ("open", "completed", "open", "open"),
        64: ("open", "open", "open", "open"),
        81: ("open", "completed", "open", "open"),
        87: ("completed", "none", "none", "open"),
        88: ("open", "open", "open", "open"),
        96: ("open", "open", "open", "open"),
        100: ("open", "open", "open", "open"),
    }
    for n, want in expect.items():
        st = status(n)
        got = tuple(st["columns"][c].status for c in ("semisimple", "pointed", "chevalley", "other"))
        if got != want:
            return False, f"status({n}) = {got}, expected {want}"
    for n in (42, 66, 70, 78):
        rep = crosscheck_with_prover(n)
        if not rep.ok:
            return False, str(rep)
    return True, "Table-1 spot checks and prover crosschecks consistent"


CRITERIA = [
    ("AC1", "axiom suite over all atlas families", ac1_axiom_suite),
    ("AC2", "duality involution and k8 change of basis", ac2_duality),
    ("AC3", "coradical dimensions and Taft filtration", ac3_coradical_numbers),
    ("AC4", "semisimple iff cosemisimple iff trace(S^2) != 0", ac4_larson_radford),
    ("AC5", "antipode orders", ac5_antipode_orders),
    ("AC6", "isomorphism witness search and separation", ac6_iso_witnesses),
    ("AC7", "sub-Hopf h4 claims", ac7_sub_hopf),
    ("AC8", "coinvariant dimension law", ac8_coinvariants),
    ("AC9", "prover base pack eliminations", ac9_prover_base),
    ("AC10", "prover extended pack with hypothesis flags", ac10_prover_extended),
    ("AC11", "prover soundness and oracle agreement", ac11_soundness),
    ("AC12", "status knowledge base and crosschecks", ac12_status_kb),
]


def run_all(seed=0):
    results = []
    for cid, desc, fn in CRITERIA:
        ok, detail = fn(seed)
        results.append((cid, desc, ok, detail))
    return results
