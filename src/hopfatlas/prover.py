"""Counting-based feasibility prover for coradical profiles.

For a target dimension n and a divisor g = |G(H)|, a coradical profile
fixes the multiset of simple-subcoalgebra dimensions: H_0 = k^g + sum of
m_i blocks of dimension d_i^2.  The remaining dimension decomposes into
isotypic parts indexed by (grouplike, grouplike), (grouplike, block class)
per side, and (block class, block class) pairs; their dimensions are the
nonnegative integer variables of the feasibility system

    n = c0 + y_GG + 2 * sum_i y_GD_i + sum_{i<=j} y_DD_ij.

The base pack applies rules that are sound under the stated assumptions
alone; the extended pack adds divisibility and existence constraints, some
gated behind explicit hypothesis flags that mirror case-local arguments.
Eliminations carry replayable traces with one citation string per rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd, lcm

from .scalars import divisors

PROVER_MIN_DIM = 4
PROVER_MAX_DIM = 200

FREE_TRANSLATION = "free-translation"


def full_orbit(d: int) -> str:
    return f"full-orbit={d}"


def _parse_full_orbit(flag: str):
    if not flag.startswith("full-orbit="):
        return None
    value = flag.split("=", 1)[1]
    try:
        return int(value)
    except ValueError:
        raise ProverError(f"flag {flag!r}: block dimension {value!r} is not an integer") from None


CITATIONS = {
    "R-enum-div": (
        "Nichols-Zoeller: |G(H)| divides dim H; Andruskiewitsch-Natale "
        "divisibility: |G(H)| divides each dim H_{0,d} = m_d * d^2"
    ),
    "R-enum-cosemi": (
        "Larson-Radford: nonsemisimple implies non-cosemisimple, so dim H_0 < dim H"
    ),
    "R-gcd": (
        "relatively-prime dimension lemma: gcd(|G(H)|, dim H/|G(H)|) = 1 "
        "forces every skew-primitive element to be trivial"
    ),
    "R-pointed-skew": (
        "Taft-Wilson: a nonsemisimple Hopf algebra whose coradical is a group "
        "algebra has a nontrivial skew-primitive element"
    ),
    "R-bound": (
        "skew-free lower bound: a non-cosemisimple Hopf algebra with only "
        "trivial skew-primitives satisfies dim H >= dim H_0 + (2*d1+1)*|G| + d1^2"
    ),
    "E-div-GG": "G x G translation acts freely on grouplike pairs: g | dim P^{G,G}",
    "E-div-GD": (
        "G-translation acts freely on (grouplike, block) pairs because it is "
        "free on the grouplike coordinate; each side of P^{G,D_i} is a sum of "
        "g-sized orbits of components with dimensions in d_i*Z, so g*d_i divides it"
    ),
    "E-div-DD": "each simple bicomodule of type (D_i, D_j) has dimension d_i*d_j",
    "E-exist": (
        "in a non-cosemisimple Hopf algebra with only trivial skew-primitives, "
        "every grouplike sits next to a nondegenerate block pair: dim P^{G,G} >= g "
        "and for some class, per-side dim P^{G,D_i} >= g*d_i and dim P^{D_i,D_i} >= d_i^2"
    ),
    "E-full-orbit": (
        "hypothesis flag: the antipode cycles the single translation pack of "
        "d-dimensional simple subcoalgebras, so nondegeneracy propagates to the "
        "whole pack: per-side dim P^{G,D} >= g*d*m"
    ),
    "E-free-translation": (
        "hypothesis flag: G-translation acts freely on pairs of simple "
        "subcoalgebras, so lcm(g, d_i*d_j) divides dim P^{D_i,D_j}"
    ),
    "E-search": "exhaustive nonnegative-integer search over the stated constraint system",
    "A-pq-half-dim": (
        "axiom: a nonsemisimple Hopf algebra of dimension 2pq (p < q odd primes) "
        "cannot have |G(H)| = pq: a semisimple half-dimension sub-Hopf algebra "
        "would force an exact sequence making H semisimple"
    ),
}


class ProverError(ValueError):
    pass


class TraceError(ValueError):
    """A trace that is not a well-formed serialized report."""


@dataclass(frozen=True)
class Assumptions:
    nonsemisimple: bool = True
    nonpointed: bool = True
    noncopointed: bool = True

    def to_json(self):
        return {
            "nonsemisimple": self.nonsemisimple,
            "nonpointed": self.nonpointed,
            "noncopointed": self.noncopointed,
        }

    @classmethod
    def from_json(cls, obj):
        names = set(cls.__dataclass_fields__)
        if not (isinstance(obj, dict) and set(obj) <= names
                and all(isinstance(v, bool) for v in obj.values())):
            raise ProverError(f"assumptions must map some of {sorted(names)} to booleans, got {obj!r}")
        return cls(**obj)


@dataclass(frozen=True)
class CoradicalProfile:
    n: int
    g: int
    blocks: tuple  # ((d, m), ...), d strictly increasing

    @property
    def c0(self):
        return self.g + sum(m * d * d for d, m in self.blocks)

    def to_json(self):
        return {"n": self.n, "g": self.g, "blocks": [list(b) for b in self.blocks]}

    def label(self):
        inner = ", ".join(f"({d},{m})" for d, m in self.blocks)
        return f"g={self.g} blocks={{{inner}}}"


@dataclass
class RuleStep:
    rule: str
    detail: str
    flags: tuple = ()

    @property
    def citation(self):
        base = self.rule.split("@")[0]
        return CITATIONS[base]

    def to_json(self):
        return {
            "rule": self.rule,
            "detail": self.detail,
            "citation": self.citation,
            "flags": list(self.flags),
        }


@dataclass
class ProfileVerdict:
    profile: CoradicalProfile
    eliminated: bool
    steps: list
    assignment: dict = None

    def to_json(self):
        out = {
            "profile": self.profile.to_json(),
            "verdict": "ELIMINATED" if self.eliminated else "FEASIBLE",
            "steps": [s.to_json() for s in self.steps],
        }
        if self.assignment is not None:
            out["assignment"] = {k: v for k, v in sorted(self.assignment.items())}
        return out


@dataclass
class GVerdict:
    g: int
    eliminated: bool
    axiom_steps: list
    profiles: list

    @property
    def used_axiom(self):
        return bool(self.axiom_steps)

    def to_json(self):
        return {
            "g": self.g,
            "status": "ELIMINATED" if self.eliminated else "SURVIVING",
            "axiom_steps": [s.to_json() for s in self.axiom_steps],
            "profiles": [p.to_json() for p in self.profiles],
        }


@dataclass
class EliminationReport:
    n: int
    assumptions: Assumptions
    pack: str
    flags: tuple
    axioms: tuple
    verdicts: list

    def eliminated_gs(self):
        return [v.g for v in self.verdicts if v.eliminated]

    def surviving_gs(self):
        return [v.g for v in self.verdicts if not v.eliminated]

    def verdict_for(self, g):
        for v in self.verdicts:
            if v.g == g:
                return v
        raise KeyError(g)

    def to_json(self):
        return {
            "n": self.n,
            "assumptions": self.assumptions.to_json(),
            "pack": self.pack,
            "flags": list(self.flags),
            "axioms": list(self.axioms),
            "verdicts": [v.to_json() for v in self.verdicts],
        }

    def serialize(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# axiom rules: structural facts imported with citations, off by default
# ---------------------------------------------------------------------------

def _is_odd_prime(p):
    return p >= 3 and p % 2 == 1 and all(p % d for d in range(3, int(p ** 0.5) + 1, 2))


def _axiom_pq_half_dim(n, g, assumptions):
    if not assumptions.nonsemisimple or n % 2 or g * 2 != n:
        return None
    m = n // 2
    for p in range(3, int(m ** 0.5) + 1, 2):
        if m % p == 0:
            q = m // p
            if p != q and _is_odd_prime(p) and _is_odd_prime(q):
                return f"n = 2*{p}*{q}, g = {p}*{q} = {g}"
    return None


AXIOMS = {"pq-half-dim": ("A-pq-half-dim", _axiom_pq_half_dim)}


# ---------------------------------------------------------------------------
# profile enumeration
# ---------------------------------------------------------------------------

def enumerate_profiles(n, assumptions: Assumptions, g=None):
    """All admissible profiles in deterministic order (by g, then blocks)."""
    if not (PROVER_MIN_DIM <= n <= PROVER_MAX_DIM):
        raise ProverError(f"dimension must be in [{PROVER_MIN_DIM}, {PROVER_MAX_DIM}], got {n}")
    gs = [g] if g is not None else divisors(n)
    cap = n - 1 if assumptions.nonsemisimple else n
    out = []
    for gv in gs:
        if n % gv:
            raise ProverError(f"{gv} does not divide {n}")
        budget = cap - gv
        profiles = []

        def extend(d, blocks, left):
            if blocks or not assumptions.nonpointed:
                profiles.append(tuple(blocks))
            dd = d
            while dd * dd <= left:
                step = gv // gcd(gv, dd * dd)
                m = step
                while m * dd * dd <= left:
                    blocks.append((dd, m))
                    extend(dd + 1, blocks, left - m * dd * dd)
                    blocks.pop()
                    m += step
                dd += 1

        extend(2, [], budget)
        profiles = sorted(set(profiles))
        out.extend(CoradicalProfile(n, gv, b) for b in profiles)
    return out


# ---------------------------------------------------------------------------
# base pack
# ---------------------------------------------------------------------------

def no_skew_established(profile: CoradicalProfile) -> bool:
    return gcd(profile.g, profile.n // profile.g) == 1


def apply_base_pack(profile: CoradicalProfile, assumptions: Assumptions):
    """Returns (eliminated, steps, no_skew)."""
    steps = []
    n, g = profile.n, profile.g
    no_skew = no_skew_established(profile)
    if no_skew:
        steps.append(RuleStep("R-gcd", f"gcd({g}, {n // g}) = 1: only trivial skew-primitives"))
    if no_skew and assumptions.nonsemisimple:
        if not profile.blocks:
            steps.append(RuleStep(
                "R-pointed-skew",
                "profile has no simple blocks, so the coradical is a group algebra; "
                "a nontrivial skew-primitive must exist, contradicting R-gcd",
            ))
            return True, steps, no_skew
        d1 = profile.blocks[0][0]
        bound = profile.c0 + (2 * d1 + 1) * g + d1 * d1
        detail = (
            f"requires n >= c0 + (2*d1+1)*g + d1^2 = {profile.c0} + "
            f"{(2 * d1 + 1) * g} + {d1 * d1} = {bound}; n = {n}"
        )
        if n < bound:
            steps.append(RuleStep("R-bound", detail + ": violated"))
            return True, steps, no_skew
        steps.append(RuleStep("R-bound", detail + ": satisfied"))
    return False, steps, no_skew


# ---------------------------------------------------------------------------
# extended pack: integer feasibility over the isotypic block dimensions
# ---------------------------------------------------------------------------

def _variable_system(profile: CoradicalProfile, flags, no_skew, assumptions, witness_class):
    """Variable specs (name, weight, modulus, minimum) for one witness branch."""
    g = profile.g
    exist = no_skew and assumptions.nonsemisimple
    free_translation = FREE_TRANSLATION in flags
    orbit_dims = {d for d in (_parse_full_orbit(f) for f in flags) if d is not None}
    variables = []
    variables.append(("y_GG", 1, g, g if exist else 0))
    for d, m in profile.blocks:
        minimum = 0
        if exist and witness_class == d:
            if d in orbit_dims and m == g // gcd(g, d * d):
                minimum = g * d * m
            else:
                minimum = g * d
        variables.append((f"y_GD_{d}", 2, g * d, minimum))
    ds = [d for d, _ in profile.blocks]
    for i, di in enumerate(ds):
        for dj in ds[i:]:
            modulus = lcm(g, di * dj) if free_translation else di * dj
            minimum = di * di if (exist and witness_class == di and di == dj) else 0
            variables.append((f"y_DD_{di}_{dj}", 1, modulus, minimum))
    return variables


def _first_solution(variables, total):
    """Lexicographically least solution of sum(weight*value) = total with
    value in modulus*Z, value >= minimum; None if infeasible."""

    def rec(idx, remaining, acc):
        if idx == len(variables):
            return dict(acc) if remaining == 0 else None
        name, weight, modulus, minimum = variables[idx]
        floor_rest = sum(w * mn for _, w, _, mn in variables[idx + 1:])
        start = minimum if minimum % modulus == 0 else (minimum // modulus + 1) * modulus
        value = start
        while weight * value + floor_rest <= remaining:
            acc.append((name, value))
            sol = rec(idx + 1, remaining - weight * value, acc)
            acc.pop()
            if sol is not None:
                return sol
            value += modulus
        return None

    return rec(0, total, [])


def naive_assignment_oracle(variables, total):
    """Independent oracle: raw enumeration of every tuple with the correct
    weighted sum, then direct predicate checks (no divisibility pruning)."""
    if total < 0:
        return None
    names = [v[0] for v in variables]
    weights = [v[1] for v in variables]

    def rec(idx, remaining, values):
        if idx == len(variables):
            if remaining:
                return None
            assign = dict(zip(names, values))
            for nm, _, modulus, minimum in variables:
                if assign[nm] % modulus or assign[nm] < minimum:
                    return None
            return assign
        w = weights[idx]
        for v in range(remaining // w + 1):
            values.append(v)
            out = rec(idx + 1, remaining - w * v, values)
            values.pop()
            if out is not None:
                return out
        return None

    return rec(0, total, [])


def applicable_flags(profile: CoradicalProfile, flags):
    out = []
    dims = {d for d, _ in profile.blocks}
    for f in flags:
        d = _parse_full_orbit(f)
        if d is None or d in dims:
            out.append(f)
    return tuple(out)


def apply_extended_pack(profile: CoradicalProfile, assumptions: Assumptions, flags=(),
                        no_skew=None):
    """Complete decision procedure for the stated integer constraint system.

    Branches over the witness class required by the existence rule; FEASIBLE
    iff some branch admits a solution.  Flags naming a block dimension absent
    from the profile are an error (use applicable_flags to filter upstream).
    """
    flags = tuple(flags)
    dims = {d for d, _ in profile.blocks}
    for f in flags:
        d = _parse_full_orbit(f)
        if d is None:
            if f != FREE_TRANSLATION:
                raise ProverError(f"unknown flag {f!r}")
        elif d not in dims:
            raise ProverError(f"flag {f!r} references a block dimension absent from the profile")
    if no_skew is None:
        no_skew = no_skew_established(profile)
    exist = no_skew and assumptions.nonsemisimple
    steps = []
    total = profile.n - profile.c0
    steps.append(RuleStep("E-div-GG", f"g = {profile.g} divides y_GG"))
    for d, m in profile.blocks:
        steps.append(RuleStep("E-div-GD", f"{profile.g * d} divides y_GD_{d} (per side)"))
    ds = [d for d, _ in profile.blocks]
    for i, di in enumerate(ds):
        for dj in ds[i:]:
            if FREE_TRANSLATION in flags:
                steps.append(RuleStep(
                    "E-free-translation",
                    f"lcm({profile.g}, {di * dj}) = {lcm(profile.g, di * dj)} divides y_DD_{di}_{dj}",
                    flags=(FREE_TRANSLATION,),
                ))
            else:
                steps.append(RuleStep("E-div-DD", f"{di * dj} divides y_DD_{di}_{dj}"))
    branches = [d for d, _ in profile.blocks] if exist else [None]
    if exist and not profile.blocks:
        branches = []
    for witness in branches:
        variables = _variable_system(profile, flags, no_skew, assumptions, witness)
        if witness is not None:
            used = ()
            d_m = dict(profile.blocks)
            if any(_parse_full_orbit(f) == witness for f in flags) and \
               d_m[witness] == profile.g // gcd(profile.g, witness * witness):
                used = (full_orbit(witness),)
                steps.append(RuleStep(
                    "E-full-orbit",
                    f"witness class d={witness}: per-side y_GD >= "
                    f"{profile.g}*{witness}*{d_m[witness]}",
                    flags=used,
                ))
            steps.append(RuleStep(
                "E-exist",
                f"witness class d={witness}: y_GG >= {profile.g}, minima "
                + ", ".join(f"{nm} >= {mn}" for nm, _, _, mn in variables if mn),
            ))
        sol = _first_solution(variables, total)
        if sol is not None:
            steps.append(RuleStep(
                "E-search",
                f"feasible: remaining {total} realized (witness class {witness})",
            ))
            return ProfileVerdict(profile, False, steps, assignment=sol)
    steps.append(RuleStep(
        "E-search",
        f"no branch admits a nonnegative solution for remaining {total}",
    ))
    return ProfileVerdict(profile, True, steps)


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------

def prove(n, assumptions: Assumptions = None, pack="base", flags=(), axioms=()) -> EliminationReport:
    """Per divisor g of n: ELIMINATED (all profiles die, or an enabled axiom
    applies) or SURVIVING with feasible profiles and example assignments."""
    if assumptions is None:
        assumptions = Assumptions()
    if pack not in ("base", "extended"):
        raise ProverError(f"pack must be 'base' or 'extended', got {pack!r}")
    flags = tuple(sorted(set(flags)))
    for f in flags:
        if f != FREE_TRANSLATION and _parse_full_orbit(f) is None:
            raise ProverError(f"unknown flag {f!r}")
    for a in axioms:
        if a not in AXIOMS:
            raise ProverError(f"unknown axiom {a!r}")
    if not (PROVER_MIN_DIM <= n <= PROVER_MAX_DIM):
        raise ProverError(f"dimension must be in [{PROVER_MIN_DIM}, {PROVER_MAX_DIM}], got {n}")
    verdicts = []
    for g in divisors(n):
        axiom_steps = []
        for a in sorted(axioms):
            rule_id, fn = AXIOMS[a]
            detail = fn(n, g, assumptions)
            if detail:
                axiom_steps.append(RuleStep(rule_id, detail))
        if axiom_steps:
            verdicts.append(GVerdict(g, True, axiom_steps, []))
            continue
        profiles = enumerate_profiles(n, assumptions, g)
        if not profiles:
            why = [RuleStep(
                "R-enum-div",
                f"no block multiset satisfies the per-class divisibility with "
                f"c0 {'<' if assumptions.nonsemisimple else '<='} {n}"
                + (" and at least one block (nonpointed)" if assumptions.nonpointed else ""),
            )]
            if assumptions.nonsemisimple:
                why.append(RuleStep("R-enum-cosemi", f"c0 < {n} required"))
            verdicts.append(GVerdict(g, True, [], [ProfileVerdict(
                CoradicalProfile(n, g, ()), True, why)]))
            continue
        pvs = []
        for prof in profiles:
            eliminated, steps, no_skew = apply_base_pack(prof, assumptions)
            if eliminated:
                pvs.append(ProfileVerdict(prof, True, steps))
                continue
            if pack == "base":
                pvs.append(ProfileVerdict(prof, False, steps))
                continue
            ext = apply_extended_pack(
                prof, assumptions, applicable_flags(prof, flags), no_skew=no_skew
            )
            pvs.append(ProfileVerdict(prof, ext.eliminated, steps + ext.steps, ext.assignment))
        verdicts.append(GVerdict(g, all(p.eliminated for p in pvs), [], pvs))
    return EliminationReport(n, assumptions, pack, flags, tuple(sorted(axioms)), verdicts)


def replay(trace_json: str) -> tuple:
    """Re-run a serialized report; returns (ok, fresh_report) where ok means
    the fresh serialization is byte-identical to the input.  A trace that is
    not JSON of the serialized shape, or whose parameters prove() rejects,
    raises TraceError."""
    try:
        obj = json.loads(trace_json)
    except ValueError as e:
        raise TraceError(f"not JSON: {e}") from None
    keys = ("n", "assumptions", "pack", "flags", "axioms")
    if not isinstance(obj, dict) or any(k not in obj for k in keys):
        raise TraceError(f"not a JSON object with keys {', '.join(keys)}")
    if type(obj["n"]) is not int:
        raise TraceError(f"n must be an integer, got {obj['n']!r}")
    for key in ("flags", "axioms"):
        if not (isinstance(obj[key], list) and all(isinstance(s, str) for s in obj[key])):
            raise TraceError(f"{key} must be a list of strings, got {obj[key]!r}")
    try:
        report = prove(obj["n"], Assumptions.from_json(obj["assumptions"]), obj["pack"],
                       tuple(obj["flags"]), tuple(obj["axioms"]))
    except ProverError as e:
        raise TraceError(str(e)) from None
    fresh = report.serialize()
    ok = fresh == trace_json or fresh.rstrip("\n") == trace_json.rstrip("\n")
    return ok, report
