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

import io
import json
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, lcm

from .scalars import divisors, is_odd_prime

PROVER_MIN_DIM = 4
PROVER_MAX_DIM = 200

FREE_TRANSLATION = "free-translation"


def full_orbit(d: int) -> str:
    return f"full-orbit={d}"


def _parse_flags(flags):
    """(free_translation, {flag: d} for each full-orbit=<d> flag); any other
    flag, a block dimension that is not an integer >= 2, or one not spelled
    as str(d) (such as 02, +2 or " 2") raises ProverError, so that each
    hypothesis has one spelling and one trace."""
    orbit = {}
    for f in flags:
        if f.startswith("full-orbit="):
            value = f.split("=", 1)[1]
            try:
                d = int(value)
            except ValueError:
                d = None
            if d is None or d < 2:
                raise ProverError(f"flag {f!r}: block dimension {value!r} is not an integer >= 2")
            if value != str(d):
                raise ProverError(f"flag {f!r}: write it as {full_orbit(d)!r}")
            orbit[f] = d
        elif f != FREE_TRANSLATION:
            raise ProverError(f"unknown flag {f!r}")
    return FREE_TRANSLATION in flags, orbit


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


@dataclass(frozen=True, slots=True)
class CoradicalProfile:
    n: int
    g: int
    blocks: tuple  # ((d, m), ...), d strictly increasing
    c0: int = field(init=False, repr=False, compare=False)  # dim H_0, summed once
    no_skew: bool = field(init=False, repr=False, compare=False)  # R-gcd: gcd(g, n/g) = 1, taken once

    def __post_init__(self):
        object.__setattr__(self, "c0", self.g + sum(m * d * d for d, m in self.blocks))
        object.__setattr__(self, "no_skew", gcd(self.g, self.n // self.g) == 1)

    def label(self):
        inner = ", ".join(f"({d},{m})" for d, m in self.blocks)
        return f"g={self.g} blocks={{{inner}}}"


_set = object.__setattr__


def _profile(n, g, blocks, c0, no_skew):
    """CoradicalProfile(n, g, blocks) with c0 and no_skew as given, not
    recomputed: enumerate_profiles' path, which holds both already.  The
    public constructor, which computes them, is its oracle in the tests."""
    p = object.__new__(CoradicalProfile)
    _set(p, "n", n)
    _set(p, "g", g)
    _set(p, "blocks", blocks)
    _set(p, "c0", c0)
    _set(p, "no_skew", no_skew)
    return p


_CITATIONS_JSON = {rule: _quote(text) for rule, text in CITATIONS.items()}


@dataclass(frozen=True, slots=True)
class RuleStep:
    """One rule application; frozen, because a prove() call shares one
    instance between every profile that takes the same step.  `encoded` is
    its trace object, written once, when the step is made."""
    rule: str
    detail: str
    flags: tuple = ()
    encoded: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _set(self, "encoded", (
            f'{{"citation":{_CITATIONS_JSON[self.rule]},"detail":{_quote(self.detail)},'
            f'"flags":[{",".join(map(_quote, self.flags))}],"rule":{_quote(self.rule)}}}'))

    @property
    def citation(self):
        return CITATIONS[self.rule]


class _Call:
    """What one prove() call shares between its profiles: its flags, parsed
    once, and one RuleStep per distinct (rule, detail, flags)."""
    __slots__ = ("free_translation", "orbit", "_steps")

    def __init__(self, flags=()):
        self.free_translation, self.orbit = _parse_flags(flags)
        self._steps = {}

    def step(self, rule, detail, flags=()):
        key = (rule, detail, flags)
        s = self._steps.get(key)
        if s is None:
            s = self._steps[key] = RuleStep(rule, detail, flags)
        return s


@dataclass(slots=True)
class ProfileVerdict:
    profile: CoradicalProfile
    eliminated: bool
    steps: list
    assignment: dict = None


@dataclass(slots=True)
class GVerdict:
    g: int
    eliminated: bool
    axiom_steps: list
    profiles: list

    @property
    def used_axiom(self):
        return bool(self.axiom_steps)


_SERIALIZE_BATCH = 1 << 20  # characters


class _Texts(dict):
    """key -> format(key), each key formatted on its first lookup."""
    def __init__(self, format):
        self.format = format

    def __missing__(self, key):
        text = self[key] = self.format(key)
        return text


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

    def chunks(self):
        """The trace: the report as canonical JSON (keys sorted, no spaces,
        ASCII, one final newline), in pieces of at most one profile each.
        Each step carries its own encoding; each (d, m) block and assignment
        entry is encoded once per call."""
        blocks = _Texts("[%d,%d]".__mod__)
        entries = _Texts(lambda item: f"{_quote(item[0])}:{item[1]}")

        def steps_json(steps):
            return ",".join([s.encoded for s in steps])

        head = {"assumptions": self.assumptions.to_json(), "axioms": list(self.axioms),
                "flags": list(self.flags), "n": self.n, "pack": self.pack}
        # "verdicts" sorts after every key of the head
        yield json.dumps(head, sort_keys=True, separators=(",", ":"))[:-1] + ',"verdicts":['
        for i, v in enumerate(self.verdicts):
            yield f'{"," if i else ""}{{"axiom_steps":[{steps_json(v.axiom_steps)}],"g":{v.g},"profiles":['
            for j, pv in enumerate(v.profiles):
                p = pv.profile
                assignment = "" if pv.assignment is None else '"assignment":{%s},' % ",".join(
                    map(entries.__getitem__, sorted(pv.assignment.items())))
                yield (f'{"," if j else ""}{{{assignment}"profile":{{"blocks":'
                       f'[{",".join(map(blocks.__getitem__, p.blocks))}],'
                       f'"g":{p.g},"n":{p.n}}},"steps":[{steps_json(pv.steps)}],'
                       f'"verdict":"{"ELIMINATED" if pv.eliminated else "FEASIBLE"}"}}')
            yield f'],"status":"{"ELIMINATED" if v.eliminated else "SURVIVING"}"}}'
        yield "]}\n"

    def serialize(self) -> str:
        # The text grows by a batch of chunks at a time.  "".join over all
        # the chunks would hold every chunk beside the joined text, twice the
        # trace at the peak; CPython extends the text in place instead.  It
        # cannot under a profiler or tracer on 3.11, and then each batch, not
        # each chunk, copies the text so far.
        text, batch, size = "", [], 0
        for chunk in self.chunks():
            batch.append(chunk)
            size += len(chunk)
            if size >= _SERIALIZE_BATCH:
                text += "".join(batch)
                batch, size = [], 0
        text += "".join(batch)
        return text


# ---------------------------------------------------------------------------
# axiom rules: structural facts imported with citations, off by default
# ---------------------------------------------------------------------------

def _axiom_pq_half_dim(n, g, assumptions):
    if not assumptions.nonsemisimple or n % 2 or g * 2 != n:
        return None
    m = n // 2
    for p in range(3, int(m ** 0.5) + 1, 2):
        if m % p == 0:
            q = m // p
            if p != q and is_odd_prime(p) and is_odd_prime(q):
                return f"n = 2*{p}*{q}, g = {p}*{q} = {g}"
    return None


AXIOMS = {"pq-half-dim": ("A-pq-half-dim", _axiom_pq_half_dim)}


# ---------------------------------------------------------------------------
# profile enumeration
# ---------------------------------------------------------------------------

def enumerate_profiles(n, assumptions: Assumptions, g):
    """All admissible profiles with |G(H)| = g, ordered by blocks.  The
    depth-first walk emits a block tuple before its extensions and extends by
    increasing (d, m), so the order is strictly increasing as it stands."""
    if not (PROVER_MIN_DIM <= n <= PROVER_MAX_DIM):
        raise ProverError(f"dimension must be in [{PROVER_MIN_DIM}, {PROVER_MAX_DIM}], got {n}")
    if n % g:
        raise ProverError(f"{g} does not divide {n}")
    out = []
    budget = n - 1 if assumptions.nonsemisimple else n
    no_skew = gcd(g, n // g) == 1

    def extend(d, blocks, left):
        if blocks or not assumptions.nonpointed:
            out.append(_profile(n, g, tuple(blocks), budget - left, no_skew))
        dd = d
        while dd * dd <= left:
            step = g // gcd(g, dd * dd)
            m = step
            while m * dd * dd <= left:
                blocks.append((dd, m))
                extend(dd + 1, blocks, left - m * dd * dd)
                blocks.pop()
                m += step
            dd += 1

    extend(2, [], budget - g)
    return out


# ---------------------------------------------------------------------------
# base pack
# ---------------------------------------------------------------------------

def apply_base_pack(profile: CoradicalProfile, assumptions: Assumptions, call=None):
    """Returns (eliminated, steps).  The verdict depends only on n, g, c0 and
    the first block dimension d1; prove() passes its `call`, whose step table
    the steps come from."""
    step = (call or _Call()).step
    steps = []
    n, g = profile.n, profile.g
    if profile.no_skew:
        steps.append(step("R-gcd", f"gcd({g}, {n // g}) = 1: only trivial skew-primitives"))
    if profile.no_skew and assumptions.nonsemisimple:
        if not profile.blocks:
            steps.append(step(
                "R-pointed-skew",
                "profile has no simple blocks, so the coradical is a group algebra; "
                "a nontrivial skew-primitive must exist, contradicting R-gcd",
            ))
            return True, steps
        d1 = profile.blocks[0][0]
        bound = profile.c0 + (2 * d1 + 1) * g + d1 * d1
        detail = (
            f"requires n >= c0 + (2*d1+1)*g + d1^2 = {profile.c0} + "
            f"{(2 * d1 + 1) * g} + {d1 * d1} = {bound}; n = {n}"
        )
        if n < bound:
            steps.append(step("R-bound", detail + ": violated"))
            return True, steps
        steps.append(step("R-bound", detail + ": satisfied"))
    return False, steps


# ---------------------------------------------------------------------------
# extended pack: integer feasibility over the isotypic block dimensions
# ---------------------------------------------------------------------------

def _variable_system(profile: CoradicalProfile, witness_class, call):
    """Variable specs (name, weight, modulus, minimum) for one witness branch,
    and the full-orbit flags that raised a minimum.  The existence rule holds
    iff witness_class is not None; full-orbit=d applies when the witness class
    d is a single translation pack, m = g / gcd(g, d^2)."""
    g = profile.g
    variables = [("y_GG", 1, g, 0 if witness_class is None else g)]
    used = ()
    for d, m in profile.blocks:
        minimum = 0
        if witness_class == d:
            if d in call.orbit.values() and m == g // gcd(g, d * d):
                minimum = g * d * m
                used = (full_orbit(d),)
            else:
                minimum = g * d
        variables.append((sys.intern(f"y_GD_{d}"), 2, g * d, minimum))
    ds = [d for d, _ in profile.blocks]
    for i, di in enumerate(ds):
        for dj in ds[i:]:
            modulus = lcm(g, di * dj) if call.free_translation else di * dj
            minimum = di * di if witness_class == di == dj else 0
            variables.append((sys.intern(f"y_DD_{di}_{dj}"), 1, modulus, minimum))
    return tuple(variables), used


def _reach(variables, top):
    """(starts, reach): starts[i] is the least admissible value of variable i
    and reach[i] the bitset of the sums up to top that variables i.. can make
    (bit s set iff s is reachable).  Each step only shifts bits upward, so
    for total <= top, the bits up to total are those of the reach to total."""
    mask = (1 << (top + 1)) - 1
    starts = [-(-minimum // modulus) * modulus for _, _, modulus, minimum in variables]
    reach = [1]
    for (_, weight, modulus, _), start in zip(reversed(variables), reversed(starts)):
        sums, step = reach[-1], weight * modulus
        while step <= top:  # close under adding step, doubling the reach
            sums |= (sums << step) & mask
            step *= 2
        reach.append((sums << weight * start) & mask)
    reach.reverse()
    return starts, reach


def _solve(variables, starts, reach, total):
    """The least solution for total <= top from _reach(variables, top), None
    if infeasible: rebuilt front to back, each variable takes its smallest
    value whose remainder the variables after it can reach."""
    if total < 0 or not reach[0] >> total & 1:
        return None
    out, remaining = {}, total
    for (name, weight, modulus, _), value, after in zip(variables, starts, reach[1:]):
        while not after >> (remaining - weight * value) & 1:
            value += modulus
        out[name] = value
        remaining -= weight * value
    return out


def _first_solution(variables, total):
    """Lexicographically least solution of sum(weight*value) = total with
    value in modulus*Z, value >= minimum; None if infeasible."""
    if total < 0:
        return None
    return _solve(variables, *_reach(variables, total), total)


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


def _extended_shape(profile: CoradicalProfile, assumptions: Assumptions, call):
    """The part of the extended pack that does not read c0: (the call's step
    maker, the divisibility steps, and per witness branch (witness, its
    E-full-orbit and E-exist steps, variables, starts, reach up to n))."""
    step, g = call.step, profile.g
    exist = profile.no_skew and assumptions.nonsemisimple
    steps = [step("E-div-GG", f"g = {g} divides y_GG")]
    for d, m in profile.blocks:
        steps.append(step("E-div-GD", f"{g * d} divides y_GD_{d} (per side)"))
    ds = [d for d, _ in profile.blocks]
    for i, di in enumerate(ds):
        for dj in ds[i:]:
            if call.free_translation:
                steps.append(step(
                    "E-free-translation",
                    f"lcm({g}, {di * dj}) = {lcm(g, di * dj)} divides y_DD_{di}_{dj}",
                    flags=(FREE_TRANSLATION,),
                ))
            else:
                steps.append(step("E-div-DD", f"{di * dj} divides y_DD_{di}_{dj}"))
    branches = []
    for witness in (ds if exist else [None]):
        variables, used = _variable_system(profile, witness, call)
        pre = []
        if witness is not None:
            if used:
                pre.append(step(
                    "E-full-orbit",
                    f"witness class d={witness}: per-side y_GD >= "
                    f"{g}*{witness}*{dict(profile.blocks)[witness]}",
                    flags=used,
                ))
            pre.append(step(
                "E-exist",
                f"witness class d={witness}: y_GG >= {g}, minima "
                + ", ".join(f"{nm} >= {mn}" for nm, _, _, mn in variables if mn),
            ))
        branches.append((witness, pre, variables, *_reach(variables, profile.n)))
    return step, steps, branches


def apply_extended_pack(profile: CoradicalProfile, assumptions: Assumptions, flags=(), shape=None):
    """Complete decision procedure for the stated integer constraint system;
    returns (eliminated, steps, assignment), assignment None if eliminated.

    Branches over the witness class required by the existence rule, which
    holds when profile.no_skew and H is nonsemisimple; FEASIBLE iff some
    branch admits a solution.  A full-orbit flag naming a block dimension
    absent from the profile has no effect.  prove() passes the profile's
    `shape` from its memo, so that only the search at total = n - c0 runs
    per verdict; `flags` is then not read.
    """
    step, steps, branches = shape or _extended_shape(profile, assumptions, _Call(tuple(flags)))
    steps = list(steps)
    total = profile.n - profile.c0
    for witness, pre, variables, starts, reach in branches:
        steps += pre
        sol = _solve(variables, starts, reach, total)
        if sol is not None:
            steps.append(step(
                "E-search",
                f"feasible: remaining {total} realized (witness class {witness})",
            ))
            return False, steps, sol
    steps.append(step(
        "E-search",
        f"no branch admits a nonnegative solution for remaining {total}",
    ))
    return True, steps, None


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------

def prove(n, assumptions: Assumptions = None, pack="base", flags=(), axioms=()) -> EliminationReport:
    """Per divisor g of n: ELIMINATED (all profiles die, or an enabled axiom
    applies) or SURVIVING with feasible profiles and example assignments.

    Each distinct step is one shared RuleStep and each pack runs once per
    distinct input; every ProfileVerdict still gets a step list and an
    assignment of its own."""
    if assumptions is None:
        assumptions = Assumptions()
    if pack not in ("base", "extended"):
        raise ProverError(f"pack must be 'base' or 'extended', got {pack!r}")
    flags = tuple(sorted(set(flags)))
    call = _Call(flags)
    step, orbit = call.step, call.orbit.values()
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
                axiom_steps.append(step(rule_id, detail))
        if axiom_steps:
            verdicts.append(GVerdict(g, True, axiom_steps, []))
            continue
        profiles = enumerate_profiles(n, assumptions, g)
        if not profiles:
            why = [step(
                "R-enum-div",
                f"no block multiset satisfies the per-class divisibility with "
                f"c0 {'<' if assumptions.nonsemisimple else '<='} {n}"
                + (" and at least one block (nonpointed)" if assumptions.nonpointed else ""),
            )]
            if assumptions.nonsemisimple:
                why.append(step("R-enum-cosemi", f"c0 < {n} required"))
            verdicts.append(GVerdict(g, True, [], [ProfileVerdict(
                CoradicalProfile(n, g, ()), True, why)]))
            continue
        # The base verdict reads only g, c0 and the first block dimension d1;
        # the extended one only g, c0, the block dimensions and the
        # multiplicity of each block whose dimension a full-orbit flag names
        # (n, the flags and the assumptions are fixed for the call).  Each
        # pack runs once per distinct key of its memo, and the extended
        # pack's shape, which does not read c0, once per flagged blocks.
        base = {}  # (c0, d1) -> (eliminated, steps)
        shapes = {}  # ((d, m or None), ...) -> (shape, {c0: (eliminated, steps, assignment)})
        pvs = []
        for prof in profiles:
            key = (prof.c0, prof.blocks[0][0] if prof.blocks else None)
            hit = base.get(key)
            if hit is None:
                hit = base[key] = apply_base_pack(prof, assumptions, call)
            eliminated, steps = hit
            if eliminated or pack == "base":
                pvs.append(ProfileVerdict(prof, eliminated, list(steps)))
                continue
            key = tuple((d, m if d in orbit else None) for d, m in prof.blocks)
            memo = shapes.get(key)
            if memo is None:
                memo = shapes[key] = (_extended_shape(prof, assumptions, call), {})
            shape, verdicts_by_c0 = memo
            hit = verdicts_by_c0.get(prof.c0)
            if hit is None:
                hit = verdicts_by_c0[prof.c0] = apply_extended_pack(prof, assumptions, shape=shape)
            eliminated, ext_steps, assignment = hit
            pvs.append(ProfileVerdict(prof, eliminated, steps + ext_steps,
                                      None if assignment is None else dict(assignment)))
        verdicts.append(GVerdict(g, all(p.eliminated for p in pvs), [], pvs))
    return EliminationReport(n, assumptions, pack, flags, tuple(sorted(axioms)), verdicts)


_HEAD_KEYS = ("n", "assumptions", "pack", "flags", "axioms")


def _params(obj):
    """The parameters of a parsed trace as canonical JSON; None if missing."""
    if isinstance(obj, dict) and all(k in obj for k in _HEAD_KEYS):
        return json.dumps([obj[k] for k in _HEAD_KEYS], sort_keys=True)
    return None


def _proved(obj) -> EliminationReport:
    """prove() on the parameters of a parsed trace; TraceError if they are
    missing, of the wrong type, or rejected by prove()."""
    if _params(obj) is None:
        raise TraceError(f"not a JSON object with keys {', '.join(_HEAD_KEYS)}")
    if type(obj["n"]) is not int:
        raise TraceError(f"n must be an integer, got {obj['n']!r}")
    for key in ("flags", "axioms"):
        if not (isinstance(obj[key], list) and all(isinstance(s, str) for s in obj[key])):
            raise TraceError(f"{key} must be a list of strings, got {obj[key]!r}")
    try:
        return prove(obj["n"], Assumptions.from_json(obj["assumptions"]), obj["pack"],
                     tuple(obj["flags"]), tuple(obj["axioms"]))
    except ProverError as e:
        raise TraceError(str(e)) from None


_READ_SIZE = 1 << 16


def _matches(chunks, text, rest) -> bool:
    """Whether the chunks, joined, equal text followed by what is left to read
    in rest, up to trailing newlines.  Only the last chunk ends in a newline:
    the ones inside a trace's strings are escaped."""
    pos = 0
    for chunk in chunks:
        chunk = chunk.rstrip("\n")
        while len(text) - pos < len(chunk):
            more = rest.read(_READ_SIZE)
            if not more:
                return False
            text, pos = text[pos:] + more, 0
        if not text.startswith(chunk, pos):
            return False
        pos += len(chunk)
    while text:
        if text[pos:].strip("\n"):
            return False
        text, pos = rest.read(_READ_SIZE), 0
    return True


def replay(trace) -> tuple:
    """Re-run a serialized report; returns (ok, fresh_report) where ok means
    the fresh serialization is byte-identical to the input, up to trailing
    newlines.  trace is the text, or a seekable text file.  A trace that is
    not JSON of the serialized shape, or whose parameters prove() rejects,
    raises TraceError.

    A canonical trace is checked as it is read: its head (the keys before
    "verdicts") is parsed alone, and the fresh report's chunks are compared
    with the text piece by piece.  Any other text, and any mismatch, is read
    whole and parsed, so that the error or the verdict is the whole text's;
    a mismatch whose whole text has the head's parameters is not re-proved."""
    if isinstance(trace, str):
        trace = io.StringIO(trace)
    text = trace.read(_READ_SIZE)
    head_end = text.find(',"verdicts":[')
    head = report = None
    if head_end >= 0:
        try:
            head = json.loads(text[:head_end] + "}")
            report = _proved(head)
        except ValueError:  # not JSON, or a TraceError: the whole text decides
            pass
        if report is not None and _matches(report.chunks(), text, trace):
            return True, report
    trace.seek(0)
    text = trace.read()
    try:
        obj = json.loads(text)
    except ValueError as e:
        raise TraceError(f"not JSON: {e}") from None
    if report is not None and _params(obj) == _params(head):
        return False, report  # the report just compared, and found different
    report = _proved(obj)
    return report.serialize().rstrip("\n") == text.rstrip("\n"), report
