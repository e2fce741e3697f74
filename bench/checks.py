"""Property checks on each job's output, derived from theory.

Every checker returns a list of problems; an empty list means the output
passed.  No checker compares against a stored copy of earlier output.
"""

from __future__ import annotations

import re
from math import lcm


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _is_odd_prime(p):
    return p >= 3 and p % 2 == 1 and all(p % d for d in range(3, int(p ** 0.5) + 1, 2))


# -- prover -------------------------------------------------------------------

def prover_output(n, pack, report, trace, reserialized):
    """`prove(n, pack)` and its serialized trace (or a digest of it).

    * every reported g divides n (Nichols-Zoeller), and every divisor is reported;
    * every profile has c0 < n and g | m*d^2 for each block class (the only
      profiles without blocks are the eliminated placeholders of a g that
      admits none, since pointed algebras are assumed away);
    * every FEASIBLE assignment satisfies n = c0 + y_GG + 2*sum y_GD + sum y_DD
      with g | y_GG, g*d | y_GD_d and di*dj | y_DD_di_dj;
    * for n = 8p, p an odd prime, g in {p, 4p, 8p} is eliminated;
    * serializing the same report twice gives the same bytes (when a second
      serialization is given).
    """
    problems = []
    gs = [v.g for v in report.verdicts]
    if report.n != n or report.pack != pack:
        problems.append(f"prove {n} {pack}: report is for n={report.n} pack={report.pack}")
    if sorted(gs) != _divisors(n):
        problems.append(f"prove {n}: reported g {gs} are not the divisors of n")
    for v in report.verdicts:
        if n % v.g:
            problems.append(f"prove {n}: g={v.g} does not divide n")
        for pv in v.profiles:
            prof = pv.profile
            if prof.g != v.g or prof.n != n:
                problems.append(f"prove {n}: profile {prof} filed under g={v.g}")
            if prof.blocks and prof.c0 >= n:
                problems.append(f"prove {n}: profile {prof.label()} has c0 = {prof.c0} >= n")
            if not prof.blocks and not pv.eliminated:
                problems.append(f"prove {n}: pointed profile {prof.label()} is FEASIBLE")
            for d, m in prof.blocks:
                if (m * d * d) % prof.g:
                    problems.append(f"prove {n}: profile {prof.label()} has g !| m*d^2 at d={d}")
            if not pv.eliminated and pv.assignment is not None:
                problems += _assignment_problems(n, prof, pv.assignment)
        if v.eliminated and any(not pv.eliminated for pv in v.profiles):
            problems.append(f"prove {n}: g={v.g} eliminated with a feasible profile")
        if not v.eliminated and all(pv.eliminated for pv in v.profiles):
            problems.append(f"prove {n}: g={v.g} survives with no feasible profile")
    if n % 8 == 0 and _is_odd_prime(n // 8):
        p = n // 8
        left = [g for g in (p, 4 * p, 8 * p) if g not in report.eliminated_gs()]
        if left:
            problems.append(f"prove {n} = 8*{p}: g in {left} not eliminated")
    if reserialized is not None and trace != reserialized:
        problems.append(f"prove {n}: serializing the report twice gave different bytes")
    return problems


def _assignment_problems(n, prof, assignment):
    g = prof.g
    ds = [d for d, _ in prof.blocks]
    moduli = {"y_GG": g}
    weights = {"y_GG": 1}
    for d in ds:
        moduli[f"y_GD_{d}"], weights[f"y_GD_{d}"] = g * d, 2
    for i, di in enumerate(ds):
        for dj in ds[i:]:
            moduli[f"y_DD_{di}_{dj}"], weights[f"y_DD_{di}_{dj}"] = di * dj, 1
    where = f"prove {n}: FEASIBLE {prof.label()} with {assignment}"
    if set(assignment) != set(moduli):
        return [f"{where}: variables are not {sorted(moduli)}"]
    problems = []
    for name, value in assignment.items():
        if value < 0 or value % moduli[name]:
            problems.append(f"{where}: {name} is not a nonnegative multiple of {moduli[name]}")
    if prof.c0 + sum(weights[k] * v for k, v in assignment.items()) != n:
        problems.append(f"{where}: c0 + y_GG + 2*sum y_GD + sum y_DD != n")
    return problems


# -- verify -------------------------------------------------------------------

def implied_dim(family):
    """The dimension a family's name implies: n, 2k, N^2, 8 or 4p."""
    for pattern, dim in (
        (r"kC(\d+)(dual)?", lambda a: a),
        (r"kD(\d+)dual", lambda a: 2 * a),
        (r"taft(\d+)", lambda a: a * a),
        (r"(?:am10|am10d|am11|h4xc):(\d+)", lambda a: 4 * a),
    ):
        m = re.fullmatch(pattern, family)
        if m:
            return dim(int(m.group(1)))
    if family == "h4":
        return 4
    if family in ("a2", "a4p", "a4pp", "a4ppp+", "a4ppp-", "a22", "k8"):
        return 8
    raise ValueError(f"no implied dimension for {family!r}")


def verify_output(family, exit_code, stdout, dim):
    problems = []
    if exit_code != 0 or stdout != "ok: bialgebra, antipode\n":
        problems.append(f"verify {family}: exit {exit_code}, stdout {stdout!r}")
    if dim != implied_dim(family):
        problems.append(f"verify {family}: dimension {dim}, name implies {implied_dim(family)}")
    return problems


def perturbed_rejected(family, report):
    """A copy whose multiplication has one constant perturbed on a unit
    component must fail the bialgebra check: 1*b_j moves off b_j."""
    if report.ok:
        return [f"verify {family}: a perturbed copy passed the bialgebra axioms"]
    return []


# -- invariants ---------------------------------------------------------------

def summary_output(family, s):
    """`summarize` on one family.

    General laws: semisimple <=> corad_dim == dim <=> trace(S^2) != 0
    (Larson-Radford); r | dim and s | dim (Nichols-Zoeller); the antipode
    order divides 4*lcm(r, s) (Radford); the coradical filtration rises
    strictly to dim; the skew table is 0 on the diagonal and >= 1 off it.
    """
    where = f"summarize {family}"
    problems = []
    r, sd, dim = s.grouplike_count, s.dual_grouplike_count, s.dim
    if not (s.is_semisimple == (s.corad_dim == dim) == bool(s.trace_S2)):
        problems.append(f"{where}: semisimple={s.is_semisimple}, corad_dim={s.corad_dim}, "
                        f"trace_S2={s.trace_S2!r} disagree")
    if dim % r or dim % sd:
        problems.append(f"{where}: r={r} or s={sd} does not divide dim={dim}")
    if not isinstance(s.antipode_order, int) or (4 * lcm(r, sd)) % s.antipode_order:
        problems.append(f"{where}: antipode order {s.antipode_order} does not divide 4*lcm(r, s)")
    filt = list(s.filtration)
    if filt[-1] != dim or any(a >= b for a, b in zip(filt, filt[1:])) or filt[0] != s.corad_dim:
        problems.append(f"{where}: filtration {filt} does not rise strictly from corad to dim")
    if len(s.skew_table) != r * r:
        problems.append(f"{where}: skew table has {len(s.skew_table)} entries, not r^2 = {r * r}")
    for (i, j), d in s.skew_table.items():
        if (i == j and d != 0) or (i != j and d < 1):
            problems.append(f"{where}: skew dimension {d} at ({i},{j})")
    return problems + _closed_forms(family, s)


def _closed_forms(family, s):
    where = f"summarize {family}"
    r, sd = s.grouplike_count, s.dual_grouplike_count
    m = re.fullmatch(r"kC(\d+)(?:dual)?", family)
    if m:
        n = int(m.group(1))
        want = {"r": n, "s": n, "corad_dim": n, "antipode_order": 2,
                "skew_dims": [0] * n + [1] * (n * n - n)}
        got = {"r": r, "s": sd, "corad_dim": s.corad_dim, "antipode_order": s.antipode_order,
               "skew_dims": sorted(s.skew_table.values())}
        problems = [f"{where}: {k} = {got[k]}, expected {v}" for k, v in want.items() if got[k] != v]
        if s.trace_S2 != n:
            problems.append(f"{where}: trace_S2 = {s.trace_S2!r}, expected {n}")
        return problems
    m = re.fullmatch(r"kD(\d+)dual", family)
    if m:
        k = int(m.group(1))
        if r not in (2, 4) or sd != 2 * k:
            return [f"{where}: r={r}, s={sd}; expected r in (2, 4) and s = {2 * k}"]
        return []
    m = re.fullmatch(r"taft(\d+)", family)
    if m:
        N = int(m.group(1))
        want = ([N * (i + 1) for i in range(N)], 2 * N, N, N)
        got = (list(s.filtration), s.antipode_order, r, sd)
        if got != want:
            return [f"{where}: (filtration, antipode order, r, s) = {got}, expected {want}"]
    return []


def iso_output(source, target_name, target, grouplike_orders, witness, report):
    """`search_iso` then `verify_iso` on one pair: the witness verifies, and
    each grouplike generator's image is grouplike of the generator's order,
    checked against the target's own structure constants."""
    where = f"iso {source} -> {target_name}"
    if isinstance(witness, str):
        return [f"{where}: search found no witness ({witness})"]
    problems = []
    if not report.ok:
        problems.append(f"{where}: witness fails verify_iso: {report.failures[:2]}")
    order = target.order
    for vec in witness.generator_images.values():
        for c in vec.values():
            order = lcm(order, c.order)
    k = target.embed(order)
    for gen, gen_order in grouplike_orders.items():
        image = {i: c.embed(order) for i, c in witness.generator_images[gen].items()}
        problems += [f"{where}: image of {gen}: {p}" for p in _grouplike_problems(k, image, gen_order)]
    return problems


def _grouplike_problems(k, x, order):
    coproduct = {}
    for i, a in x.items():
        for pair, c in k.comult.get(i, {}).items():
            coproduct[pair] = coproduct.get(pair, 0) + a * c
    coproduct = {pair: c for pair, c in coproduct.items() if c}
    square = {(i, j): a * b for i, a in x.items() for j, b in x.items() if a * b}
    problems = []
    if coproduct != square:
        problems.append("Delta(x) != x (x) x")
    if sum(a * k.counit.get(i, 0) for i, a in x.items()) != 1:
        problems.append("eps(x) != 1")
    one = {i: c for i, c in k.unit.items() if c}
    power = dict(x)
    for e in range(1, order + 1):
        if (power == one) != (e == order):
            problems.append(f"x^{e} {'=' if power == one else '!='} 1, expected order {order}")
            break
        power = _multiply(k.mult, power, x)
    return problems


def _multiply(mult, u, v):
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            for t, c in mult.get((i, j), {}).items():
                out[t] = out.get(t, 0) + a * b * c
    return {t: c for t, c in out.items() if c}
