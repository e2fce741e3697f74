"""The dict-tree trace serializer that EliminationReport.chunks replaced, kept
as its differential oracle: each report object becomes a dict, and the tree
is dumped once by json.dumps with sorted keys and no spaces (trace format v1).

assert_same_text compares two whole texts (traces, algebra files) exactly and
reports a mismatch at once, by its first differing offset; pytest's own
assertion rewriting would diff the two texts, which for a multi-kilobyte trace
runs for minutes.
"""

import json


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def step_to_json(step):
    return {
        "rule": step.rule,
        "detail": step.detail,
        "citation": step.citation,
        "flags": list(step.flags),
    }


def profile_to_json(profile):
    return {"n": profile.n, "g": profile.g, "blocks": [list(b) for b in profile.blocks]}


def profile_verdict_to_json(pv):
    out = {
        "profile": profile_to_json(pv.profile),
        "verdict": "ELIMINATED" if pv.eliminated else "FEASIBLE",
        "steps": [step_to_json(s) for s in pv.steps],
    }
    if pv.assignment is not None:
        out["assignment"] = {k: v for k, v in sorted(pv.assignment.items())}
    return out


def g_verdict_to_json(v):
    return {
        "g": v.g,
        "status": "ELIMINATED" if v.eliminated else "SURVIVING",
        "axiom_steps": [step_to_json(s) for s in v.axiom_steps],
        "profiles": [profile_verdict_to_json(p) for p in v.profiles],
    }


def report_to_json(report):
    return {
        "n": report.n,
        "assumptions": report.assumptions.to_json(),
        "pack": report.pack,
        "flags": list(report.flags),
        "axioms": list(report.axioms),
        "verdicts": [g_verdict_to_json(v) for v in report.verdicts],
    }


def serialize(report) -> str:
    return canonical_json(report_to_json(report))


def assert_same_text(got, want, label=""):
    """Fail unless got == want (two str or two bytes).  The message gives both
    lengths, the first differing offset and about 80 characters of each side
    around it."""
    if got == want:
        return
    at, step = 0, 4096
    while got[at:at + step] == want[at:at + step]:
        at += step
    while got[at:at + 1] == want[at:at + 1]:
        at += 1
    lo = max(at - 40, 0)
    raise AssertionError(
        f"{label}{': ' if label else ''}texts differ: lengths {len(got)} and {len(want)}, "
        f"first difference at offset {at}\n"
        f" got[{lo}:{lo + 80}] = {got[lo:lo + 80]!r}\n"
        f"want[{lo}:{lo + 80}] = {want[lo:lo + 80]!r}"
    )
