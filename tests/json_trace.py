"""The dict-tree trace serializer that EliminationReport.chunks replaced, kept
as its differential oracle: each report object becomes a dict, and the tree
is dumped once by json.dumps with sorted keys and no spaces (trace format v1).
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
