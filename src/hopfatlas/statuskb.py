"""Data-driven classification status for dimensions 2..100.

The knowledge base is a JSON file of shape-pattern rows with per-column
status cells and explicit-dimension overrides; it never computes mathematics.
Every dimension in range matches exactly one pattern, looked up in one table
by the exponents of its factorization; explicit dims override the pattern
default.  crosscheck_with_prover confirms the recorded grouplike orders
against the feasibility prover without auto-correcting anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from importlib import resources

from .prover import Assumptions, prove

COLUMNS = ("semisimple", "pointed", "chevalley", "other")
STATUSES = ("completed", "none", "open", "partial")


def _load(name):
    with resources.files("hopfatlas.data").joinpath(name).open("r") as fh:
        return json.load(fh)


@cache
def knowledge_base():
    kb = _load("table1.json")
    _validate(kb)
    return kb


@cache
def bibliography():
    return _load("bibliography.json")


def factor(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# the shape pattern of each exponent signature, the prime exponents of n sorted
# in descending order; (1, 1) and (2, 1) also depend on whether 2 divides n once
_PATTERNS = {
    (1,): "p", (2,): "p2", (3,): "p3", (4,): "p4", (5,): "p5", (6,): "p6",
    (1, 1, 1): "pqr", (3, 1): "p3q", (2, 2): "p2q2", (2, 1, 1): "p2qr", (3, 2): "p3q2",
    (4, 1): "p4q", (5, 1): "p5q",
}


def match_pattern(n: int) -> str:
    """The unique shape pattern for 2 <= n <= 100."""
    if not (2 <= n <= 100):
        raise ValueError(f"dimension must be in [2, 100], got {n}")
    f = factor(n)
    exps = tuple(sorted(f.values(), reverse=True))
    if exps == (1, 1):
        return "2p" if 2 in f else "pq"
    if exps == (2, 1):
        return "2p2" if f.get(2) == 1 else "pq2"
    return _PATTERNS[exps]


def _pattern_row(pattern_id):
    for row in knowledge_base()["patterns"]:
        if row["id"] == pattern_id:
            return row
    raise KeyError(pattern_id)


@dataclass
class CellStatus:
    status: str
    citations: list
    note: str = ""


def cell_status(n: int, cell: dict) -> CellStatus:
    citations = list(cell.get("citations", []))
    dim_cits = cell.get("dim_citations", {}).get(str(n))
    if dim_cits:
        citations = list(dim_cits)
    note = cell.get("note", "")
    if n in cell.get("open_dims", []):
        return CellStatus("open", citations, note)
    if n in cell.get("completed_dims", []):
        return CellStatus("completed", citations, note)
    if n in cell.get("none_dims", []):
        return CellStatus("none", citations, note)
    return CellStatus(cell.get("status"), citations, note)


def status(n: int) -> dict:
    """Four-column report for one dimension, each cell carrying citations."""
    pattern = match_pattern(n)
    row = _pattern_row(pattern)
    out = {"dim": n, "pattern": pattern, "columns": {}}
    for col in COLUMNS:
        out["columns"][col] = cell_status(n, row["cells"][col])
    note = knowledge_base()["grouplike_notes"].get(str(n))
    if note:
        out["grouplike_orders"] = list(note["allowed_orders"])
    return out


def _validate(kb):
    bib = bibliography()
    seen = set()
    cited = []  # (where, citation keys), checked against bib at the end
    for row in kb["patterns"]:
        if row["id"] in seen:
            raise ValueError(f"duplicate pattern {row['id']}")
        seen.add(row["id"])
        for col in COLUMNS:
            cell = row["cells"][col]
            if cell.get("status") not in STATUSES:
                raise ValueError(f"{row['id']}/{col}: bad status {cell.get('status')!r}")
            if not cell.get("citations"):
                raise ValueError(f"{row['id']}/{col}: cell without citations")
            where = f"{row['id']}/{col}"
            cited.append((where, cell["citations"]))
            cited += [(where, keys) for keys in cell.get("dim_citations", {}).values()]
            overlap = set(cell.get("open_dims", [])) & set(cell.get("completed_dims", []))
            overlap |= set(cell.get("open_dims", [])) & set(cell.get("none_dims", []))
            if overlap:
                raise ValueError(f"{row['id']}/{col}: dims both open and resolved: {overlap}")
    for n in range(2, 101):
        match_pattern(n)
    cited += [(f"grouplike note {n}", note["citations"]) for n, note in kb["grouplike_notes"].items()]
    for where, keys in cited:
        for key in keys:
            if key not in bib:
                raise ValueError(f"{where}: unknown citation {key!r}")


def _cell_text(cell: dict) -> str:
    parts = []
    base = cell.get("status")
    comp = cell.get("completed_dims", [])
    opens = cell.get("open_dims", [])
    nones = cell.get("none_dims", [])
    if base == "completed" and not comp:
        parts.append("Completed")
    elif base == "none" and not nones:
        parts.append("None")
    if comp:
        parts.append("Completed: " + ", ".join(str(d) for d in comp))
    if nones:
        parts.append("None: " + ", ".join(str(d) for d in nones))
    if opens:
        parts.append("Open: " + ", ".join(str(d) for d in opens))
    elif base == "open" and not (comp or nones):
        parts.append("Open")
    elif base == "open" and (comp or nones):
        parts.append("Open otherwise")
    note = cell.get("note")
    if note:
        parts.append(f"({note})")
    cits = cell.get("citations", [])
    parts.append("[" + ", ".join(cits) + "]")
    return "; ".join(parts)


def render_table(fmt: str = "md") -> str:
    """Byte-stable rendering of the whole knowledge base."""
    kb = knowledge_base()
    if fmt == "md":
        lines = ["| dim shape | Semisimple | Pointed | Chevalley | Other |",
                 "|---|---|---|---|---|"]
        for row in kb["patterns"]:
            cells = [_cell_text(row["cells"][c]) for c in COLUMNS]
            lines.append("| " + " | ".join([row["id"]] + cells) + " |")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        lines = ["pattern,semisimple,pointed,chevalley,other"]
        for row in kb["patterns"]:
            cells = [_cell_text(row["cells"][c]).replace(",", ";") for c in COLUMNS]
            lines.append(",".join([row["id"]] + cells))
        return "\n".join(lines) + "\n"
    raise ValueError(f"format must be 'md' or 'csv', got {fmt!r}")


@dataclass
class CrosscheckReport:
    dim: int
    vacuous: bool
    ok: bool
    surviving: list
    allowed: list

    def __str__(self):
        if self.vacuous:
            return f"crosscheck {self.dim}: vacuous (no recorded grouplike claims)"
        verdict = "consistent" if self.ok else "MISMATCH"
        return (f"crosscheck {self.dim}: {verdict}; prover surviving {self.surviving} "
                f"within recorded {self.allowed}")


def crosscheck_with_prover(n: int) -> CrosscheckReport:
    """Confirm recorded grouplike-order claims against prove(); mismatches are
    reported, never auto-corrected."""
    if not (2 <= n <= 100):
        raise ValueError(f"dimension must be in [2, 100], got {n}")
    kb = knowledge_base()
    note = kb["grouplike_notes"].get(str(n))
    if note is None:
        return CrosscheckReport(n, True, True, [], [])
    proto = kb["prover_protocol"]
    report = prove(
        n, Assumptions(), proto["pack"], tuple(proto["flags"]), tuple(proto["axioms"])
    )
    surviving = report.surviving_gs()
    allowed = list(note["allowed_orders"])
    return CrosscheckReport(n, False, set(surviving) <= set(allowed), surviving, allowed)
