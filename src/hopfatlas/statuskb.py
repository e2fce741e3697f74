"""Data-driven classification status for dimensions 2..100.

The knowledge base is a JSON file of shape-pattern rows with per-column
status cells and explicit-dimension overrides; it never computes mathematics.
Every dimension in range matches exactly one pattern; explicit dims override
the pattern default.  crosscheck_with_prover confirms the recorded grouplike
orders against the feasibility prover without auto-correcting anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .prover import Assumptions, prove

COLUMNS = ("semisimple", "pointed", "chevalley", "other")
STATUSES = ("completed", "none", "open", "partial")


def _load(name):
    with resources.files("hopfatlas.data").joinpath(name).open("r") as fh:
        return json.load(fh)


_KB = None
_BIB = None


def knowledge_base():
    global _KB
    if _KB is None:
        _KB = _load("table1.json")
        _validate(_KB)
    return _KB


def bibliography():
    global _BIB
    if _BIB is None:
        _BIB = _load("bibliography.json")
    return _BIB


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


def match_pattern(n: int) -> str:
    """The unique shape pattern for 2 <= n <= 100."""
    if not (2 <= n <= 100):
        raise ValueError(f"dimension must be in [2, 100], got {n}")
    f = factor(n)
    exps = sorted(f.values(), reverse=True)
    if exps == [1]:
        return "p"
    if exps == [1, 1]:
        return "2p" if 2 in f else "pq"
    if exps == [2]:
        return "p2"
    if exps == [3]:
        return "p3"
    if exps == [2, 1]:
        single = [p for p, e in f.items() if e == 1][0]
        return "2p2" if single == 2 else "pq2"
    if exps == [1, 1, 1]:
        return "pqr"
    if exps == [4]:
        return "p4"
    if exps == [3, 1]:
        return "p3q"
    if exps == [2, 2]:
        return "p2q2"
    if exps == [2, 1, 1]:
        return "p2qr"
    if exps == [3, 2]:
        return "p3q2"
    if exps == [5]:
        return "p5"
    if exps == [6]:
        return "p6"
    if exps == [4, 1]:
        return "p4q"
    if exps == [5, 1]:
        return "p5q"
    raise ValueError(f"no pattern for factorization {f} of {n}")


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
            for key in cell.get("citations", []):
                if key not in bib:
                    raise ValueError(f"{row['id']}/{col}: unknown citation {key!r}")
            for keys in cell.get("dim_citations", {}).values():
                for key in keys:
                    if key not in bib:
                        raise ValueError(f"{row['id']}/{col}: unknown citation {key!r}")
            overlap = set(cell.get("open_dims", [])) & set(cell.get("completed_dims", []))
            overlap |= set(cell.get("open_dims", [])) & set(cell.get("none_dims", []))
            if overlap:
                raise ValueError(f"{row['id']}/{col}: dims both open and resolved: {overlap}")
    for n in range(2, 101):
        match_pattern(n)
    for key in kb["grouplike_notes"]:
        for c in kb["grouplike_notes"][key]["citations"]:
            if c not in bib:
                raise ValueError(f"grouplike note {key}: unknown citation {c!r}")


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
