"""The three workloads: fixed job lists.

A workload is a function ``make(seed, tiny)`` returning a ``setup(session)``
callable; ``setup`` imports a fresh copy of the package and returns the job
list.  A job is one user query: a ``run`` that is timed, an optional
``prepare`` that runs untimed before it, and a ``check`` on its output.

The set of jobs is the same for every seed, so that every seed asks for the
same work; the seed fixes the random choices of the checks and, except in
``prover``, the order of the jobs.  (A seeded sample of dimensions or
families made the total work differ by about 10% between seeds.)
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import checks

PACKAGE = "hopfatlas"
MODULES = ("scalars", "linalg", "hopf", "atlas", "invariants", "isowitness", "prover", "cli")


class SourceTreeError(RuntimeError):
    pass


class Package:
    """One import of the package: its modules by short name."""

    def __init__(self, modules):
        self._modules = modules
        for name in MODULES:
            setattr(self, name, sys.modules[f"{PACKAGE}.{name}"])

    def all_modules(self):
        return list(self._modules)


def fresh_import(src: Path) -> Package:
    """Drop every loaded hopfatlas module and import the package again from
    ``src``, so that no cache of an earlier import survives."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    for name in MODULES:
        module = importlib.import_module(f"{PACKAGE}.{name}")
        if Path(module.__file__).resolve().parent != (src / PACKAGE).resolve():
            raise SourceTreeError(f"{module.__name__} was imported from {module.__file__}, "
                                  f"not from {src}")
    loaded = [m for n, m in sys.modules.items() if n.startswith(PACKAGE + ".")]
    return Package(loaded)


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    prepare: Optional[Callable[[], None]] = None


class Session:
    """What a workload's set-up needs from the runner: where the source tree
    is, and a hook for each fresh import (the tracer wraps it when on)."""

    def __init__(self, src: Path):
        self.src = src
        self.on_import = None

    def import_package(self) -> Package:
        mods = fresh_import(self.src)
        if self.on_import is not None:
            self.on_import(mods)
        return mods


# -- prover -------------------------------------------------------------------

# Extended jobs stop below 150: from there on one job takes 5-62 s.
PROVER_EXTENDED = (96, 99, 104, 107, 110, 113, 117, 120, 124, 127, 131, 136, 139, 143)
PROVER_BASE = (160, 165, 171, 176, 181, 184, 191, 197)
PROVER_TINY = ((24, "extended"), (40, "base"), (56, "extended"))
RESERIALIZED_PER_RUN = 6   # serialisation is ~40% of a job; re-serialise a few


def prover(seed, tiny=False):
    """The jobs run in a fixed order: with the multi-megabyte traces, the
    order alone moved peak RSS by 9% between seeds (allocator fragmentation).
    The seed picks the jobs whose trace is serialised a second time."""
    cases = list(PROVER_TINY) if tiny else (
        [(n, "extended") for n in PROVER_EXTENDED] + [(n, "base") for n in PROVER_BASE])
    rng = random.Random(seed)
    twice = set(rng.sample(cases, min(RESERIALIZED_PER_RUN, len(cases))))

    def setup(session):
        mods = session.import_package()
        return [_prover_job(mods, n, pack, (n, pack) in twice) for n, pack in cases]

    return setup


def _prover_job(mods, n, pack, reserialize):
    def run():
        report = mods.prover.prove(n, pack=pack)
        return {"report": report, "trace": report.serialize()}

    def check(out):
        # The trace is dropped before it is made again, so that the check
        # never holds two traces: peak memory stays the job's own.
        report, first = out["report"], _digest(out.pop("trace"))
        again = _digest(report.serialize()) if reserialize else None
        return checks.prover_output(n, pack, report, first, again)

    return Job(f"prove {n} --pack {pack}", run, check)


def _digest(text):
    # Compared only within this process; hashing the str makes no copy of it.
    return len(text), hash(text)


# -- verify -------------------------------------------------------------------

VERIFY_FAMILIES = (
    [f"kC{n}" for n in range(6, 13)] + [f"kC{n}dual" for n in range(6, 13)]
    + ["kD4dual", "kD5dual", "kD6dual", "taft3", "taft4", "h4"]
    + ["a2", "a4p", "a4pp", "a4ppp+", "a4ppp-", "a22", "k8"]
    + ["am10:3", "am10d:3", "am11:3", "h4xc:3", "h4xc:5"]
)
VERIFY_TINY = ("kC3", "kC3dual", "h4", "kD3dual")
PERTURBED_PER_RUN = 3
PERTURB_MAX_DIM = 12   # keeps the extra check cheap


def verify(seed, tiny=False):
    families = list(VERIFY_TINY if tiny else VERIFY_FAMILIES)
    rng = random.Random(seed)
    rng.shuffle(families)
    small = [f for f in families if checks.implied_dim(f) <= PERTURB_MAX_DIM]
    perturbed = set(rng.sample(small, min(PERTURBED_PER_RUN, len(small))))

    def setup(session):
        session.import_package()   # the import a CLI call pays; each job then imports afresh
        return [_verify_job(session, fam, seed if fam in perturbed else None)
                for fam in families]

    return setup


def _verify_job(session, family, perturb_seed):
    """`hopfatlas verify <family>` in-process, cold: each job runs on a fresh
    import, so the family is constructed and checked from scratch."""
    state = {}

    def prepare():
        state["mods"] = session.import_package()

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = state["mods"].cli.main(["verify", family])
            except SystemExit as e:   # the CLI exits early on a bad family name
                code = e.code
        return code, out.getvalue()

    def check(result):
        code, stdout = result
        mods = state.pop("mods")
        h = mods.atlas.build(family)
        problems = checks.verify_output(family, code, stdout, h.dim)
        if perturb_seed is not None:
            copy = _perturbed(mods, h, random.Random(f"{perturb_seed}:{family}"))
            problems += checks.perturbed_rejected(family, mods.hopf.verify_bialgebra(copy))
        return problems

    return Job(f"verify {family}", run, check, prepare)


def _perturbed(mods, h, rng):
    """A copy of h whose product b_i*b_j gains one b_k, with b_i in the support
    of the unit: then 1*b_j != b_j, so the copy is no bialgebra."""
    i = rng.choice(sorted(h.unit))
    j, k = rng.randrange(h.dim), rng.randrange(h.dim)
    mult = {key: dict(row) for key, row in h.mult.items()}
    row = mult.setdefault((i, j), {})
    new = row.get(k, mods.scalars.FieldElem.zero(h.order)) + 1
    if new:
        row[k] = new
    else:
        del row[k]
    return mods.hopf.FinHopf(f"{h.name}~", h.dim, h.order, mult, dict(h.unit), h.comult,
                             dict(h.counit), h.antipode, dict(h.metadata))


# -- invariants ---------------------------------------------------------------

SUMMARIZE_FAMILIES = ("kC7dual", "kC8dual", "kC9", "kC10", "kC12", "kD6dual", "taft3",
                      "taft4", "k8", "a22", "am11:3", "am11:5")
AC6_PAIRS = (("taft2", "dual:taft2"), ("taft3", "dual:taft3"), ("taft4", "dual:taft4"),
             ("a2", "dual:a2"), ("a22", "dual:a22"), ("a4ppp+", "dual:a4p"),
             ("a4ppp+", "a4ppp-"))
# Orders of the grouplike generators of each source, from the presentations:
# Taft N is generated by g of order N; a2 by g of order 2; a22 by g, h of
# order 2; a4ppp+ by g of order 4.
GROUPLIKE_GENERATORS = {"taft2": {"g": 2}, "taft3": {"g": 3}, "taft4": {"g": 4},
                        "a2": {"g": 2}, "a22": {"g": 2, "h": 2}, "a4ppp+": {"g": 4}}
SUMMARIZE_TINY = ("kC3dual", "taft2", "kD3dual")
AC6_TINY = (("taft2", "dual:taft2"),)


def invariants(seed, tiny=False):
    families = SUMMARIZE_TINY if tiny else SUMMARIZE_FAMILIES
    pairs = AC6_TINY if tiny else AC6_PAIRS
    cases = [("summarize", f) for f in families] + [("iso", p) for p in pairs]
    random.Random(seed).shuffle(cases)

    def setup(session):
        """Build every family the jobs need; the jobs then start warm."""
        mods = session.import_package()
        needed = list(families) + [name for pair in pairs for name in pair]
        built = {name: mods.atlas.build(name) for name in dict.fromkeys(needed)}
        return [_summarize_job(mods, arg, built[arg]) if kind == "summarize"
                else _iso_job(mods, arg, built) for kind, arg in cases]

    return setup


def _summarize_job(mods, family, h):
    return Job(f"summarize {family}", lambda: mods.invariants.summarize(h),
               lambda s: checks.summary_output(family, s))


def _iso_job(mods, pair, built):
    source, target = pair
    h, k = built[source], built[target]

    def run():
        witness = mods.isowitness.search_iso(h, k)
        if isinstance(witness, str):
            return witness, None
        return witness, mods.isowitness.verify_iso(h, k, witness)

    def check(out):
        witness, report = out
        return checks.iso_output(source, target, k, GROUPLIKE_GENERATORS[source], witness, report)

    return Job(f"iso {source} {target}", run, check)


WORKLOADS = {"prover": prover, "verify": verify, "invariants": invariants}
# verify's job list alone outlasts --seconds; a second round of it halves
# the weight of one noisy stretch of the host in its medians.
MIN_ROUNDS = {"verify": 2}
