"""Per-layer tracing from outside the program.

The tracer wraps public names of the hopfatlas modules: module functions,
rebound in every module namespace that holds them (so a caller finds the
wrapper where it looks the name up), and class methods, set on the class.
Nothing under src/ is edited and private helpers are never wrapped.

Two kinds of wrapper:

* a *span* records name, start, end, parent span and job, and keeps self
  time (its duration minus the part covered by child spans);
* a *counter* only counts calls.  It is used for the hot scalar and
  multiplication methods, where a span per call would swamp the work.

Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name).  An attribute "Class.method" is wrapped on
# the class.
SPANS = [
    ("linalg", "kernel_of_columns", "linalg.kernel"),
    ("hopf", "verify_bialgebra", "hopf.verify_bialgebra"),
    ("hopf", "verify_antipode", "hopf.verify_antipode"),
    ("hopf", "verify_hopf_morphism", "hopf.verify_morphism"),
    ("hopf", "hopf_dual", "hopf.dual"),
    ("atlas", "build", "atlas.build"),
    ("invariants", "summarize", "invariants.summarize"),
    ("invariants", "coradical_filtration", "invariants.filtration"),
    ("invariants", "grouplikes", "invariants.grouplikes"),
    ("invariants", "skew_space", "invariants.skew_space"),
    ("invariants", "antipode_order", "invariants.antipode_order"),
    ("isowitness", "search_iso", "isowitness.search"),
    ("isowitness", "verify_iso", "isowitness.verify_iso"),
    ("prover", "prove", "prover.prove"),
    ("prover", "enumerate_profiles", "prover.enumerate"),
    ("prover", "apply_extended_pack", "prover.extended"),
    ("prover", "EliminationReport.serialize", "prover.serialize"),
    ("cli", "main", "cli.main"),
]

COUNTERS = [
    ("scalars", "FieldElem.__mul__", "scalars.mul"),
    ("scalars", "FieldElem.__rmul__", "scalars.mul"),
    ("scalars", "FieldElem.inverse", "scalars.inverse"),
    ("scalars", "FieldElem.__init__", "scalars.elems"),
    ("scalars", "totient", "scalars.totient"),
    ("linalg", "Echelon.insert", "linalg.echelon_insert"),
    ("hopf", "FinHopf.mul", "hopf.mul"),
]

MIB = 2 ** 20


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.inclusive = defaultdict(float)   # outermost spans only
        self.self_time = defaultdict(float)
        self.extra = Counter()                # work measured from arguments/results
        self.trace_mib = 0.0
        self.spans = []                       # (id, parent, name, start, end, job)
        self._next_id = 0
        self.job = None
        self.on = True                        # off: wrappers pass straight through
        self._stack = []                      # [span id, name, child seconds]
        self._active = Counter()
        self._undo = []
        self._seen_builds = set()
        self._build_results = []

    # -- installing and removing wrappers -----------------------------------

    def install(self, mods):
        """Wrap the public names of one fresh import of the package."""
        for module, attr, name in SPANS:
            self._wrap(mods, module, attr, self._span(name, _OBSERVERS.get(name)))
        for module, attr, name in COUNTERS:
            self._wrap(mods, module, attr, self._counter(name))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, mods, module, attr, make):
        owner = getattr(mods, module)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            self._set(owner, attr, original, make(original))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for mod in mods.all_modules():
            if vars(mod).get(attr) is original:
                self._set(mod, attr, original, wrapper)

    def _set(self, owner, attr, original, wrapper):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _counter(self, name):
        calls = self.calls

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.on:
                    calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        return make

    def _span(self, name, observe):
        def make(fn):
            signature = inspect.signature(fn)

            @functools.wraps(fn)
            def spanned(*args, **kwargs):
                if not self.on:
                    return fn(*args, **kwargs)
                self.calls[name] += 1
                outermost = not self._active[name]
                self._active[name] += 1
                span_id = self._next_id
                self._next_id += 1
                parent = self._stack[-1][0] if self._stack else None
                frame = [span_id, name, 0.0]
                self._stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    self._stack.pop()
                    self._active[name] -= 1
                    took = end - start
                    if outermost:
                        self.inclusive[name] += took
                    self.self_time[name] += took - frame[2]
                    if self._stack:
                        self._stack[-1][2] += took
                    self.spans.append((span_id, parent, name, start, end, self.job))
                if observe is not None:
                    observe(self, signature.bind(*args, **kwargs).arguments, result)
                return result

            return spanned

        return make

    # -- per-layer metrics ----------------------------------------------------

    def metrics(self):
        c, inc, own, extra = self.calls, self.inclusive, self.self_time, self.extra
        checks = c["hopf.verify_morphism"]
        return {
            "scalars.mul_calls": (c["scalars.mul"], "count"),
            "scalars.inverse_calls": (c["scalars.inverse"], "count"),
            "scalars.elems_created": (c["scalars.elems"], "count"),
            "scalars.totient_calls": (c["scalars.totient"], "count"),
            "linalg.kernel_calls": (c["linalg.kernel"], "count"),
            "linalg.kernel_s": (inc["linalg.kernel"], "s"),
            "linalg.kernel_cells": (extra["linalg.kernel_cells"], "count"),
            "linalg.echelon_inserts": (c["linalg.echelon_insert"], "count"),
            "hopf.verify_calls": (c["hopf.verify_bialgebra"], "count"),
            "hopf.verify_s": (inc["hopf.verify_bialgebra"] + inc["hopf.verify_antipode"], "s"),
            "hopf.mul_calls": (c["hopf.mul"], "count"),
            "hopf.dual_s": (inc["hopf.dual"], "s"),
            "atlas.build_misses": (extra["atlas.build_misses"], "count"),
            "atlas.build_self_s": (own["atlas.build"], "s"),
            "invariants.filtration_s": (inc["invariants.filtration"], "s"),
            "invariants.grouplikes_calls": (c["invariants.grouplikes"], "count"),
            "invariants.grouplikes_s": (inc["invariants.grouplikes"], "s"),
            "invariants.skew_space_calls": (c["invariants.skew_space"], "count"),
            "invariants.skew_space_s": (inc["invariants.skew_space"], "s"),
            "invariants.antipode_order_s": (inc["invariants.antipode_order"], "s"),
            "isowitness.search_s": (inc["isowitness.search"], "s"),
            "isowitness.morphism_checks": (checks, "count"),
            "isowitness.witness_yield": (extra["isowitness.witnesses"] / checks if checks else 0.0,
                                         "ratio"),
            "prover.profiles": (extra["prover.profiles"], "count"),
            "prover.enumerate_s": (inc["prover.enumerate"], "s"),
            "prover.extended_calls": (c["prover.extended"], "count"),
            "prover.extended_s": (inc["prover.extended"], "s"),
            "prover.feasible_profiles": (extra["prover.feasible_profiles"], "count"),
            "prover.serialize_s": (inc["prover.serialize"], "s"),
            "prover.trace_mib": (self.trace_mib, "MiB"),
            "cli.self_s": (own["cli.main"], "s"),
        }

    def span_records(self):
        keys = ("id", "parent", "name", "start", "end", "job")
        return [dict(zip(keys, s)) for s in sorted(self.spans)]


# -- observers: work measured from a span's arguments or result ---------------

def _kernel(tracer, args, result):
    tracer.extra["linalg.kernel_cells"] += args["ambient"] * args["nvars"]


def _build(tracer, args, result):
    # A cache hit hands back an object seen before; a miss constructs a new one.
    if id(result) not in tracer._seen_builds:
        tracer._seen_builds.add(id(result))
        tracer._build_results.append(result)   # keeps ids from being reused
        tracer.extra["atlas.build_misses"] += 1


def _search(tracer, args, result):
    if not isinstance(result, str):
        tracer.extra["isowitness.witnesses"] += 1


def _enumerate(tracer, args, result):
    tracer.extra["prover.profiles"] += len(result)


def _prove(tracer, args, result):
    tracer.extra["prover.feasible_profiles"] += sum(
        not pv.eliminated for v in result.verdicts for pv in v.profiles)


def _serialize(tracer, args, result):
    tracer.trace_mib = max(tracer.trace_mib, len(result) / MIB)


_OBSERVERS = {
    "linalg.kernel": _kernel,
    "atlas.build": _build,
    "isowitness.search": _search,
    "prover.enumerate": _enumerate,
    "prover.prove": _prove,
    "prover.serialize": _serialize,
}
