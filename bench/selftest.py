#!/usr/bin/env python3
"""The benchmark's own tests: every checker rejects a deliberately wrong
output, and a tiny-size run of each workload passes, traced and untraced.

    python3 bench/selftest.py        # about half a minute

Kept out of the repository's pytest run on purpose: the benchmark re-imports
the package, which must not happen inside another test session.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def package():
    return workloads.fresh_import(run.SRC)


class ProverChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.mods = package()
        cls.ext = cls.mods.prover.prove(24, pack="extended")
        cls.base = cls.mods.prover.prove(40, pack="base")

    def problems(self, n, pack, report, trace=None):
        trace = report.serialize() if trace is None else trace
        return checks.prover_output(n, pack, report, trace, report.serialize())

    def fresh(self, n, pack):
        return self.mods.prover.prove(n, pack=pack)

    def test_real_outputs_pass(self):
        self.assertEqual(self.problems(24, "extended", self.ext), [])
        self.assertEqual(self.problems(40, "base", self.base), [])

    def test_g_not_dividing_n(self):
        report = self.fresh(24, "extended")
        report.verdicts.append(dataclasses.replace(report.verdicts[1], g=5))
        self.assertTrue(self.problems(24, "extended", report))

    def test_bad_assignment(self):
        report = self.fresh(24, "extended")
        pv = next(pv for v in report.verdicts for pv in v.profiles if pv.assignment)
        pv.assignment["y_GG"] += pv.profile.g   # keeps divisibility, breaks the sum
        self.assertTrue(any("!= n" in p for p in self.problems(24, "extended", report)))

    def test_profile_breaking_divisibility(self):
        report = self.fresh(24, "extended")
        v = next(v for v in report.verdicts if v.g > 1 and v.profiles)
        pv = v.profiles[0]
        pv.profile = dataclasses.replace(pv.profile, blocks=((5, 1),))   # g does not divide 25
        self.assertTrue(self.problems(24, "extended", report))

    def test_8p_survivor(self):
        report = self.fresh(40, "base")   # 40 = 8*5
        v = next(v for v in report.verdicts if v.g == 5)
        v.eliminated = False
        for pv in v.profiles:
            pv.eliminated = False
        self.assertTrue(any("8*5" in p for p in self.problems(40, "base", report)))

    def test_unstable_serialization(self):
        self.assertTrue(self.problems(40, "base", self.base, trace="{}"))
        out = {"report": self.base, "trace": "{}"}
        job = workloads._prover_job(self.mods, 40, "base", reserialize=True)
        self.assertTrue(any("twice" in p for p in job.check(out)))


class VerifyChecks(unittest.TestCase):
    def test_outputs(self):
        ok = "ok: bialgebra, antipode\n"
        self.assertEqual(checks.verify_output("taft3", 0, ok, 9), [])
        self.assertTrue(checks.verify_output("taft3", 1, ok, 9))
        self.assertTrue(checks.verify_output("taft3", 0, "FAIL unit at (0,)\n", 9))
        self.assertTrue(checks.verify_output("kD5dual", 0, ok, 5))

    def test_implied_dims(self):
        for fam, dim in (("kC7", 7), ("kC7dual", 7), ("kD5dual", 10), ("taft4", 16),
                         ("h4", 4), ("k8", 8), ("am11:5", 20)):
            self.assertEqual(checks.implied_dim(fam), dim)

    def test_perturbed_copy_is_rejected(self):
        mods = package()
        for fam in ("h4", "kC3dual", "kD3dual"):
            for seed in range(3):
                h = mods.atlas.build(fam)
                copy = workloads._perturbed(mods, h, random.Random(seed))
                report = mods.hopf.verify_bialgebra(copy)
                self.assertEqual(checks.perturbed_rejected(fam, report), [])
                self.assertTrue(checks.perturbed_rejected(fam, mods.hopf.verify_bialgebra(h)))


class InvariantChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.mods = package()
        cls.sums = {f: cls.mods.invariants.summarize(cls.mods.atlas.build(f))
                    for f in ("kC3dual", "taft2", "kD3dual", "kC4")}

    def bad(self, family, **changes):
        return checks.summary_output(family, dataclasses.replace(self.sums[family], **changes))

    def test_real_outputs_pass(self):
        for fam, s in self.sums.items():
            self.assertEqual(checks.summary_output(fam, s), [], fam)

    def test_general_laws(self):
        zero = self.mods.scalars.FieldElem.zero(self.sums["kC4"].trace_S2.order)
        self.assertTrue(self.bad("kC4", trace_S2=zero))              # Larson-Radford
        self.assertTrue(self.bad("taft2", grouplike_count=3))        # r !| dim
        self.assertTrue(self.bad("taft2", antipode_order=3))         # Radford
        self.assertTrue(self.bad("taft2", filtration=[2, 2, 4]))     # not strict
        table = dict(self.sums["taft2"].skew_table)
        table[(0, 0)] = 1
        self.assertTrue(self.bad("taft2", skew_table=table))

    def test_closed_forms(self):
        self.assertTrue(self.bad("kC4", antipode_order=1))
        table = dict(self.sums["kC4"].skew_table)
        table[(0, 1)] = 2
        self.assertTrue(self.bad("kC4", skew_table=table))
        self.assertTrue(self.bad("kD3dual", dual_grouplike_count=3))
        self.assertTrue(self.bad("taft2", antipode_order=2))

    def test_iso(self):
        mods = self.mods
        h, k = mods.atlas.build("taft2"), mods.atlas.build("dual:taft2")
        w = mods.isowitness.search_iso(h, k)
        rep = mods.isowitness.verify_iso(h, k, w)
        self.assertEqual(checks.iso_output("taft2", "dual:taft2", k, {"g": 2}, w, rep), [])
        self.assertTrue(checks.iso_output("taft2", "dual:taft2", k, {"g": 2}, "none found", None))
        self.assertTrue(checks.iso_output("taft2", "dual:taft2", k, {"g": 4}, w, rep))
        swapped = dataclasses.replace(w, generator_images={**w.generator_images,
                                                           "g": w.generator_images["x"]})
        self.assertTrue(checks.iso_output("taft2", "dual:taft2", k, {"g": 2}, swapped, rep))
        # g + x has counit 1 and squares to 1 in the Sweedler algebra, but is
        # not grouplike: only the coproduct check can reject it.
        g, x = w.generator_images["g"], w.generator_images["x"]
        g_plus_x = {i: g.get(i, 0) + x.get(i, 0) for i in set(g) | set(x)}
        shifted = dataclasses.replace(w, generator_images={**w.generator_images, "g": g_plus_x})
        self.assertTrue(checks.iso_output("taft2", "dual:taft2", k, {"g": 2}, shifted, rep))
        failed = mods.hopf.Report("iso")
        failed.fail("relations", ())
        self.assertTrue(checks.iso_output("taft2", "dual:taft2", k, {"g": 2}, w, failed))


class TinyRuns(unittest.TestCase):
    def run_tiny(self, workload, trace):
        result, _ = run.run_benchmark(workload, seed=0, seconds=0, trace=trace, tiny=True,
                                      log=lambda msg: None)
        self.assertTrue(result["correct"], workload)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result["metrics"]

    def test_untraced_metrics(self):
        names = {m["name"] for m in BENCHMARK["end_to_end"]}
        for workload in BENCHMARK_WORKLOADS:
            metrics = self.run_tiny(workload, 0)
            self.assertEqual(set(metrics), names)
            self.assertTrue(all(m["value"] > 0 for m in metrics.values()), metrics)

    def test_traced_metrics(self):
        names = {m["name"] for m in BENCHMARK["per_layer"]}
        exercised = {"prover": "prover.profiles", "verify": "hopf.verify_calls",
                     "invariants": "invariants.skew_space_calls"}
        for workload in BENCHMARK_WORKLOADS:
            metrics = self.run_tiny(workload, 1)
            self.assertEqual(set(metrics), names)
            self.assertGreater(metrics[exercised[workload]]["value"], 0)


BENCHMARK_WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

if __name__ == "__main__":
    unittest.main()
