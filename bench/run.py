#!/usr/bin/env python3
"""hopfatlas benchmark: one command, three workloads, end-to-end metrics.

    python3 bench/run.py --workload prover|verify|invariants \
        --seed N --seconds S --trace 0|1

Run from anywhere; the source tree is found next to this directory (src/).
The process sets the workload up several times, each time on a fresh import
of the package, then runs whole rounds of the workload's job list, one job
after another on one thread, until the jobs have been timed for at least
``--seconds`` in all (and for at least two rounds of ``verify``).  Every job's output is checked.  The last line of standard
output is one JSON object:

    {"correct": bool, "attempted": jobs run, "failed": jobs that raised,
     "metrics": {name: {"value": v, "unit": u}, ...}}

With ``--trace 0`` the metrics are the end-to-end ones (set-up, job-list wall
and CPU time, median job latency, peak RSS).  With ``--trace 1`` the package's
public functions are wrapped during one extra set-up and the first round, and
the metrics are the per-layer counts and times of those (see README.md).
The result, and in a traced run the spans, are also written under bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3        # set up at least this often, and for at least
SETUP_MIN_SECONDS = 1.0  # this long in all; setup_s is the median

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import MIN_ROUNDS, WORKLOADS, Session, SourceTreeError, fresh_import  # noqa: E402


def cpu_seconds():
    """CPU time of this process and of the children it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_round(jobs, tracer, log):
    """Run every job once; returns per-job (label, wall, cpu), failures and
    problems found by the checks."""
    times, failed, problems = [], 0, []
    for job in jobs:
        if job.prepare is not None:
            job.prepare()
        gc.collect()
        if tracer is not None:
            tracer.job, tracer.on = job.label, True
        cpu0, t0 = cpu_seconds(), perf_counter()
        try:
            out = job.run()
        except Exception:  # a failed operation is counted, and the run goes on
            out = None
            failed += 1
            log(f"FAILED {job.label}:\n{traceback.format_exc()}")
        t1, cpu1 = perf_counter(), cpu_seconds()
        if tracer is not None:
            tracer.on = False
        times.append((job.label, t1 - t0, cpu1 - cpu0))
        if out is not None:
            try:
                problems += job.check(out)
            except Exception:  # a checker that cannot read the output rejects it
                problems.append(f"{job.label}: checker raised\n{traceback.format_exc()}")
        # Drop the output before the next job, so that peak memory is one
        # job's own and does not depend on the order of the jobs.
        del out
    return times, failed, problems


def run_benchmark(workload, seed, seconds, trace, tiny=False, log=None):
    log = log or (lambda msg: print(msg, file=sys.stderr))
    if not (SRC / "hopfatlas" / "cli.py").is_file():
        raise SourceTreeError(f"no hopfatlas source tree at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    setup = WORKLOADS[workload](seed, tiny)
    session = Session(SRC)
    tracer = Tracer() if trace else None

    # Untimed: writes bytecode and loads the standard library once, so that
    # every timed set-up below does the same work.
    fresh_import(SRC)
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
        gc.collect()
        t0 = perf_counter()
        jobs = setup(session)
        setup_times.append(perf_counter() - t0)
    if tracer is not None:   # one more set-up, traced, whose jobs are then run
        session.on_import, tracer.job, tracer.on = tracer.install, "setup", True
        jobs = setup(session)
        tracer.on = False

    rounds, failed, problems, measured = [], 0, [], 0.0
    while len(rounds) < MIN_ROUNDS.get(workload, 1) or measured < seconds:
        times, round_failed, round_problems = run_round(jobs, tracer, log)
        rounds.append(times)
        failed += round_failed
        problems += round_problems
        measured += sum(wall for _, wall, _ in times)
        if tracer is not None and len(rounds) == 1:
            session.on_import = None
            tracer.uninstall()

    for p in problems[:20]:
        log(f"CHECK FAILED {p}")
    job_walls = [wall for times in rounds for _, wall, _ in times]
    if tracer is not None:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracer.metrics().items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": statistics.median(sum(w for _, w, _ in t) for t in rounds),
                      "unit": "s"},
            "run_cpu_s": {"value": statistics.median(sum(c for _, _, c in t) for t in rounds),
                          "unit": "s"},
            "job_p50_s": {"value": statistics.median(job_walls), "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "unit": "MiB"},
        }
    result = {"correct": not problems, "attempted": len(job_walls), "failed": failed,
              "metrics": metrics}
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": bool(trace),
              "python": sys.version.split()[0], "setup_times_s": setup_times,
              "rounds": [[{"job": label, "wall_s": w, "cpu_s": c} for label, w, c in t]
                         for t in rounds],
              "problems": problems, "result": result}
    if tracer is not None:
        detail["spans"] = tracer.span_records()
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, detail = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except SourceTreeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "result"
    with open(OUT / f"{kind}-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump(detail, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
