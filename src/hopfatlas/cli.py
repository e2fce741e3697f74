"""Command-line front end.

Exit codes: 0 all checks in the invocation passed; 1 a mathematical check
failed; 2 usage error / unknown verb or flag; 3 invalid family name or
parameter; 4 unreadable or malformed file.  Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from math import lcm

from . import invariants as inv
from .atlas import AtlasConstructionError, build, presentation, shipped_surjections
from .hopf import coinvariants, hopf_dual, verify_hopf_morphism
from .isowitness import WitnessError, search_iso, verify_iso
from .linalg import LinearMap
from .prover import Assumptions, ProverError, TraceError, prove, replay
from .scalars import FieldElem
from .serialize import FormatError, canonical_json, dump_algebra, dump_witness, load_witness
from .statuskb import crosscheck_with_prover, render_table, status

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BAD_PARAMETER = 3
EXIT_IO = 4


def _exit(code, error):
    print(f"error: {error}", file=sys.stderr)
    sys.exit(code)


def _build(fam):
    try:
        return build(fam)
    except AtlasConstructionError as e:
        _exit(EXIT_CHECK_FAILED, e)
    except ValueError as e:  # UnknownFamilyError included
        _exit(EXIT_BAD_PARAMETER, e)


def cmd_verify(args):
    # build() runs the bialgebra and antipode checkers; a failure carries their report
    try:
        build(args.family)
    except AtlasConstructionError as e:
        # a failed metadata claim carries no report
        failures = [("metadata-claims", (), str(e))] if e.report is None else e.report.failures
        for axiom, witness, msg in failures:
            print(f"FAIL {axiom} at {witness} {msg}")
        return EXIT_CHECK_FAILED
    except ValueError as e:
        _exit(EXIT_BAD_PARAMETER, e)
    print("ok: bialgebra, antipode")
    return EXIT_OK


def cmd_invariants(args):
    h = _build(args.family)
    s = inv.summarize(h)
    print(f"family={h.metadata['family']}")
    print(f"dim={s.dim}")
    print(f"corad_dim={s.corad_dim}")
    print(f"r={s.grouplike_count}" + ("" if s.r_certified else " (uncertified)"))
    print(f"s={s.dual_grouplike_count}" + ("" if s.s_certified else " (uncertified)"))
    print(f"type=({s.grouplike_count},{s.dual_grouplike_count})")
    print(f"antipode_order={s.antipode_order}")
    print(f"trace_S2={s.trace_S2}")
    print(f"semisimple={'yes' if s.is_semisimple else 'no'}")
    print("filtration=" + ",".join(str(d) for d in s.filtration))
    if s.skew_table:
        dims = ",".join(str(d) for d in sorted(s.skew_table.values()))
        print(f"skew_dims={dims}")
    if args.report:
        payload = {
            "family": h.metadata["family"],
            "dim": s.dim,
            "corad_dim": s.corad_dim,
            "r": s.grouplike_count,
            "s": s.dual_grouplike_count,
            "r_certified": s.r_certified,
            "s_certified": s.s_certified,
            "antipode_order": s.antipode_order,
            "trace_S2": s.trace_S2.to_json(),
            "semisimple": s.is_semisimple,
            "filtration": list(s.filtration),
            "skew_dims": sorted(s.skew_table.values()),
        }
        _write(args.report, [canonical_json(payload)])
    return EXIT_OK


def cmd_dual(args):
    h = _build(args.family)
    text = dump_algebra(hopf_dual(h))
    if args.out:
        _write(args.out, [text])
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_export(args):
    h = _build(args.family)
    _write(args.out, [dump_algebra(h)])
    return EXIT_OK


def _write(path, chunks):
    try:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    except OSError as e:
        _exit(EXIT_IO, f"cannot write {path}: {e}")


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        _exit(EXIT_IO, f"cannot read {path}: {e}")


def _parse_grid(spec, order):
    grid = []
    for tok in spec.split(","):
        tok = tok.strip()
        if tok.startswith("z^"):
            grid.append(FieldElem.zeta(order, int(tok[2:])))
        elif tok == "z":
            grid.append(FieldElem.zeta(order, 1))
        elif tok.startswith("-z^"):
            grid.append(-FieldElem.zeta(order, int(tok[3:])))
        elif tok == "-z":
            grid.append(-FieldElem.zeta(order, 1))
        else:
            grid.append(FieldElem.from_rational(tok, order))
    return grid


def cmd_iso(args):
    h, k = _build(args.family1), _build(args.family2)
    pres = presentation(h.metadata.get("family"))
    if pres is None:
        _exit(EXIT_BAD_PARAMETER, f"{args.family1}: no presentation registered for witnesses")
    if args.witness:
        try:
            w = load_witness(_read(args.witness), k)
        except FormatError as e:
            _exit(EXIT_IO, f"{args.witness}: malformed witness: {e}")
        if sorted(w.generator_images) != sorted(pres.gen_names):
            _exit(EXIT_IO, f"{args.witness}: malformed witness: images of "
                           f"{sorted(w.generator_images)}, need {sorted(pres.gen_names)}")
        rep = verify_iso(h, k, w)
        if rep.ok:
            print("witness verified")
            return EXIT_OK
        print(f"witness FAILED: {rep.failures[:3]}")
        return EXIT_CHECK_FAILED
    try:
        grid = _parse_grid(args.grid, lcm(h.order, k.order)) if args.grid else None
    except (ValueError, ZeroDivisionError) as e:
        _exit(EXIT_BAD_PARAMETER, f"bad --grid {args.grid!r}: {e}")
    try:
        w = search_iso(h, k, grid=grid, budget=args.budget)
    except WitnessError as e:
        _exit(EXIT_BAD_PARAMETER, e)
    if isinstance(w, str):
        print(w)
        return EXIT_CHECK_FAILED
    sys.stdout.write(dump_witness(w))
    return EXIT_OK


def cmd_coinv(args):
    table = shipped_surjections()
    if args.surjection.startswith("id:"):
        h = _build(args.surjection[3:])
        entry = (h, h, LinearMap.identity(h.order, h.dim))
    elif args.surjection in table:
        entry = table[args.surjection]
    else:
        _exit(EXIT_BAD_PARAMETER, f"unknown surjection {args.surjection!r}; shipped: "
                                  + ", ".join(sorted(table)) + ", id:<family>")
    big, small, pi = entry
    if not verify_hopf_morphism(pi, big, small).ok:
        print("FAIL: not a Hopf algebra map")
        return EXIT_CHECK_FAILED
    sub = coinvariants(big, small, pi, args.side)
    print(f"dim H={big.dim} dim B={small.dim} dim coinvariants={sub.dim}")
    print(f"law: {big.dim} == {sub.dim} * {small.dim}")
    return EXIT_OK


def cmd_prove(args):
    if args.replay:
        try:
            with open(args.replay) as fh:
                ok, _ = replay(fh)
        except (OSError, UnicodeDecodeError) as e:
            _exit(EXIT_IO, f"cannot read {args.replay}: {e}")
        except TraceError as e:
            _exit(EXIT_IO, f"{args.replay}: malformed trace: {e}")
        print("replay: " + ("verdicts reproduced bit-for-bit" if ok else "MISMATCH"))
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    assumptions = Assumptions(
        nonpointed="pointed-ok" not in args.assume,
        noncopointed="copointed-ok" not in args.assume,
    )
    flags = tuple(args.flag)
    try:
        report = prove(args.dim, assumptions, args.pack, flags, tuple(args.axiom))
    except ProverError as e:
        _exit(EXIT_BAD_PARAMETER, e)
    elim = []
    for v in report.verdicts:
        if v.eliminated:
            elim.append(f"{v.g}*" if v.used_axiom else str(v.g))
    print(f"n={args.dim} pack={args.pack} flags={','.join(flags) or '-'} "
          f"axioms={','.join(args.axiom) or '-'}")
    print("eliminated: " + (",".join(elim) or "-") + (" (* axiom)" if any("*" in e for e in elim) else ""))
    print("surviving: " + (",".join(str(g) for g in report.surviving_gs()) or "-"))
    cap = None if args.verbose else 3
    for v in report.verdicts:
        if v.eliminated:
            continue
        feasible = [pv for pv in v.profiles if not pv.eliminated]
        shown = feasible if cap is None else feasible[:cap]
        for pv in shown:
            assign = " ".join(f"{k}={val}" for k, val in sorted((pv.assignment or {}).items()))
            print(f"  g={v.g} feasible {pv.profile.label()}" + (f" with {assign}" if assign else ""))
        if cap is not None and len(feasible) > cap:
            print(f"  g={v.g} ... {len(feasible) - cap} more feasible profiles (--verbose lists all)")
    if args.trace:
        _write(args.trace, report.chunks())
    return EXIT_OK


def cmd_status(args):
    if not (2 <= args.dim <= 100):
        _exit(EXIT_BAD_PARAMETER, "status covers dimensions 2..100")
    st = status(args.dim)
    print(f"dim={st['dim']} pattern={st['pattern']}")
    for col in ("semisimple", "pointed", "chevalley", "other"):
        cell = st["columns"][col]
        note = f" ({cell.note})" if cell.note else ""
        print(f"{col}: {cell.status}{note} [{', '.join(cell.citations)}]")
    if "grouplike_orders" in st:
        print("grouplike_orders: " + ",".join(str(g) for g in st["grouplike_orders"]))
        rep = crosscheck_with_prover(args.dim)
        print(str(rep))
        return EXIT_OK if rep.ok else EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_table(args):
    sys.stdout.write(render_table(args.format))
    return EXIT_OK


def cmd_suite(args):
    from .acceptance import run_all

    all_ok = True
    for cid, desc, ok, detail in run_all(args.seed):
        all_ok &= ok
        print(f"{cid:5s} {'PASS' if ok else 'FAIL'}  {desc}: {detail}")
    print("suite: " + ("all criteria passed" if all_ok else "FAILURES PRESENT"))
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# verb -> (help, handler, arguments); an argument is a name or (name, options)
VERBS = {
    "verify": ("run the axiom checkers on a family", cmd_verify, ["family"]),
    "invariants": ("coradical invariants of a family", cmd_invariants, [
        "family", ("--report", {"help": "also write a structured JSON report here"})]),
    "dual": ("serialize the dual of a family", cmd_dual, ["family", "--out"]),
    "export": ("write the canonical algebra file", cmd_export,
               ["family", ("--out", {"required": True})]),
    "iso": ("search or verify an isomorphism witness", cmd_iso, [
        "family1", "family2",
        ("--witness", {"help": "verify this witness file instead of searching"}),
        ("--grid", {"help": "comma list of coefficients, e.g. 0,1,-1,z,-z,1/2"}),
        ("--budget", {"type": int, "default": 200000})]),
    "coinv": ("coinvariants of a shipped surjection", cmd_coinv, [
        "surjection", ("--side", {"choices": ("left", "right"), "default": "right"})]),
    "prove": ("run the elimination prover on a dimension", cmd_prove, [
        ("dim", {"type": int, "nargs": "?"}),
        ("--pack", {"choices": ("base", "extended"), "default": "base"}),
        ("--flag", {"action": "append", "default": [],
                    "help": "full-orbit=<d> or free-translation; repeatable"}),
        ("--axiom", {"action": "append", "default": [], "help": "e.g. pq-half-dim"}),
        ("--assume", {"action": "append", "default": [],
                      "choices": ("pointed-ok", "copointed-ok")}),
        ("--trace", {"help": "write the replayable trace here"}),
        ("--replay", {"help": "re-run a stored trace and compare bytes"}),
        ("--verbose", {"action": "store_true", "help": "list every feasible profile"})]),
    "status": ("Table-1 style status of a dimension", cmd_status, [("dim", {"type": int})]),
    "table": ("render the whole knowledge base", cmd_table,
              [("--format", {"choices": ("md", "csv"), "default": "md"})]),
    "suite": ("run the acceptance battery", cmd_suite, [("--seed", {"type": int, "default": 0})]),
}


def _parser(only=None):
    """The argument parser, with the subparser of the verb only, or of every
    verb; the usage line names every verb either way."""
    parser = argparse.ArgumentParser(
        prog="hopfatlas",
        description="exact Hopf algebra atlas, invariants, and counting prover",
    )
    # a metavar would rename the verb argument in "required" and "invalid
    # choice" errors, which only the full parser can raise
    metavar = "{" + ",".join(VERBS) + "}" if only else None
    sub = parser.add_subparsers(dest="verb", required=True, metavar=metavar)
    for name, (text, fn, arguments) in VERBS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=text)
            for arg in arguments:
                arg, options = (arg, {}) if isinstance(arg, str) else arg
                p.add_argument(arg, **options)
            p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # building one subparser instead of ten is most of a cold call's parsing
    parser = _parser(argv[0] if argv and argv[0] in VERBS else None)
    args = parser.parse_args(argv)
    if args.verb == "prove" and not args.replay and args.dim is None:
        parser.error("prove needs a dimension or --replay FILE")
    return args.fn(args)


def console_entry():
    try:
        return main()
    except BrokenPipeError:
        try:
            sys.stdout.close()
        except OSError:
            pass
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(console_entry())
