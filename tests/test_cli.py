import json
from fractions import Fraction

import pytest

from json_trace import assert_same_text
from hopfatlas.cli import VERBS, _parse_grid, _parser, main
from hopfatlas.scalars import FieldElem


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify(capsys):
    code, out = run(capsys, "verify", "taft3")
    assert code == 0 and out.strip() == "ok: bialgebra, antipode"


def test_invariants_k8(capsys):
    code, out = run(capsys, "invariants", "k8")
    assert code == 0
    assert "corad_dim=6" in out and "r=2" in out


def test_verify_reports_construction_failure(monkeypatch, capsys):
    from hopfatlas import atlas
    from hopfatlas.hopf import FinHopf
    from hopfatlas.linalg import LinearMap

    construct = atlas._build_unverified

    def broken(spec):
        # the family with the identity as antipode: S(x) = x fails on skew x
        h = construct(spec)
        return FinHopf(h.name, h.dim, h.order, h.mult, h.unit, h.comult, h.counit,
                       LinearMap.identity(h.order, h.dim), h.metadata)

    monkeypatch.setattr(atlas, "_BUILD_CACHE", {})
    monkeypatch.setattr(atlas, "_build_unverified", broken)
    code, out = run(capsys, "verify", "h4")
    lines = out.splitlines()
    assert code == 1 and lines and all(line.startswith("FAIL antipode-") for line in lines)
    assert "FAIL antipode-left at (2,) " in lines
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "h4"])
    err = capsys.readouterr().err
    assert exc.value.code == 1 and err.startswith("error: h4: axioms failed") and err.count("\n") == 1


def test_verify_reports_a_failed_metadata_claim(monkeypatch, capsys):
    from hopfatlas import atlas
    from hopfatlas.hopf import FinHopf

    construct = atlas._build_unverified

    def broken(spec):
        # taft3 claiming its x (basis index 3, eps(x) = 0) as a grouplike
        h = construct(spec)
        meta = {**h.metadata, "claimed_grouplikes": [h.basis_elem(3)]}
        return FinHopf(h.name, h.dim, h.order, h.mult, h.unit, h.comult, h.counit,
                       h.antipode, meta)

    monkeypatch.setattr(atlas, "_BUILD_CACHE", {})
    monkeypatch.setattr(atlas, "_build_unverified", broken)
    code, out = run(capsys, "verify", "taft3")
    assert code == 1
    assert out == "FAIL metadata-claims at () taft3: claimed grouplike fails Delta/eps\n"


def test_unknown_family_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuchfamily"])
    assert exc.value.code == 3


@pytest.mark.parametrize("family", ["kCdual", "kCxdual", "taftq"])
def test_non_integer_family_parameter_exit_code(capsys, family):
    with pytest.raises(SystemExit) as exc:
        main(["invariants", family])
    err = capsys.readouterr().err
    assert exc.value.code == 3 and err == f"error: unknown family {family!r}\n"


def test_prove_bad_full_orbit_flag_exit_code(capsys):
    code, err = _exit_code_and_error(capsys, ["prove", "200", "--flag", "full-orbit=x"])
    assert code == 3 and err.startswith("error: ") and "full-orbit=x" in err


@pytest.mark.parametrize("spelling", ["02", "+2", " 2", "2_0"])
def test_prove_noncanonical_full_orbit_flag_exit_code(capsys, spelling):
    # one hypothesis, one spelling: stdout, the trace header and the steps
    # would otherwise cite the same flag differently
    with pytest.raises(SystemExit) as exc:
        main(["prove", "66", "--pack", "extended", "--flag", "full-orbit=2",
              "--flag", f"full-orbit={spelling}"])
    code, captured = exc.value.code, capsys.readouterr()
    canonical = f"full-orbit={int(spelling)}"
    assert code == 3 and captured.out == ""
    assert captured.err == f"error: flag 'full-orbit={spelling}': write it as {canonical!r}\n"


@pytest.mark.parametrize("dim", ["1", "-2"])
def test_prove_full_orbit_below_two_exit_code(capsys, dim):
    code, err = _exit_code_and_error(
        capsys, ["prove", "66", "--pack", "extended", "--flag", f"full-orbit={dim}"])
    assert code == 3 and err == f"error: flag 'full-orbit={dim}': block dimension {dim!r} is not an integer >= 2\n"


@pytest.mark.parametrize("family", ["dual:", "dual:nosuchfamily", "dual:dual:"])
def test_unknown_dual_family_names_the_input(capsys, family):
    code, err = _exit_code_and_error(capsys, ["invariants", family])
    assert code == 3 and err == f"error: unknown family {family!r}\n"


def test_iso_bad_grid_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["iso", "taft2", "dual:taft2", "--grid", "foo"])
    err = capsys.readouterr().err
    assert exc.value.code == 3 and err.count("\n") == 1 and err.startswith("error: bad --grid")
    # a decimal token is still read exactly
    half = FieldElem.from_rational(Fraction(1, 2), 4)
    assert _parse_grid("0.5,-z", 4) == [half, -FieldElem.zeta(4, 1)]


def test_prove_summary_style(capsys):
    code, out = run(
        capsys, "prove", "70", "--pack", "extended",
        "--flag", "full-orbit=2", "--flag", "free-translation",
        "--axiom", "pq-half-dim",
    )
    assert code == 0
    assert "eliminated: 5,7,10,14,35*,70 (* axiom)" in out
    assert "surviving: 1,2" in out


def test_prove_determinism(capsys):
    argv = ["prove", "42", "--pack", "extended", "--flag", "free-translation",
            "--flag", "full-orbit=2"]
    code1, out1 = run(capsys, *argv)
    code2, out2 = run(capsys, *argv)
    assert code1 == code2 == 0 and out1 == out2


def test_prove_trace_and_replay(tmp_path, capsys):
    trace = tmp_path / "t.json"
    code, _ = run(capsys, "prove", "66", "--pack", "extended",
                  "--flag", "free-translation", "--flag", "full-orbit=2",
                  "--trace", str(trace))
    assert code == 0
    obj = json.loads(trace.read_text())
    assert obj["n"] == 66
    code, out = run(capsys, "prove", "--replay", str(trace))
    assert code == 0 and "bit-for-bit" in out


def test_prove_trace_file_is_the_serialized_report(tmp_path, capsys):
    from hopfatlas.prover import prove

    trace = tmp_path / "t.json"
    code, _ = run(capsys, "prove", "70", "--pack", "extended", "--flag", "free-translation",
                  "--axiom", "pq-half-dim", "--trace", str(trace))
    assert code == 0
    report = prove(70, pack="extended", flags=("free-translation",), axioms=("pq-half-dim",))
    assert_same_text(trace.read_bytes(), report.serialize().encode())
    code, out = run(capsys, "prove", "--replay", str(trace))
    assert code == 0 and out == "replay: verdicts reproduced bit-for-bit\n"


def test_prove_trace_in_missing_directory_exit_code(tmp_path, capsys):
    trace = tmp_path / "nodir" / "t.json"
    code, err = _exit_code_and_error(capsys, ["prove", "24", "--trace", str(trace)])
    assert code == 4 and err.startswith(f"error: cannot write {trace}: ") and err.count("\n") == 1
    assert "Traceback" not in err and not trace.parent.exists()


def test_dual_family_name_is_canonical(capsys):
    # one algebra, one family string, one build-cache entry
    from hopfatlas import atlas

    lines = {spelling: run(capsys, "invariants", spelling)[1].splitlines()[0]
             for spelling in ("dual:taft2", "dual: taft2", " dual:  taft2 ")}
    assert set(lines.values()) == {"family=dual:taft2"}
    assert atlas.parse_family("dual: dual: taft2") == atlas.parse_family("dual:dual:taft2")
    assert [k for k in atlas._BUILD_CACHE if k.replace(" ", "") == "dual:taft2"] == ["dual:taft2"]


def test_status_and_table(capsys):
    code, out = run(capsys, "status", "24")
    assert code == 0 and "pointed: completed" in out and "other: open" in out
    code, out = run(capsys, "status", "42")
    assert code == 0 and "grouplike_orders: 1,2,3" in out and "consistent" in out
    code, out = run(capsys, "table", "--format", "csv")
    assert code == 0 and out.startswith("pattern,")
    code, err = _exit_code_and_error(capsys, ["status", "999"])
    assert code == 3 and err == "error: status covers dimensions 2..100\n"
    code, _ = run(capsys, "status", "2")
    assert code == 0


def test_export_round_trip(tmp_path, capsys):
    out_file = tmp_path / "taft3.json"
    code, _ = run(capsys, "export", "taft3", "--out", str(out_file))
    assert code == 0
    from hopfatlas.serialize import dump_algebra, load_algebra

    text = out_file.read_text()
    assert_same_text(dump_algebra(load_algebra(text)), text)


def test_dual_output(capsys):
    code, out = run(capsys, "dual", "kC2")
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 2 and obj["name"] == "kC2*"


def test_iso_search_and_witness_file(tmp_path, capsys):
    code, out = run(capsys, "iso", "taft2", "dual:taft2")
    assert code == 0
    wfile = tmp_path / "w.json"
    wfile.write_text(out)
    code, out = run(capsys, "iso", "taft2", "dual:taft2", "--witness", str(wfile))
    assert code == 0 and "witness verified" in out


def test_coinv(capsys):
    code, out = run(capsys, "coinv", "h4xc3-to-h4")
    assert code == 0 and "dim coinvariants=3" in out
    code, out = run(capsys, "coinv", "id:h4")
    assert code == 0 and "dim coinvariants=1" in out
    code, err = _exit_code_and_error(capsys, ["coinv", "nope"])
    assert code == 3 and err.startswith("error: unknown surjection 'nope'") and err.count("\n") == 1


def _exit_code_and_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, capsys.readouterr().err


@pytest.mark.parametrize("family,dim", [
    ("kC65", 65), ("kC65dual", 65), ("kD33dual", 66), ("taft9", 81),
    ("am10:17", 68), ("am10d:17", 68), ("am11:17", 68), ("h4xc:17", 68),
    ("dual:kC65", 65), ("dual: dual:taft9", 81),
    ("am10:1" + "0" * 400 + "7", 4 * (10 ** 401 + 7)),
])
def test_family_over_the_dimension_limit_exit_code(monkeypatch, capsys, family, dim):
    from hopfatlas import atlas

    # refused when the name is parsed, before any construction starts
    monkeypatch.setattr(atlas, "_build_unverified", lambda spec: pytest.fail(f"built {spec}"))
    code, err = _exit_code_and_error(capsys, ["invariants", family])
    assert code == 3 and err.count("\n") == 1 and "Traceback" not in err
    assert err == (f"error: family {family!r} has dimension {dim}, "
                   f"over the limit of {atlas.MAX_FAMILY_DIM} for parametrised families\n")
    assert atlas.MAX_FAMILY_DIM == 64


@pytest.mark.parametrize("family,message", [
    ("kC0", "cyclic order must be >= 1"), ("kC-3", "cyclic order must be >= 1"),
    ("kC0dual", "cyclic order must be >= 1"), ("kC-3dual", "cyclic order must be >= 1"),
    ("kD2dual", "dihedral group needs k >= 3, got 2"),
    ("kD-1dual", "dihedral group needs k >= 3, got -1"),
])
def test_group_family_parameter_out_of_range_exit_code(capsys, family, message):
    code, err = _exit_code_and_error(capsys, ["invariants", family])
    assert code == 3 and err == f"error: {message}\n"


@pytest.mark.parametrize("malform", [
    pytest.param(lambda obj: "{not json", id="invalid-json"),
    pytest.param(lambda obj: json.dumps({"n": 24}), id="missing-keys"),
    pytest.param(lambda obj: json.dumps({**obj, "flags": ["full-orbit=x"]}), id="bad-flag"),
    pytest.param(lambda obj: json.dumps({**obj, "assumptions": {**obj["assumptions"], "x": True}}),
                 id="unknown-assumption"),
])
def test_prove_replay_malformed_trace_exit_code(tmp_path, capsys, malform):
    trace = tmp_path / "t.json"
    assert main(["prove", "42", "--pack", "extended", "--flag", "full-orbit=2",
                 "--trace", str(trace)]) == 0
    trace.write_text(malform(json.loads(trace.read_text())))
    capsys.readouterr()
    code, err = _exit_code_and_error(capsys, ["prove", "--replay", str(trace)])
    assert code == 4 and err.count("\n") == 1
    assert err.startswith(f"error: {trace}: malformed trace: ")


@pytest.mark.parametrize("content", [None, b'{"n": 24, "x": "\xff"}'], ids=["missing", "not-utf8"])
def test_prove_replay_unreadable_trace_exit_code(tmp_path, capsys, content):
    trace = tmp_path / "t.json"
    if content is not None:
        trace.write_bytes(content)
    code, err = _exit_code_and_error(capsys, ["prove", "--replay", str(trace)])
    assert code == 4 and err.count("\n") == 1
    assert err.startswith(f"error: cannot read {trace}: ")


def _with_first_g_entry(obj, index, **coeff):
    images = dict(obj["generator_images"])
    _, first = images["g"][0]
    images["g"] = [[index, {**first, **coeff}]] + images["g"][1:]
    return json.dumps({**obj, "generator_images": images})


@pytest.mark.parametrize("malform,message", [
    pytest.param(lambda obj: "{not json", "not JSON", id="invalid-json"),
    pytest.param(lambda obj: _with_first_g_entry(obj, 0, coords=["1", "2", "3"]),
                 "need 1 coordinates for order 2, got 3", id="coordinate-count"),
    # dual:taft2 has dimension 4
    pytest.param(lambda obj: _with_first_g_entry(obj, 4, coords=["1"]),
                 "index 4 out of range for dimension 4", id="index-out-of-range"),
    pytest.param(lambda obj: json.dumps({**obj, "format": 99}),
                 "not a witness file of format 1", id="unknown-format"),
    pytest.param(lambda obj: json.dumps({**obj, "generator_images": {"g": obj["generator_images"]["g"]}}),
                 "images of ['g'], need ['g', 'x']", id="missing-generator"),
    pytest.param(lambda obj: json.dumps({**obj, "N": 3}),
                 "N=3 is not a multiple of the target's order 2", id="order-not-multiple"),
    pytest.param(lambda obj: _with_first_g_entry(obj, 0, N=4, coords=["1", "0"]),
                 "for N=2", id="coefficient-order-mismatch"),
    # rejected before phi(10^10) is computed, which would take minutes
    pytest.param(lambda obj: _with_first_g_entry({**obj, "N": 10**10}, 0, N=10**10),
                 "too few coordinates for order 10000000000", id="huge-order"),
])
def test_iso_malformed_witness_exit_code(tmp_path, capsys, malform, message):
    code, out = run(capsys, "iso", "taft2", "dual:taft2")
    assert code == 0
    wfile = tmp_path / "w.json"
    wfile.write_text(malform(json.loads(out)))
    code, err = _exit_code_and_error(capsys, ["iso", "taft2", "dual:taft2", "--witness", str(wfile)])
    assert code == 4 and err.count("\n") == 1
    assert err.startswith(f"error: {wfile}: malformed witness: ") and message in err


@pytest.mark.parametrize("family", ["kC2dual", "k8"])
def test_iso_search_unsupported_family_exit_code(capsys, family):
    # kC2dual has no presentation; k8's is not generated by grouplikes and skew-primitives
    code, err = _exit_code_and_error(capsys, ["iso", family, family])
    assert code == 3 and err.count("\n") == 1 and err.startswith(f"error: {family}: ")


# -- argument parsing ------------------------------------------------------------

_TOP_USAGE = (
    "usage: hopfatlas [-h]\n"
    "                 {verify,invariants,dual,export,iso,coinv,prove,status,table,suite}\n"
    "                 ...\n"
)
_VERBS = ("'verify', 'invariants', 'dual', 'export', 'iso', 'coinv', 'prove', "
          "'status', 'table', 'suite'")


@pytest.mark.parametrize("argv,err", [
    ([], _TOP_USAGE + "hopfatlas: error: the following arguments are required: verb\n"),
    (["bogus"], _TOP_USAGE + "hopfatlas: error: argument verb: invalid choice: "
                             f"'bogus' (choose from {_VERBS})\n"),
    (["verify"], "usage: hopfatlas verify [-h] family\n"
                 "hopfatlas verify: error: the following arguments are required: family\n"),
    (["verify", "taft3", "--bogus"], _TOP_USAGE + "hopfatlas: error: unrecognized arguments: --bogus\n"),
    (["prove"], _TOP_USAGE + "hopfatlas: error: prove needs a dimension or --replay FILE\n"),
    (["prove", "x"], "usage: hopfatlas prove [-h] [--pack {base,extended}] [--flag FLAG]\n"
                     "                       [--axiom AXIOM] [--assume {pointed-ok,copointed-ok}]\n"
                     "                       [--trace TRACE] [--replay REPLAY] [--verbose]\n"
                     "                       [dim]\n"
                     "hopfatlas prove: error: argument dim: invalid int value: 'x'\n"),
    (["status"], "usage: hopfatlas status [-h] dim\n"
                 "hopfatlas status: error: the following arguments are required: dim\n"),
], ids=["none", "unknown-verb", "verify-no-family", "unknown-option", "prove-no-dim",
        "prove-bad-dim", "status-no-dim"])
def test_parse_errors_are_pinned(monkeypatch, capsys, argv, err):
    # usage lines wrap at the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == "" and captured.err == err


# every verb and every option, each once with its default and once given
VALID_ARGV = [
    ["verify", "taft3"],
    ["invariants", "k8"],
    ["invariants", "k8", "--report", "r.json"],
    ["dual", "taft3"],
    ["dual", "taft3", "--out", "d.json"],
    ["export", "taft3", "--out", "e.json"],
    ["iso", "taft2", "dual:taft2"],
    ["iso", "taft2", "dual:taft2", "--witness", "w.json", "--grid", "0,1,z", "--budget", "10"],
    ["coinv", "id:h4"],
    ["coinv", "id:h4", "--side", "left"],
    ["prove", "70"],
    ["prove", "70", "--pack", "extended", "--flag", "full-orbit=2", "--flag", "free-translation",
     "--axiom", "pq-half-dim", "--assume", "pointed-ok", "--assume", "copointed-ok",
     "--trace", "t.json", "--verbose"],
    ["prove", "--replay", "t.json", "--pack=base"],
    ["status", "24"],
    ["table"],
    ["table", "--format", "csv"],
    ["suite"],
    ["suite", "--seed", "3"],
]


def test_valid_argv_cover_every_verb_and_option():
    for verb, (_, _, arguments) in VERBS.items():
        given = {a.split("=")[0] for argv in VALID_ARGV if argv[0] == verb for a in argv[1:]}
        names = {a if isinstance(a, str) else a[0] for a in arguments}
        assert {a for a in names if a.startswith("--")} <= given, verb


@pytest.mark.parametrize("argv", VALID_ARGV, ids=[" ".join(a) for a in VALID_ARGV])
def test_one_verb_parser_matches_the_full_parser(argv):
    assert _parser(argv[0]).parse_args(argv) == _parser().parse_args(argv)


def _help(capsys, parser_argv, argv):
    with pytest.raises(SystemExit) as exc:
        _parser(parser_argv).parse_args(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


_TOP_HELP = _TOP_USAGE + """
exact Hopf algebra atlas, invariants, and counting prover

positional arguments:
  {verify,invariants,dual,export,iso,coinv,prove,status,table,suite}
    verify              run the axiom checkers on a family
    invariants          coradical invariants of a family
    dual                serialize the dual of a family
    export              write the canonical algebra file
    iso                 search or verify an isomorphism witness
    coinv               coinvariants of a shipped surjection
    prove               run the elimination prover on a dimension
    status              Table-1 style status of a dimension
    table               render the whole knowledge base
    suite               run the acceptance battery

options:
  -h, --help            show this help message and exit
"""
_VERIFY_HELP = """usage: hopfatlas verify [-h] family

positional arguments:
  family

options:
  -h, --help  show this help message and exit
"""


def test_help_is_unchanged(monkeypatch, capsys):
    # the "options:" heading dates from Python 3.10; help wraps at the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    assert _help(capsys, None, ["--help"]) == _TOP_HELP
    assert _help(capsys, "verify", ["verify", "--help"]) == _VERIFY_HELP
    for verb in VERBS:
        assert _help(capsys, verb, [verb, "-h"]) == _help(capsys, None, [verb, "-h"]), verb
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0 and capsys.readouterr().out == _VERIFY_HELP
