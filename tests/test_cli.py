import json
from fractions import Fraction

import pytest

from hopfatlas.cli import _parse_grid, main
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


def test_unknown_family_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuchfamily"])
    assert exc.value.code == 3


def test_prove_bad_full_orbit_flag_exit_code(capsys):
    code = main(["prove", "200", "--flag", "full-orbit=x"])
    err = capsys.readouterr().err
    assert code == 3 and err.startswith("error: ") and "full-orbit=x" in err


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


def test_status_and_table(capsys):
    code, out = run(capsys, "status", "24")
    assert code == 0 and "pointed: completed" in out and "other: open" in out
    code, out = run(capsys, "status", "42")
    assert code == 0 and "grouplike_orders: 1,2,3" in out and "consistent" in out
    code, out = run(capsys, "table", "--format", "csv")
    assert code == 0 and out.startswith("pattern,")
    assert main(["status", "999"]) == 3
    code, _ = run(capsys, "status", "2")
    assert code == 0


def test_export_round_trip(tmp_path, capsys):
    out_file = tmp_path / "taft3.json"
    code, _ = run(capsys, "export", "taft3", "--out", str(out_file))
    assert code == 0
    from hopfatlas.serialize import dump_algebra, load_algebra

    text = out_file.read_text()
    assert dump_algebra(load_algebra(text)) == text


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
    code = main(["coinv", "nope"])
    assert code == 3


def _exit_code_and_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, capsys.readouterr().err


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
