import copy

import pytest

from hopfatlas.statuskb import (
    COLUMNS,
    _validate,
    bibliography,
    crosscheck_with_prover,
    knowledge_base,
    match_pattern,
    render_table,
    status,
)

SPEC_OPEN = {24, 32, 36, 40, 42, 45, 48, 52, 54, 56, 60, 63, 64, 66, 68, 70, 72,
             75, 76, 78, 80, 81, 84, 87, 88, 90, 92, 93, 96, 99, 100}


def test_every_dimension_matches_exactly_one_pattern():
    ids = {row["id"] for row in knowledge_base()["patterns"]}
    for n in range(2, 101):
        assert match_pattern(n) in ids


def test_pattern_samples():
    assert match_pattern(31) == "p"
    assert match_pattern(6) == "2p"
    assert match_pattern(15) == "pq"
    assert match_pattern(12) == "pq2"
    assert match_pattern(18) == "2p2"
    assert match_pattern(50) == "2p2"
    assert match_pattern(99) == "pq2"
    assert match_pattern(30) == "pqr"
    assert match_pattern(54) == "p3q"
    assert match_pattern(90) == "p2qr"
    assert match_pattern(72) == "p3q2"
    assert match_pattern(64) == "p6"
    assert match_pattern(96) == "p5q"


def test_status_spot_dims():
    assert status(24)["columns"]["other"].status == "open"
    assert status(24)["columns"]["pointed"].status == "completed"
    assert status(30)["columns"]["other"].status == "completed"
    assert status(30)["columns"]["semisimple"].status == "completed"
    assert status(31)["columns"]["semisimple"].status == "completed"
    assert status(31)["columns"]["other"].status == "none"
    assert status(45)["columns"]["other"].status == "open"
    assert status(44)["columns"]["other"].status == "completed"


def test_status_range_errors():
    with pytest.raises(ValueError):
        status(1)
    with pytest.raises(ValueError):
        status(101)


def test_open_dimensions_match_expected_set():
    open_dims = [n for n in range(2, 101) if status(n)["columns"]["other"].status == "open"]
    assert set(open_dims) == SPEC_OPEN


def test_every_cell_has_resolving_citations():
    bib = bibliography()
    for row in knowledge_base()["patterns"]:
        for col in COLUMNS:
            cell = row["cells"][col]
            assert cell.get("citations"), (row["id"], col)
            for key in cell["citations"]:
                assert key in bib
    for n in range(2, 101):
        for col in COLUMNS:
            assert status(n)["columns"][col].citations


def test_render_byte_stable():
    assert render_table("md") == render_table("md")
    assert render_table("csv") == render_table("csv")
    md = render_table("md")
    p3_row = [line for line in md.splitlines() if line.startswith("| p3 ")][0]
    assert "8" in p3_row and "27" in p3_row
    csv = render_table("csv")
    assert len(csv.strip().splitlines()) == 1 + len(knowledge_base()["patterns"])
    with pytest.raises(ValueError):
        render_table("html")


def test_crosscheck():
    for n in (42, 66, 70, 78):
        rep = crosscheck_with_prover(n)
        assert not rep.vacuous and rep.ok
        assert set(rep.surviving) <= set(rep.allowed)
    assert crosscheck_with_prover(31).vacuous


@pytest.mark.parametrize("place", ["cell", "dim_citations", "grouplike_note"])
def test_validate_refuses_unknown_citations(place):
    kb = copy.deepcopy(knowledge_base())
    cell = kb["patterns"][0]["cells"]["other"]
    if place == "cell":
        cell["citations"].append("nosuchkey")
    elif place == "dim_citations":
        cell["dim_citations"] = {"2": ["nosuchkey"]}
    else:
        next(iter(kb["grouplike_notes"].values()))["citations"].append("nosuchkey")
    with pytest.raises(ValueError, match="unknown citation 'nosuchkey'"):
        _validate(kb)
