import json
import shutil

import pytest

from symcanon import (
    FixtureError,
    MissingFixtureError,
    diff,
    emit,
    load_fixture,
    parse_structured,
    verify_against_paper,
)
from symcanon.cli import main
from symcanon.report import ERRATUM_SUSPECTED, MISMATCH, fixtures_dir, list_fixtures


def test_fixture_inventory():
    pairs = list_fixtures()
    assert pairs == [(2, 3), (3, 3), (5, 3), (7, 3), (11, 3), (13, 3), (17, 3),
                     (2, 4), (3, 4), (5, 4), (7, 4)]


def test_load_fixture_shape():
    fx = load_fixture(3, 3)
    assert (fx.p, fx.order) == (3, 3)
    assert [(r.rank, r.orbit_size) for r in fx.rows] == [
        (0, 1), (1, 8), (2, 24), (3, 8), (3, 24), (4, 16)]
    assert fx.rows[2].canonical == (0, 1, 1, 0, 1, 0, 0, 1)
    assert fx.errata == ()


def test_missing_fixture():
    with pytest.raises(MissingFixtureError):
        load_fixture(19, 3)


def test_malformed_fixture(tmp_path):
    bad = tmp_path / "k3_p2.table"
    bad.write_text("p=2\nk=3\n0,1,0 0 0 0 0 0 0\n")  # seven digits
    with pytest.raises(FixtureError):
        load_fixture(2, 3, tmp_path)
    bad.write_text("p=3\nk=3\n0,1,0 0 0 0 0 0 0 0\n")  # header disagrees
    with pytest.raises(FixtureError):
        load_fixture(2, 3, tmp_path)


def sidecar_entry(**fields):
    return {"id": "X", "rows": [1], "fields": ["orbit_size"], "printed": "8", "reason": "test", **fields}


@pytest.mark.parametrize("sidecar, message", [
    ({"id": "X"}, "JSON list"),
    ([sidecar_entry(rows=[6])], "rows must lie in 0..5"),
    ([sidecar_entry(rows=[-1])], "rows must lie in 0..5"),
    ([sidecar_entry(fields=["size"])], "unknown field"),
    ([sidecar_entry(rows=1)], "must be lists"),
    ([sidecar_entry(classification="BOGUS")], "classification must be ERRATUM-SUSPECTED"),
], ids=["not-a-list", "row-past-the-end", "negative-row", "unknown-field", "rows-not-a-list",
        "unknown-classification"])
def test_malformed_errata_sidecar(tmp_path, capsys, monkeypatch, sidecar, message):
    # a sidecar is outside input: each defect is a FixtureError, and exit 2
    shutil.copy(fixtures_dir() / "k3_p3.table", tmp_path)
    (tmp_path / "k3_p3.errata").write_text(json.dumps(sidecar))
    with pytest.raises(FixtureError, match=message):
        load_fixture(3, 3, tmp_path)
    monkeypatch.setenv("SYMCANON_FIXTURES", str(tmp_path))
    assert main(["verify-paper", "--p", "3", "--order", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: k3_p3.errata") and message in err


def test_diff_f5_empty(classification_for):
    assert diff(classification_for(5, 3), load_fixture(5, 3)) == []


def test_diff_f2_order4_flags_errata(classification_for):
    ds = diff(classification_for(2, 4), load_fixture(2, 4))
    assert [d.classification for d in ds] == [ERRATUM_SUSPECTED]
    assert ds[0].erratum_id == "F2K4-SIZES"
    assert "size 3" in ds[0].computed and "size 1" in ds[0].computed
    assert not [d for d in ds if d.classification == MISMATCH]


def test_diff_catches_planted_mismatch(classification_for, tmp_path):
    # corrupt one orbit size of an otherwise consistent table
    src = load_fixture(5, 3)
    lines = ["p=5", "k=3"]
    for row in src.rows:
        size = 81 if row.index == 2 else row.orbit_size
        lines.append(f"{row.rank},{size},{' '.join(map(str, row.canonical))}")
    (tmp_path / "k3_p5.table").write_text("\n".join(lines) + "\n")
    ds = diff(classification_for(5, 3), load_fixture(5, 3, tmp_path))
    assert [d.classification for d in ds] == [MISMATCH]
    assert ds[0].printed == "81" and ds[0].computed == "240"


def test_unbacked_sidecar_entry_does_not_hide_a_mismatch(tmp_path, capsys, monkeypatch):
    # row 4 of the p=13 table has a sidecar entry on its size, but a wrong
    # size that divides |GL2| = 26208 on a symmetric, unrepeated row is not
    # proven by the printed table, so it is compared and still reported
    for suffix in ("table", "errata"):
        shutil.copy(fixtures_dir() / f"k3_p13.{suffix}", tmp_path)
    table, row = tmp_path / "k3_p13.table", "\n2,1456,0 1 1 0 1 0 0 3\n"
    assert row in table.read_text()
    table.write_text(table.read_text().replace(row, "\n2,2912,0 1 1 0 1 0 0 3\n"))
    monkeypatch.setenv("SYMCANON_FIXTURES", str(tmp_path))
    assert main(["verify-paper", "--p", "13", "--order", "3"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH p=13 k=3 rank=2 orbit_size: printed 2912; computed 1456." in out
    assert out.count("ERRATUM-SUSPECTED [F13K3-SIZE-PRINT]") == 1


def test_verify_against_paper_entrypoint(classification_for):
    assert verify_against_paper(classification_for(3, 3)) == []
    ds = verify_against_paper(classification_for(13, 3))
    assert [d.erratum_id for d in ds] == ["F13K3-SIZE-PRINT"]
    assert "1456" in ds[0].computed


def test_structured_round_trip(classification_for):
    text = emit(classification_for(2, 3), "structured")
    doc = parse_structured(text)
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == text
    assert doc["parameters"]["p"] == 2
    assert doc["stratum_counts"] == [1, 3, 3, 1]
    assert doc["stratum_percentages"] == [6.25, 18.75, 18.75, 6.25]
    assert "timing" not in doc


def test_structured_timing_is_opt_in(classification_for):
    doc = parse_structured(emit(classification_for(2, 3), "structured", include_timing=True))
    assert doc["timing"]["wall_seconds"] >= 0


def test_documents_validate_against_schema(classification_for):
    import jsonschema

    from conftest import ALL_PAIRS
    from symcanon.report import DOCUMENT_SCHEMA

    for p, k in ALL_PAIRS:
        doc = parse_structured(emit(classification_for(p, k), "structured",
                                    include_timing=(p == 2)))
        jsonschema.validate(doc, DOCUMENT_SCHEMA)


def test_percentages_f3(classification_for):
    doc = parse_structured(emit(classification_for(3, 3)))
    assert doc["stratum_percentages"] == [1.23, 9.88, 29.63, 39.51, 19.75]


def test_markdown_shape(classification_for):
    text = emit(classification_for(2, 3), "markdown")
    ranked = [l for l in text.splitlines() if l.startswith("| 0 |") or l.startswith("| 1 |")
              or l.startswith("| 2 |") or l.startswith("| 3 |")]
    # 4 count rows + 4 table rows
    assert len(ranked) == 8
    assert "No symmetric decomposition" in text
    assert emit(classification_for(2, 3), "md") == text


def test_tabular_and_latex(classification_for):
    rep = classification_for(2, 3)
    tab = emit(rep, "tabular")
    assert tab.splitlines()[:3] == ["p=2", "k=3", "0,1,0 0 0 0 0 0 0 0"]
    assert sum(1 for l in tab.splitlines() if l.startswith("U,")) == len(
        rep.undecomposable_records)
    tex = emit(rep, "latex")
    assert tex.startswith("\\begin{array}") and "\\bottomrule" in tex


def test_unknown_format_rejected(classification_for):
    with pytest.raises(ValueError):
        emit(classification_for(2, 3), "yaml")


def test_erratum_rows_all_have_computed_replacements(classification_for):
    for p, k in [(7, 3), (13, 3), (17, 3), (2, 4)]:
        for d in diff(classification_for(p, k), load_fixture(p, k)):
            assert d.classification == ERRATUM_SUSPECTED
            assert d.computed and "unmatched" not in d.computed
