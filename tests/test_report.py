import hashlib
import json
import random
import shutil

import pytest

from symcanon import (
    FixtureError,
    MissingFixtureError,
    diff,
    emit,
    load_fixture,
)
from symcanon.cli import main
from symcanon.report import (
    ERRATUM_SUSPECTED,
    MISMATCH,
    ErratumNote,
    FixtureRow,
    FixtureTable,
    fixtures_dir,
    list_fixtures,
)


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


def test_diff_names_a_repeated_row(classification_for):
    # an unflagged row printed twice pairs with its orbit once; the copy is
    # reported as a repeat of that row, not as an orbit that does not exist
    fx = load_fixture(3, 3)
    repeat = FixtureRow(len(fx.rows), fx.rows[2].rank, fx.rows[2].orbit_size, fx.rows[2].canonical)
    ds = diff(classification_for(3, 3), FixtureTable(3, 3, fx.rows + (repeat,), ()))
    assert [d.line() for d in ds] == [
        "MISMATCH p=3 k=3 rank=2 canonical: printed 0 1 1 0 1 0 0 1; "
        "computed orbit already paired with row 2. the table repeats it"]


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
    # what `verify-paper` computes for one stored table
    assert diff(classification_for(3, 3), load_fixture(3, 3)) == []
    ds = diff(classification_for(13, 3), load_fixture(13, 3))
    assert [d.erratum_id for d in ds] == ["F13K3-SIZE-PRINT"]
    assert "1456" in ds[0].computed


def test_structured_round_trip(classification_for):
    text = emit(classification_for(2, 3), "structured")
    doc = json.loads(text)
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == text
    assert doc["parameters"]["p"] == 2
    assert doc["stratum_counts"] == [1, 3, 3, 1]
    assert doc["stratum_percentages"] == [6.25, 18.75, 18.75, 6.25]
    assert "timing" not in doc


def test_structured_timing_is_opt_in(classification_for):
    doc = json.loads(emit(classification_for(2, 3), "structured", include_timing=True))
    assert doc["timing"]["wall_seconds"] >= 0


def test_percentages_f3(classification_for):
    doc = json.loads(emit(classification_for(3, 3)))
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


# SHA-256 of the tabular, markdown and latex output, recorded while only the
# structured output was pinned; (2,3), (2,4) and (3,4) have undecomposable
# records
PINNED_EMIT_SHA256 = {
    ((2, 3), "tabular"):
        "6903df7f3199106634c7b0e6df466f3bd13a6e7ca42a3fbaf14fc4dcb2577441",
    ((2, 3), "markdown"):
        "feb441cc38db775e7c09d5514027bdb6259fdc11a0b84c5d872bfef74542bfad",
    ((2, 3), "latex"):
        "bc466002f34bd81b8317afca82cac82cd7fab6c3598b7381e6caea8bd7ec7cd5",
    ((7, 3), "tabular"):
        "458a4cc8b1a5d527a5c5bcbfd621e64e6bd88c16f17d40b0743e7a59660d108a",
    ((7, 3), "markdown"):
        "4ea335c2385acbe43c6b53605930681f3081a3eb491463b7b1d729d46ed1d3b5",
    ((7, 3), "latex"):
        "7c4494b067f24cc1379e7ef99b24bd2e1c8e96922f83419505a5a6e094ce8c12",
    ((2, 4), "tabular"):
        "c56fefd95370803aaa48ceaa8977d8912ea922e5e671af155281d6a7b2bcbbdf",
    ((2, 4), "markdown"):
        "4da34d02f191e154f6943b7a018ded502132c7c991453df58b0b1ecef2db8ae7",
    ((2, 4), "latex"):
        "1362a6d0f0d0a0e922c3abe015be6e54bcd8d56706e2f7fa6dcd93364881b93e",
    ((3, 4), "tabular"):
        "f1d21866387bbaaf957a464520e13c09212233dbd2810bb381d383d13ae25c83",
    ((3, 4), "markdown"):
        "74d0cff8a95bbe10e85fb78cabca344c2864eae3156c843f63cd18248e105a94",
    ((3, 4), "latex"):
        "e9285e9f10e3290ce2942700346e8062bf0de04fb63d0f74d82dd58142b3feb7",
}


@pytest.mark.parametrize("pair, format", list(PINNED_EMIT_SHA256))
def test_text_formats_pinned(pair, format, classification_for):
    text = emit(classification_for(*pair), format)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_EMIT_SHA256[(pair, format)]


def mutated_fixture(rng, fixture):
    """`fixture` after one to three random row edits, with a random sidecar.

    Edits change a size, copy a canonical row, shift a rank, change one
    digit, delete a row or duplicate one.  The sidecar flags sizes,
    canonicals or both, mostly on edited rows, keeps the stored entries
    when their rows still exist, and sometimes adds a prose note.
    """
    rows = [[row.rank, row.orbit_size, list(row.canonical), False] for row in fixture.rows]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        edit = rng.choice(["size", "canonical", "rank", "digit", "delete", "duplicate"])
        if edit == "size":
            rows[i][1] = rng.choice([rows[j][1], rows[i][1] + 1, 2 * rows[i][1]])
        elif edit == "canonical":
            rows[i][2] = list(rows[j][2])
        elif edit == "rank":
            rows[i][0] = max(0, rows[i][0] + rng.choice([-1, 1]))
        elif edit == "digit":
            t = rng.randrange(len(rows[i][2]))
            rows[i][2][t] = (rows[i][2][t] + 1) % fixture.p
        elif edit == "delete" and len(rows) > 1:
            del rows[i]
            continue
        elif edit == "duplicate":
            rows.insert(j, [rows[i][0], rows[i][1], list(rows[i][2]), True])
        rows[i][3] = True
    edited = [i for i, row in enumerate(rows) if row[3]]
    notes = [note for note in fixture.errata
             if all(i < len(rows) for i in note.rows) and rng.random() < 0.5]
    for n in range(rng.randint(0, 2)):
        pool = edited if edited and rng.random() < 0.7 else range(len(rows))
        flagged = rng.sample(list(pool), min(len(pool), rng.randint(1, 3)))
        fields = rng.choice([("orbit_size",), ("canonical",), ("orbit_size", "canonical"),
                             ("canonical", "orbit_size")])
        notes.append(ErratumNote(f"M{n}", ERRATUM_SUSPECTED, tuple(flagged), fields, "x", "test"))
    if rng.random() < 0.1:
        notes.append(ErratumNote("MP", ERRATUM_SUSPECTED, (), ("prose",), "x", "test"))
    table = tuple(FixtureRow(i, rank, size, tuple(digits))
                  for i, (rank, size, digits, _) in enumerate(rows))
    return FixtureTable(fixture.p, fixture.order, table, tuple(notes))


# SHA-256 of every discrepancy line over the 1 000 mutated tables of
# test_diff_on_mutated_tables, re-recorded when a repeated row came to be
# named as a repeat; with those 227 lines read back as "computed no such
# orbit. table row has no computed counterpart" it is the digest recorded
# before the pairing used one pool of unpaired orbits, eb80e697...
PINNED_MUTATED_DIFF_SHA256 = "cb73634bd035612f71f8eb6de2087624766a12420efd8f8545f09bfe2ff7c41b"


def test_diff_on_mutated_tables(classification_for):
    # seeded edits of the 11 stored tables reach every pairing branch: rows
    # paired by canonical form, flagged canonicals paired by size or, when
    # the size is flagged too, by position, repeated and absent rows, and
    # computed orbits no row claims
    from conftest import ALL_PAIRS

    rng, h, notes = random.Random(1209), hashlib.sha256(), set()
    for case in range(1000):
        p, k = rng.choice(ALL_PAIRS)
        lines = [d.line() for d in diff(classification_for(p, k), mutated_fixture(rng, load_fixture(p, k)))]
        h.update(("\n".join([f"case {case} p={p} k={k}"] + lines) + "\n").encode())
        notes.update(line.rsplit(". ", 1)[-1] for line in lines if line.startswith(MISMATCH))
    assert notes == {"table row has no computed counterpart",
                     "the table repeats it",
                     "flagged canonical, but the size matches no computed orbit",
                     "computed orbit missing from the table"} | {
        n for n in notes if n.startswith("canonical ")}
    assert h.hexdigest() == PINNED_MUTATED_DIFF_SHA256
