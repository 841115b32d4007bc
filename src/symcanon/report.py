"""Serialization of classification results, reference-table fixtures, errata.

Fixture file format (one published table per file, `k{k}_p{p}.table`):

    p=<p>
    k=<k>
    <rank>,<orbit size>,<flattened digits, space-separated>
    ...

Zeros are stored as the digit 0 even where the source printed a
placeholder dot.  Tables whose early rows were printed as matrix slices
are stored in flatten order; for symmetric tensors the two layouts carry
identical digit sequences, so the conversion is the identity.  Rows are
stored verbatim otherwise, including suspected errata; the sidecar
`k{k}_p{p}.errata` (a JSON list) records row references and
classifications, and the single documented restoration (a size printed
with an interior space) is noted there.  Verification logic never
auto-corrects fixtures.

Sidecar entry fields: id, classification, rows (0-based indices into the
table rows; empty for prose notes), fields (subset of "orbit_size",
"canonical", "prose"), printed, reason.

Structured output is canonical JSON: keys sorted lexicographically,
integers base-10, two-space indent, trailing newline.  Percentages are
derived from the counts (the source rounds them), never stored as
authoritative.  Wall-time is volatile and excluded unless requested, so
repeated runs emit byte-identical documents.
"""

import json
import os
import re
from pathlib import Path

from ._version import __version__
from .errors import FixtureError, MissingFixtureError
from .gfp import Frozen
from .tensor import twos_counts

SCHEMA_VERSION = "1"

FORMATS = ("structured", "tabular", "markdown", "latex")

ERRATUM_SUSPECTED = "ERRATUM-SUSPECTED"
MISMATCH = "MISMATCH"


class FixtureRow(Frozen):
    __match_args__ = ("index", "rank", "orbit_size", "canonical")


class ErratumNote(Frozen):
    __match_args__ = ("id", "classification", "rows", "fields", "printed", "reason")


class FixtureTable(Frozen):
    __match_args__ = ("p", "order", "rows", "errata")


class Discrepancy(Frozen):
    # classification: ERRATUM-SUSPECTED or MISMATCH; erratum_id: str or
    # None; rank: int or None
    __match_args__ = ("classification", "p", "order", "erratum_id", "rank", "field", "printed",
                      "computed", "note")

    def line(self):
        where = f"p={self.p} k={self.order}"
        if self.rank is not None:
            where += f" rank={self.rank}"
        tag = f" [{self.erratum_id}]" if self.erratum_id else ""
        return (
            f"{self.classification}{tag} {where} {self.field}: "
            f"printed {self.printed}; computed {self.computed}. {self.note}"
        )


# ---------------------------------------------------------------------------
# Fixture access
# ---------------------------------------------------------------------------

def fixtures_dir(explicit=None):
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get("SYMCANON_FIXTURES")
    if env:
        return Path(env)
    return Path(__file__).parent / "data" / "fixtures"


def list_fixtures(directory=None):
    """Sorted (p, k) pairs with a stored table."""
    d = fixtures_dir(directory)
    out = []
    for path in d.glob("k*_p*.table"):
        match = re.fullmatch(r"k([1-9][0-9]*)_p([1-9][0-9]*)", path.stem)  # the names load_fixture opens
        if match is None:
            raise FixtureError(f"{path.name}: table names must read k<order>_p<prime>.table")
        out.append((int(match[2]), int(match[1])))
    return sorted(out, key=lambda pk: (pk[1], pk[0]))


def load_fixture(p, k, directory=None):
    d = fixtures_dir(directory)
    path = d / f"k{k}_p{p}.table"
    if not path.exists():
        raise MissingFixtureError(f"no reference table stored for p={p}, k={k} in {d}")
    rows = []
    header = {}
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" in line and "," not in line:
            key, _, value = line.partition("=")
            header[key.strip()] = value.strip()
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise FixtureError(f"{path.name}: expected rank,size,digits, got {raw!r}")
        try:
            rank = int(parts[0])
            size = int(parts[1])
            digits = tuple(int(s) for s in parts[2].split())
        except ValueError as exc:
            raise FixtureError(f"{path.name}: bad row {raw!r}: {exc}") from None
        rows.append(FixtureRow(len(rows), rank, size, digits))
    if header.get("p") != str(p) or header.get("k") != str(k):
        raise FixtureError(f"{path.name}: header does not declare p={p}, k={k}")
    n = 1 << k
    for row in rows:
        if len(row.canonical) != n:
            raise FixtureError(
                f"{path.name}: row {row.index} has {len(row.canonical)} digits, expected {n}"
            )
        if any(not 0 <= d < p for d in row.canonical):
            raise FixtureError(f"{path.name}: row {row.index} has digits outside 0..{p - 1}")
        if row.rank < 0 or row.orbit_size < 1:
            raise FixtureError(f"{path.name}: row {row.index} has a bad rank or size")
    return FixtureTable(p, k, tuple(rows), _load_errata(path, len(rows)))


def _load_errata(table_path, n_rows):
    path = table_path.with_suffix(".errata")
    if not path.exists():
        return ()
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FixtureError(f"{path.name}: invalid JSON: {exc}") from None
    if not isinstance(raw, list) or not all(isinstance(entry, dict) for entry in raw):
        raise FixtureError(f"{path.name}: expected a JSON list of entry objects")
    notes = []
    for entry in raw:
        try:
            note = ErratumNote(
                id=entry["id"],
                classification=entry.get("classification", ERRATUM_SUSPECTED),
                rows=tuple(entry.get("rows", ())),
                fields=tuple(entry["fields"]),
                printed=entry["printed"],
                reason=entry["reason"],
            )
        except KeyError as exc:
            raise FixtureError(f"{path.name}: entry missing key {exc}") from None
        except TypeError:
            raise FixtureError(f"{path.name}: entry {entry['id']}: rows and fields must be lists") from None
        if note.classification != ERRATUM_SUSPECTED:
            raise FixtureError(f"{path.name}: entry {note.id}: classification must be {ERRATUM_SUSPECTED}")
        if not set(note.fields) <= {"orbit_size", "canonical", "prose"}:
            raise FixtureError(f"{path.name}: entry {note.id}: unknown field in {list(note.fields)}")
        if not all(type(i) is int and 0 <= i < n_rows for i in note.rows):
            raise FixtureError(f"{path.name}: entry {note.id}: rows must lie in 0..{n_rows - 1}")
        notes.append(note)
    return tuple(notes)


# ---------------------------------------------------------------------------
# Diff against a fixture
# ---------------------------------------------------------------------------

def _fmt_digits(digits):
    return " ".join(str(d) for d in digits)


def _fmt_record(rec):
    return f"size {rec.orbit_size}, canonical {_fmt_digits(rec.canonical)}"


def diff(report, fixture):
    """Row-level comparison of a classification against a stored table.

    A canonical form names exactly one orbit, so rows pair with computed
    orbits by (rank, canonical form), each orbit at most once; a later row
    with the same pair is reported as a repeat of the first.  Rows whose
    canonical column is flagged pair afterwards with the first unpaired
    orbit of their rank and size or, when the size is flagged too, of their
    rank alone.  A sidecar flag suppresses the comparison of its fields
    only on a row the printed table itself proves wrong: its orbit size
    does not divide |GL2|, or its canonical row is not symmetric or is
    printed twice.  An unbacked flag is compared like any row.  Each
    sidecar entry yields one ERRATUM-SUSPECTED discrepancy carrying the
    computed replacement rows.  Any disagreement on an unflagged row (or an
    unpaired orbit) is a MISMATCH, i.e. a build failure.
    """
    if (report.p, report.order) != (fixture.p, fixture.order):
        raise ValueError("report and fixture parameters differ")

    canonicals, twos = [row.canonical for row in fixture.rows], twos_counts(fixture.order)

    def proven_wrong(row):
        return (report.group_order % row.orbit_size or canonicals.count(row.canonical) > 1
                or len(set(zip(twos, row.canonical))) > fixture.order + 1)

    flagged = {}
    for note in fixture.errata:
        for idx in note.rows:
            if proven_wrong(fixture.rows[idx]):
                flagged.setdefault(idx, set()).update(note.fields)

    mismatches = []
    matched = {}  # fixture row index -> record, or None
    left = {(rec.rank, rec.canonical): rec for rec in report.records}  # unpaired
    paired = {}  # (rank, canonical form) -> the row that took its orbit

    def mismatch(rank, field, printed, computed, note):
        mismatches.append(
            Discrepancy(MISMATCH, report.p, report.order, None, rank, field,
                        printed, computed, note)
        )

    # rows with a trusted canonical column pair up by (rank, canonical form)
    for row in fixture.rows:
        fields = flagged.get(row.index, set())
        if "canonical" in fields:
            continue
        key = (row.rank, row.canonical)
        rec = matched[row.index] = left.pop(key, None)
        if rec is None and key in paired:
            mismatch(row.rank, "canonical", _fmt_digits(row.canonical),
                     f"orbit already paired with row {paired[key]}", "the table repeats it")
        elif rec is None:
            mismatch(row.rank, "canonical", _fmt_digits(row.canonical),
                     "no such orbit", "table row has no computed counterpart")
        else:
            paired[key] = row.index
            if rec.orbit_size != row.orbit_size and "orbit_size" not in fields:
                mismatch(row.rank, "orbit_size", str(row.orbit_size),
                         str(rec.orbit_size),
                         f"canonical {_fmt_digits(row.canonical)}")

    # rows whose canonical column is flagged pair up by size, else by position
    for row in fixture.rows:
        fields = flagged.get(row.index, set())
        if "canonical" not in fields:
            continue
        key = next((key for key, rec in left.items() if rec.rank == row.rank
                    and ("orbit_size" in fields or rec.orbit_size == row.orbit_size)), None)
        if key is not None:
            matched[row.index] = left.pop(key)
        elif "orbit_size" not in fields:
            mismatch(row.rank, "orbit_size", str(row.orbit_size),
                     "no orbit of this size",
                     "flagged canonical, but the size matches no computed orbit")

    # computed orbits never claimed by any table row
    for rec in sorted(left.values(), key=lambda rec: rec.rank):
        mismatch(rec.rank, "row", "absent", _fmt_record(rec),
                 "computed orbit missing from the table")

    # one discrepancy per sidecar entry, carrying the computed replacements
    errata = []
    for note in fixture.errata:
        if note.fields == ("prose",):
            computed = f"the section's parameters are p={fixture.p}, k={fixture.order}"
        else:
            parts = []
            for idx in note.rows:
                row = fixture.rows[idx]
                rec = matched.get(idx)
                repl = _fmt_record(rec) if rec is not None else "unmatched"
                parts.append(f"row {idx} (rank {row.rank}): {repl}")
            computed = "; ".join(parts)
        errata.append(
            Discrepancy(
                note.classification, fixture.p, fixture.order, note.id,
                fixture.rows[note.rows[0]].rank if note.rows else None,
                "+".join(note.fields), note.printed, computed, note.reason,
            )
        )
    return errata + mismatches


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _percentages(counts, space):
    return [round(100.0 * c / space, 2) for c in counts]


def build_document(report, include_timing=False):
    """Assemble the serializable document for a classification report."""
    space = report.p ** (report.order + 1)
    try:
        errata = [{name: getattr(note, name) for name in note.__match_args__}
                  for note in load_fixture(report.p, report.order).errata]
    except MissingFixtureError:
        errata = []
    doc = {
        "schema_version": SCHEMA_VERSION,
        "parameters": {
            "p": report.p,
            "order": report.order,
            "group_order": report.group_order,
            "symmetric_space": space,
        },
        "max_symmetric_rank": report.max_rank,
        "stratum_counts": list(report.stratum_counts),
        "stratum_percentages": _percentages(report.stratum_counts, space),
        "undecomposable_count": report.undecomposable_count,
        "records": [_record_dict(rec) for rec in report.records],
        "undecomposable_records": [
            _record_dict(rec) for rec in report.undecomposable_records
        ],
        "errata": errata,
        "provenance": {"artifact": "symcanon", "version": __version__},
    }
    if include_timing:
        doc["timing"] = {"wall_seconds": report.timing_seconds}
    return doc


def _record_dict(rec):
    return {
        "rank": rec.rank,
        "orbit_size": rec.orbit_size,
        "stabilizer_size": rec.stabilizer_size,
        "canonical": list(rec.canonical),
    }


def emit(report, format="structured", include_timing=False):
    """Render a classification report in one of the supported formats."""
    if format == "md":
        format = "markdown"
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    if format == "structured":
        doc = build_document(report, include_timing)
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if format == "tabular":
        return _emit_tabular(report)
    if format == "markdown":
        return _emit_markdown(report)
    return _emit_latex(report)


def _emit_tabular(report):
    lines = [f"p={report.p}", f"k={report.order}"]
    for rec in report.records:
        lines.append(f"{rec.rank},{rec.orbit_size},{_fmt_digits(rec.canonical)}")
    for rec in report.undecomposable_records:
        lines.append(f"U,{rec.orbit_size},{_fmt_digits(rec.canonical)}")
    return "\n".join(lines) + "\n"


def _emit_markdown(report):
    space = report.p ** (report.order + 1)
    lines = [
        f"# Symmetric 2^{report.order} tensors over F_{report.p}",
        "",
        f"group order {report.group_order}, {space} symmetric tensors, "
        f"maximum symmetric rank {report.max_rank}",
        "",
        "| rank | number | % |",
        "|---:|---:|---:|",
    ]
    for r, (count, pct) in enumerate(
        zip(report.stratum_counts, _percentages(report.stratum_counts, space))
    ):
        lines.append(f"| {r} | {count} | {pct:.2f} |")
    lines += [
        "",
        "| symmetric rank | orbit size | canonical form (flattened) |",
        "|---:|---:|---|",
    ]
    for rec in report.records:
        lines.append(f"| {rec.rank} | {rec.orbit_size} | {_fmt_digits(rec.canonical)} |")
    if report.undecomposable_records:
        lines += [
            "",
            f"No symmetric decomposition ({report.undecomposable_count} tensors; "
            "orbit structure computed here, not part of the published tables):",
            "",
            "| symmetric rank | orbit size | canonical form (flattened) |",
            "|---:|---:|---|",
        ]
        for rec in report.undecomposable_records:
            lines.append(f"| - | {rec.orbit_size} | {_fmt_digits(rec.canonical)} |")
    return "\n".join(lines) + "\n"


def _emit_latex(report):
    lines = [
        r"\begin{array}{ccc}",
        r"\text{symmetric rank} & \text{orbit size} & \text{canonical form (flattened)} \\",
        r"\toprule",
    ]
    for rec in report.records:
        digits = " & ".join(str(d) for d in rec.canonical)
        lines.append(rf"{rec.rank} & {rec.orbit_size} & \begin{{matrix}} {digits} \end{{matrix}} \\")
    for rec in report.undecomposable_records:
        digits = " & ".join(str(d) for d in rec.canonical)
        lines.append(rf"\text{{--}} & {rec.orbit_size} & \begin{{matrix}} {digits} \end{{matrix}} \\")
    lines.append(r"\bottomrule")
    lines.append(r"\end{array}")
    return "\n".join(lines) + "\n"
