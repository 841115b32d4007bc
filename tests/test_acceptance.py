"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
pass; on failure the line is shown in the captured output.
"""

import random
from collections import Counter

from symcanon import (
    FieldSpec,
    classify,
    decode,
    decompose,
    diff,
    emit,
    full_from_compact,
    group_order,
    load_fixture,
    symmetric_outer_power,
)
from symcanon.rank_strata import DEFAULT_BUDGET
from symcanon.report import ERRATUM_SUSPECTED, MISMATCH, list_fixtures
from symcanon.tensor import SymTensor

from conftest import ALL_PAIRS, compact_decode, count_stabilizer_directly, general_rank_k3, strata_rank


def criterion(num, desc, ok):
    print(f"criterion {num:2d} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


STRATUM_COUNTS_K3 = {
    2: [1, 3, 3, 1],
    3: [1, 8, 24, 32, 16],
    5: [1, 24, 240, 360],
    7: [1, 16, 128, 688, 1232, 336],
    11: [1, 120, 6600, 7920],
    13: [1, 56, 1568, 16016, 10920],
    17: [1, 288, 39168, 44064],
}

STRATUM_COUNTS_K4 = {
    2: [1, 3, 3, 1],
    3: [1, 4, 10, 16, 19, 16, 10, 4, 1],
    5: [1, 6, 21, 56, 126, 240, 395, 570, 690, 660, 360],
    7: [1, 24, 276, 1932, 7119, 6615, 840],
}

UNDECOMPOSABLE = {(2, 3): 8, (2, 4): 24, (3, 4): 162}

MAX_RANKS = {
    (2, 3): 3, (3, 3): 4, (5, 3): 3, (7, 3): 5, (11, 3): 3, (13, 3): 4, (17, 3): 3,
    (2, 4): 3, (3, 4): 8, (5, 4): 10, (7, 4): 6,
}

EXACT_TABLES = [(2, 3), (3, 3), (5, 3), (11, 3), (13, 3), (3, 4), (5, 4), (7, 4)]

EXPECTED_ERRATA = {
    "F13K3-SIZE-PRINT", "F17K3-SIZES", "F7K3-RANK4-DUP", "F2K4-SIZES",
    "S38-PROSE-FIELD",
}


def test_criterion_1_stratum_counts_order3(strata_for):
    ok = all(
        strata_for(p, 3).stratum_sizes() == counts
        for p, counts in STRATUM_COUNTS_K3.items()
    )
    criterion(1, "stratum counts reproduce the reference exactly, k=3", ok)


def test_criterion_2_stratum_counts_order4(strata_for):
    ok = all(
        strata_for(p, 4).stratum_sizes() == counts
        for p, counts in STRATUM_COUNTS_K4.items()
    )
    ok = ok and strata_for(2, 4).undecomposable.size == 24
    ok = ok and strata_for(3, 4).undecomposable.size == 162
    ok = ok and sum(strata_for(5, 4).stratum_sizes()) == 3125
    criterion(2, "stratum counts and undecomposable counts, k=4", ok)


def test_criterion_3_max_ranks(strata_for):
    ok = all(strata_for(p, k).max_rank == m for (p, k), m in MAX_RANKS.items())
    ok = ok and max(strata_for(p, 3).max_rank for p in STRATUM_COUNTS_K3) >= 5
    ok = ok and max(strata_for(p, 4).max_rank for p in STRATUM_COUNTS_K4) >= 10
    criterion(3, "maximum symmetric ranks, both orders", ok)


def test_criterion_4_orbit_inventories(classification_for):
    ok = True
    for p, k in EXACT_TABLES:
        table = Counter(
            (row.rank, row.orbit_size, row.canonical)
            for row in load_fixture(p, k).rows
        )
        computed = Counter(
            (rec.rank, rec.orbit_size, rec.canonical)
            for rec in classification_for(p, k).records
        )
        if table != computed:
            ok = False
    criterion(4, "orbit inventories match every self-consistent table", ok)


def test_criterion_5_errata_audit(classification_for):
    errata, mismatches = [], []
    for p, k in list_fixtures():
        for d in diff(classification_for(p, k), load_fixture(p, k)):
            if d.classification == ERRATUM_SUSPECTED:
                errata.append(d)
            elif d.classification == MISMATCH:
                mismatches.append(d)
    ok = {d.erratum_id for d in errata} == EXPECTED_ERRATA
    ok = ok and len(errata) == len(EXPECTED_ERRATA)
    ok = ok and all(d.computed for d in errata)
    ok = ok and not mismatches
    criterion(5, "exactly the five suspected errata, no mismatch", ok)


def test_criterion_6_counting_identities(classification_for):
    ok = True
    for p, k in ALL_PAIRS:
        rep = classification_for(p, k)
        n = group_order(FieldSpec(p))
        per_rank = Counter()
        for rec in rep.records:
            per_rank[rec.rank] += rec.orbit_size
        if [per_rank[r] for r in range(rep.max_rank + 1)] != rep.stratum_counts:
            ok = False
        for rec in rep.all_records():
            if n % rec.orbit_size != 0 or rec.orbit_size * rec.stabilizer_size != n:
                ok = False
        total = sum(rep.stratum_counts) + rep.undecomposable_count
        if total != p ** (k + 1):
            ok = False
        if sum(r.orbit_size for r in rep.undecomposable_records) != rep.undecomposable_count:
            ok = False
    # direct stabilizer counts for p <= 5, k = 3
    for p in (2, 3, 5):
        rep = classification_for(p, 3)
        f = FieldSpec(p)
        for rec in rep.all_records():
            X = SymTensor(f, decode(rec.canonical_code, f, 3).entries)
            if count_stabilizer_directly(X) != rec.stabilizer_size:
                ok = False
    criterion(6, "counting identities on every computed (p, k)", ok)


# symmetric tensors with a decomposition whose general rank is strictly
# below their symmetric rank; none where p = 2 (mod 3)
STRICTLY_BELOW_K3 = {2: 0, 3: 16, 5: 0, 7: 1936, 11: 0, 13: 18312, 17: 0}


def test_criterion_7_rank_inequality(strata_for, general_for):
    # full-space general tables where the budget allows them, else the
    # closed form at k = 3
    ok = True
    for p, k in [pair for pair in ALL_PAIRS if pair[1] == 3] + [(2, 4), (3, 4)]:
        s = strata_for(p, k)
        if p ** (1 << k) <= DEFAULT_BUDGET:
            g = general_for(p, k)
            ok &= sum(g.sizes) == p ** (1 << k)
            ranks = [g._rank_of[codes] for codes in s.strata]
        else:
            ranks = [general_rank_k3(*divmod(codes, p**4), p) for codes in s.strata]
        below = 0
        for r, rg in enumerate(ranks):
            ok &= bool(((rg >= 0) & (rg <= r)).all())
            below += int((rg < r).sum())
        if k == 3:
            ok &= below == STRICTLY_BELOW_K3[p]
    criterion(7, "rank(X) <= symmetric rank(X) wherever both computed", ok)


def _witness_ok(X, s, f):
    w = decompose(X)
    if len(w.vectors) != strata_rank(s, X):
        return False
    total = [0] * (1 << s.order)
    for v in w.vectors:
        term = symmetric_outer_power(v, s.order, f)
        total = [(a + b) % f.p for a, b in zip(total, term.entries)]
    return tuple(total) == X.entries


def test_criterion_8_witness_soundness(strata_for):
    ok = True
    for p, k in [(2, 3), (3, 3), (2, 4), (3, 4)]:  # exhaustive for p <= 3
        f = FieldSpec(p)
        s = strata_for(p, k)
        for code in range(p ** (k + 1)):
            X = full_from_compact(compact_decode(code, f, k))
            if strata_rank(s, X) is None:
                continue
            if not _witness_ok(X, s, f):
                ok = False
    rng = random.Random(1456)
    for p, k in [(5, 3), (7, 3), (11, 3), (13, 3), (17, 3), (5, 4), (7, 4)]:
        f = FieldSpec(p)
        s = strata_for(p, k)
        for _ in range(1000):
            code = rng.randrange(p ** (k + 1))
            X = full_from_compact(compact_decode(code, f, k))
            if strata_rank(s, X) is None:
                ok = False  # these fields have no undecomposable tensors
            elif not _witness_ok(X, s, f):
                ok = False
    criterion(8, "witnesses re-sum to their tensor at the claimed length", ok)


def test_criterion_9_determinism_across_runs():
    f = FieldSpec(7)
    one = emit(classify(f, 4), "structured")
    two = emit(classify(f, 4), "structured")
    criterion(9, "classify(7,4) byte-identical across two runs", one == two)


def test_criterion_10_percentages(classification_for):
    from symcanon.report import build_document

    printed = {
        2: [6.25, 18.75, 18.75, 6.25],
        3: [1.23, 9.88, 29.63, 39.51, 19.75],
    }
    ok = True
    for p, expected in printed.items():
        got = build_document(classification_for(p, 3))["stratum_percentages"]
        if len(got) != len(expected):
            ok = False
            continue
        if any(abs(a - b) > 0.01 for a, b in zip(got, expected)):
            ok = False
    criterion(10, "percentage rows match the printed two-decimal values", ok)
