import hashlib
import importlib
import tracemalloc
from collections import Counter

import pytest

from symcanon import (
    CompactSym,
    FieldSpec,
    GroupElement,
    act_diagonal,
    canonical_form,
    classify,
    compact_from_full,
    decode,
    emit,
    full_from_compact,
    group_order,
)
from symcanon.group_action import action_stack, orbit_labels
from symcanon.tensor import SymTensor

from conftest import ALL_PAIRS


def test_classify_f3_records(classification_for):
    rep = classification_for(3, 3)
    assert [(r.rank, r.orbit_size) for r in rep.records] == [
        (0, 1), (1, 8), (2, 24), (3, 8), (3, 24), (4, 16)]
    assert rep.undecomposable_records == []


def test_classify_f11_rank3_sizes(classification_for):
    rep = classification_for(11, 3)
    assert Counter(r.orbit_size for r in rep.records if r.rank == 3) == Counter(
        [1320, 2200, 4400])


def test_classify_f7_order4(classification_for):
    rep = classification_for(7, 4)
    assert len(rep.records) == 42
    assert Counter(r.orbit_size for r in rep.records if r.rank == 6) == Counter(
        [84, 504, 252])


def test_orbit_count_statements(classification_for):
    stated = {(7, 3): 14, (13, 3): 14, (17, 3): 6, (3, 4): 15, (5, 4): 52, (7, 4): 42}
    for (p, k), n in stated.items():
        assert len(classification_for(p, k).records) == n


def test_partition_identities(classification_for):
    for p, k in [(2, 3), (3, 3), (5, 3), (2, 4), (3, 4)]:
        rep = classification_for(p, k)
        per_rank = Counter()
        for rec in rep.records:
            per_rank[rec.rank] += rec.orbit_size
        assert [per_rank[r] for r in range(rep.max_rank + 1)] == rep.stratum_counts
        assert sum(r.orbit_size for r in rep.undecomposable_records) == rep.undecomposable_count
        assert rep.group_order == group_order(FieldSpec(p))
        for rec in rep.all_records():
            assert rec.orbit_size * rec.stabilizer_size == rep.group_order


def test_records_sorted_and_distinct(classification_for):
    rep = classification_for(5, 3)
    keys = [(r.rank, r.canonical_code) for r in rep.records]
    assert keys == sorted(keys)
    assert len({r.canonical_code for r in rep.all_records()}) == len(rep.all_records())


def test_canonicals_are_fixed_points(classification_for):
    for p, k in [(2, 3), (3, 3), (2, 4)]:
        rep = classification_for(p, k)
        f = FieldSpec(p)
        for rec in rep.all_records():
            X = SymTensor(f, decode(rec.canonical_code, f, k).entries)
            assert canonical_form(X).entries == rec.canonical


def test_determinism_across_runs():
    a = classify(FieldSpec(3), 4)
    b = classify(FieldSpec(3), 4)
    assert a.records == b.records
    assert a.undecomposable_records == b.undecomposable_records
    assert a.stratum_counts == b.stratum_counts


def conjugacy_classes(p):
    """(representative, class size) of each conjugacy class of GL2(F_p):
    central, non-semisimple, split and non-split (companion matrices of the
    irreducible x^2 - t x + n)."""
    units = range(1, p)
    classes = [(((a, 0), (0, a)), 1) for a in units]
    classes += [(((a, 1), (0, a)), p * p - 1) for a in units]
    classes += [(((a, 0), (0, b)), p * (p + 1)) for a in units for b in units if a < b]
    classes += [(((0, -n % p), (1, t)), p * (p - 1)) for t in range(p) for n in units
                if all((x * x - t * x + n) % p for x in range(p))]
    return [(GroupElement(FieldSpec(p), m), size) for m, size in classes]


def rank_mod_p(rows, p):
    rows, rank = [list(row) for row in rows], 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * pow(rows[rank][col], p - 2, p)
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("p,k", ALL_PAIRS)
def test_burnside_orbit_count(p, k, classification_for):
    # orbits = (1/|G|) sum_g p^dim ker(S_g - I), with S_g the action of g on
    # the k+1 compact coefficients, built column by column with act_diagonal
    f = FieldSpec(p)
    basis = [full_from_compact(CompactSym(f, k, tuple(int(i == j) for i in range(k + 1))))
             for j in range(k + 1)]
    classes = conjugacy_classes(p)
    assert sum(size for _, size in classes) == group_order(f)
    fixed = 0
    for g, size in classes:
        columns = [compact_from_full(act_diagonal(g, X)).coeffs for X in basis]
        moved = [[(c - (i == j)) % p for i, c in enumerate(col)] for j, col in enumerate(columns)]
        fixed += size * p ** (k + 1 - rank_mod_p(moved, p))
    rep = classification_for(p, k)
    assert fixed == group_order(f) * (len(rep.records) + len(rep.undecomposable_records))
    assert sum(r.orbit_size for r in rep.all_records()) == p ** (k + 1)


# SHA-256 of the structured report, recorded before orbits came from
# generator labels; the last four pairs have no stored table
PINNED_REPORT_SHA256 = {
    (2, 3): "6e39455776cce6485635436af8349e32e2f3a59b9452419f51044dde37eab117",
    (3, 3): "d0eb2f2530e4689ef5f0ddb069e2e266ffbc8f05608c52f341e715757c10a70e",
    (5, 3): "ed0499d9569d6d79a108cf1e130cca565ca96cac21695a4ff9503c4d3dea7b9d",
    (7, 3): "e66301dcf497afafe0107ed4125c9ce6f07ae303c8e3bfd837dafd8e3808ce8e",
    (11, 3): "4eeb3dc106f1acc193f835612f132cd98126fc84fd4dcfeab7e6adbcb6e2ad11",
    (13, 3): "12f1138da60d760a62626e17d63063a684b626b76aa0549989d3bc9025e374d7",
    (17, 3): "2bf4e5fa0e537edf970554d3de16a948ec2597a58697ce1f0967ed6b586d60b2",
    (2, 4): "3eaf43f391003d19a739fe4bea8d1119f7adf73aa05baa025ce9fb5c56111e47",
    (3, 4): "830cbae048ffc6243ceca3dabeb958725badde7a78f2faa570556ae5a4d250fb",
    (5, 4): "516154633f01d1208fe7e93533bcfe60707677a8a19b87739f7faa18e705cec2",
    (7, 4): "f3d034915013f9576cf2da8e1917242aed0a3ffbd8c0946d19fa0c77f26859e8",
    (19, 3): "f40b65cbcd2cd276491ba08cb1679536b1d26b625192b7c5ca33fc13974d4fac",
    (23, 3): "6cc3eca439f3aa786e43c5f76dd5b6efbab1435e8d6eec78dc1f1dcb96a20ba1",
    (11, 4): "943ebb5b8d3e975859957fda139292e70d6b2e03e49ddc9f56891a252630f939",
    (13, 4): "db0747c151393b106ef3e7e330eabc4de9e5a707a5f127ceab2a3b6343fd97db",
}


@pytest.mark.parametrize("p,k", list(PINNED_REPORT_SHA256))
def test_structured_report_pinned(p, k, classification_for):
    text = emit(classification_for(p, k), "structured")
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORT_SHA256[(p, k)]


def test_rank_not_constant_on_an_orbit_raises(monkeypatch):
    # the package's name `classify` is the function, so fetch the module itself
    classify_mod = importlib.import_module("symcanon.classify")
    real = classify_mod.symmetric_rank_strata

    # c:0,0,0,1 = e2^3 (code 1) has rank 1, as do the 7 others in its orbit;
    # corrupt the canonical code, then only the non-canonical c:1,0,0,0 (27)
    for code in (1, 27):
        def corrupt(field, k, budget, code=code):
            s = real(field, k, budget)
            s._rank_of = s._rank_of.copy()
            s._rank_of[code] = 2
            return s

        monkeypatch.setattr(classify_mod, "symmetric_rank_strata", corrupt)
        with pytest.raises(AssertionError, match="not constant on an orbit"):
            classify_mod.classify(FieldSpec(3), 3)


def test_orbit_path_bytes():
    # int32 images and labels peak at 28 B per compact code, 3.5 MiB over
    # the 130 321 codes of (19,3); int64 digits and images took 112 B
    f = FieldSpec(19)
    stack = action_stack(f, 3)
    peaks = []
    for run in (lambda: orbit_labels(stack, 19), lambda: classify(f, 3)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 5 << 20 and peaks[1] < 8 << 20, [peak / 2**20 for peak in peaks]
