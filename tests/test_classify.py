from collections import Counter

from symcanon import FieldSpec, canonical_form, classify, decode, group_order
from symcanon.tensor import SymTensor


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
