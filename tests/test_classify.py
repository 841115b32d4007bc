import hashlib
import importlib
import tracemalloc
from collections import Counter

import pytest

from symcanon import (
    BudgetExceededError,
    CompactSym,
    FieldSpec,
    RankStratification,
    canonical_form,
    classify,
    compact_from_full,
    decode,
    emit,
    encode,
    full_from_compact,
    group_order,
    symmetric_rank_strata,
)
from symcanon.tensor import SymTensor

from conftest import (ALL_PAIRS, GroupElement, act_diagonal, burnside_orbit_count, conjugacy_classes, rank_mod_p,
                      run_python)


def test_classify_f3_records(classification_for):
    rep = classification_for(3, 3)
    assert [(r.rank, r.orbit_size) for r in rep.records] == [
        (0, 1), (1, 8), (2, 24), (3, 8), (3, 24), (4, 16)]
    assert rep.undecomposable_records == []


def test_canonical_codes_past_int64():
    # full codes reach p^16 > 2^63 from p = 17 at k = 4: the records keep
    # them in Python ints (at (19,4) 38 of the 90 canonical codes pass 2^63),
    # and the full-code lists of the strata refuse rather than wrap
    rep = classify(FieldSpec(19), 4)
    assert sum(r.canonical_code > 1 << 63 for r in rep.all_records()) == 38
    for r in rep.all_records():
        assert r.canonical_code == encode(SymTensor(FieldSpec(19), r.canonical)), r
    s = symmetric_rank_strata(FieldSpec(17), 4)
    for name in ("strata", "undecomposable"):
        with pytest.raises(OverflowError, match="int64 limit"):
            getattr(s, name)
    assert sum(map(len, symmetric_rank_strata(FieldSpec(13), 4).strata)) == 13**5  # 13^16 < 2^63


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


@pytest.mark.parametrize("p,k", ALL_PAIRS)
def test_burnside_orbit_count(p, k, classification_for):
    # orbits = (1/|G|) sum_g p^dim ker(S_g - I), with S_g the action of g on
    # the k+1 compact coefficients, built column by column with act_diagonal
    f = FieldSpec(p)
    basis = [full_from_compact(CompactSym(f, k, tuple(int(i == j) for i in range(k + 1))))
             for j in range(k + 1)]
    classes = [(GroupElement(f, m), size) for m, size in conjugacy_classes(p)]
    assert sum(size for _, size in classes) == group_order(f)
    fixed = 0
    for g, size in classes:
        columns = [compact_from_full(act_diagonal(g, X)).coeffs for X in basis]
        moved = [[(c - (i == j)) % p for i, c in enumerate(col)] for j, col in enumerate(columns)]
        fixed += size * p ** (k + 1 - rank_mod_p(moved, p))
    rep = classification_for(p, k)
    assert fixed == group_order(f) * (len(rep.records) + len(rep.undecomposable_records))
    assert sum(r.orbit_size for r in rep.all_records()) == p ** (k + 1)
    # the same count from the pure-Python oracle, on binary forms
    assert burnside_orbit_count(p, k) == len(rep.all_records())


# SHA-256 of the structured report, recorded before orbits came from
# generator labels (the last two pairs: before the coset stack had a
# closed form); the last six pairs have no stored table
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
    (19, 4): "257a073142ee605caa554323665ce18fbcd5a686c4a7304f6c1cabcb5c7aecd6",
    (23, 4): "9217f70b2f56bff418c3e9dbab236c7450872f5bea00ecc3ff5f8ebd3111854a",
}


@pytest.mark.parametrize("p,k", list(PINNED_REPORT_SHA256))
def test_structured_report_pinned(p, k, classification_for):
    text = emit(classification_for(p, k), "structured")
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORT_SHA256[(p, k)]


def test_oversized_space_refused_before_the_stack(monkeypatch):
    classify_mod = importlib.import_module("symcanon.classify")

    def no_stack(*args):
        raise AssertionError("coset stack built for a refused space")

    monkeypatch.setattr(classify_mod, "action_stack", no_stack)
    with pytest.raises(BudgetExceededError, match="symmetric code space"):
        classify_mod.classify(FieldSpec(17), 3, budget=1000)
    with pytest.raises(BudgetExceededError, match="int32"):
        classify_mod.classify(FieldSpec(10007), 3, budget=10**20)


def test_orbit_sizes_off_the_counting_identity_raise(monkeypatch):
    # the package's name `classify` is the function, so fetch the module itself
    classify_mod = importlib.import_module("symcanon.classify")
    real = classify_mod.symmetric_rank_strata

    # the orbit of c:0,0,0,1 = e2^3 (code 1) has 8 codes; record 7, then 9
    for size in (7, 9):
        def corrupt(field, k, budget, stack, size=size):
            s = real(field, k, budget, stack)
            orbits = [(r, c, size if c == 1 else n) for r, c, n in s._orbits]
            return RankStratification(s.field, s.order, s.generator_vectors, s._rank_of, s._gen_codes, orbits)

        monkeypatch.setattr(classify_mod, "symmetric_rank_strata", corrupt)
        with pytest.raises(AssertionError, match=r"orbit sizes do not sum to p\^\(k\+1\) = 81"):
            classify_mod.classify(FieldSpec(3), 3)


def test_orbit_path_bytes():
    # classify holds the int8 rank table, one byte per compact code, and
    # one orbit's int32 images at a time: 0.7 MiB at (19,3) and 8.3 MiB at
    # (23,4); no whole-space array of wider codes
    peaks = {}
    for p, k in [(19, 3), (23, 4)]:
        tracemalloc.start()
        try:
            classify(FieldSpec(p), k)
            peaks[p, k] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    assert peaks[19, 3] < 1 and peaks[23, 4] < 16, peaks


def test_burnside_counts_the_orbits_beyond_the_fixtures():
    expected = {(19, 3): 14, (23, 3): 6, (11, 4): 54, (13, 4): 108, (19, 4): 90, (23, 4): 102}
    assert {pk: burnside_orbit_count(*pk) for pk in expected} == expected
    for (p, k), n in expected.items():
        rep = classify(FieldSpec(p), k)
        assert len(rep.all_records()) == n and sum(r.orbit_size for r in rep.all_records()) == p ** (k + 1)


def test_timing_starts_after_numpy_is_loaded():
    # the package loads numpy on first use; the first classify of a fresh
    # process must not time numpy's import, so numpy.linalg, which numpy's
    # __init__ imports, is loaded when classify first reads the clock
    script = """
import sys, time
import symcanon, symcanon.classify
seen, clock = ["numpy.linalg" in sys.modules], time.perf_counter

def perf_counter():
    if len(seen) == 1 and sys._getframe(1).f_code.co_name == "classify":
        seen.append("numpy.linalg" in sys.modules)
    return clock()

sys.modules["symcanon.classify"].time.perf_counter = perf_counter
symcanon.classify(symcanon.FieldSpec(3), 3)
print(seen)
"""
    assert run_python("-c", script).strip() == "[False, True]"
