import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import symcanon
from symcanon import (
    AsymmetricTensorError,
    BudgetExceededError,
    CompactSym,
    FieldSpec,
    Tensor,
    UndecomposableError,
    act,
    act_diagonal,
    decode,
    decompose,
    encode,
    enumerate_gl2,
    full_from_compact,
    general_rank_strata,
    symmetric_outer_power,
    symmetric_rank,
    symmetric_rank_strata,
)
from symcanon import rank_strata
from symcanon.rank_strata import rank_one_generators
from symcanon.tensor import compact_decode, compact_encode, compact_from_full

from conftest import ALL_PAIRS, general_rank_k3

F2 = FieldSpec(2)
F3 = FieldSpec(3)


def sym(field, coeffs):
    return full_from_compact(CompactSym(field, len(coeffs) - 1, tuple(coeffs)))


def brute_force_ranks(p, k, max_r):
    """Independent oracle: minimal multiset of symmetric simple tensors."""
    f = FieldSpec(p)
    gens = sorted(
        {
            symmetric_outer_power((v1, v2), k, f).entries
            for v1 in range(p)
            for v2 in range(p)
            if (v1, v2) != (0, 0)
        }
    )
    best = {(0,) * (1 << k): 0}
    for r in range(1, max_r + 1):
        for combo in combinations_with_replacement(gens, r):
            total = tuple(sum(col) % p for col in zip(*combo))
            best.setdefault(total, r)
    return best


@pytest.mark.parametrize("p,k,max_r", [(2, 3, 4), (3, 3, 5), (2, 4, 4)])
def test_strata_against_brute_force(p, k, max_r):
    f = FieldSpec(p)
    s = symmetric_rank_strata(f, k)
    oracle = brute_force_ranks(p, k, max_r)
    for code in range(p ** (k + 1)):
        X = compact_decode(code, f, k).full()
        assert symmetric_rank(X, s) == oracle.get(X.entries)


def test_stratum_sizes_order3():
    expected = {
        2: [1, 3, 3, 1],
        3: [1, 8, 24, 32, 16],
        5: [1, 24, 240, 360],
        7: [1, 16, 128, 688, 1232, 336],
    }
    for p, sizes in expected.items():
        s = symmetric_rank_strata(FieldSpec(p), 3)
        assert s.stratum_sizes() == sizes


def test_stratum_sizes_order4():
    s = symmetric_rank_strata(FieldSpec(5), 4)
    assert s.stratum_sizes() == [1, 6, 21, 56, 126, 240, 395, 570, 690, 660, 360]
    assert s.max_rank == 10
    assert s.undecomposable.size == 0


def test_undecomposable_set_f2_order3():
    # the eight tensors listed without a symmetric decomposition
    s = symmetric_rank_strata(F2, 3)
    assert s.undecomposable.size == 8
    got = {decode(int(c), F2, 3).entries for c in s.undecomposable}
    expected = {
        sym(F2, coeffs).entries
        for coeffs in [
            (0, 1, 0, 0), (1, 1, 0, 0), (0, 1, 0, 1), (1, 1, 0, 1),
            (0, 0, 1, 0), (1, 0, 1, 0), (0, 0, 1, 1), (1, 0, 1, 1),
        ]
    }
    assert got == expected


def test_max_rank_examples():
    assert symmetric_rank_strata(FieldSpec(5), 3).max_rank == 3
    assert symmetric_rank_strata(FieldSpec(3), 4).max_rank == 8
    assert symmetric_rank_strata(FieldSpec(7), 4).max_rank == 6


def test_strata_partition_space():
    for p, k in [(2, 3), (3, 3), (2, 4), (3, 4)]:
        s = symmetric_rank_strata(FieldSpec(p), k)
        all_codes = np.concatenate(s.strata + [s.undecomposable])
        assert all_codes.size == p ** (k + 1)
        assert np.unique(all_codes).size == all_codes.size
        assert s.strata[0].tolist() == [0]
        for layer in s.strata:
            assert layer.size > 0
            assert (np.sort(layer) == layer).all()


def test_parents_link_into_previous_stratum():
    for p, k in [(3, 3), (2, 4)]:
        f = FieldSpec(p)
        s = symmetric_rank_strata(f, k)
        for r in range(1, s.max_rank + 1):
            for code in s.strata[r]:
                X = decode(int(code), f, k)
                X = sym(f, tuple(X.entries[t] for t in [0, 1, 3, 7, 15][: k + 1]))
                pred, vec = s.parent_of(X)
                assert symmetric_rank(pred, s) == r - 1
                term = symmetric_outer_power(vec, k, f)
                resum = tuple((a + b) % p for a, b in zip(pred.entries, term.entries))
                assert resum == X.entries


def test_symmetric_rank_examples():
    s = symmetric_rank_strata(F2, 3)
    assert symmetric_rank(sym(F2, (0, 0, 0, 0)), s) == 0
    assert symmetric_rank(sym(F2, (0, 1, 1, 0)), s) == 3
    assert symmetric_rank(sym(F2, (0, 1, 0, 0)), s) is None


def test_symmetric_rank_rejects_mismatched_parameters():
    s = symmetric_rank_strata(F2, 3)
    with pytest.raises(ValueError):
        symmetric_rank(sym(F3, (0, 0, 0, 1)), s)


def test_asymmetric_input_raises_asymmetric_tensor_error():
    s = symmetric_rank_strata(F2, 3)
    X = Tensor(F2, (0, 1, 0, 0, 0, 0, 0, 0))
    with pytest.raises(AsymmetricTensorError):
        symmetric_rank(X, s)
    with pytest.raises(AsymmetricTensorError):
        decompose(X, s)
    with pytest.raises(AsymmetricTensorError):
        s.parent_of(X)


# SHA-256 over _rank_of, the parent arrays (int64 pred, int32 gen, -1 where
# the rank is not >= 1), every stratum and the undecomposable codes, in that
# order; pins the least derivations.  Recorded when the parent arrays were
# stored; they are now derived by _parents.
PINNED_STRATA_SHA256 = {
    (2, 3): "0453457a7c25dfe8331c0100185b282f46b1849c32c9a6888a79e43dde139aa2",
    (3, 3): "eb875ec7d0ae4ca2f5a66d1d7f31e6939e8babdba852c96b93fd25c85d938c05",
    (5, 3): "b717c1d0e540184528d50c5bccd3d74609ff9710398087c5afd04060de8cd7bd",
    (7, 3): "c63b68b7af52011d063167277b64f6f45222425b7c45674cfc762dbb03549a5d",
    (11, 3): "338ff856eb6883cad39d4af7335e8f411251e33693a899d6ccc61da6bb2fa25f",
    (13, 3): "ba9df3aeb68dd357e0e6a3de9f4e550050e293b9873241c7b78a6ac4454149f7",
    (17, 3): "77b30622400f700c3ab7c463116405e35b35dc3c3f9cf37e57f29f6a98e8caee",
    (2, 4): "961b026616f038f7efbfc6a727e534464fa42f10d9517ea634b98859ae1f64e9",
    (3, 4): "88f8ee20e7b1bc11f6d17acb11e6b7332e15df1e411e361f7b9f6a5942604588",
    (5, 4): "9a8a687edb98db46e220297ef09eb262274191db1dc5c097f9a25ee4a453269b",
    (7, 4): "f71584d3778e093ba5ee894c3730fabb12caf7ddc3bf781612f17ecb17208c11",
}


# The same hash beyond the stored tables: (19,3) recorded before the layer
# expansion became table-driven, (11,4) and (13,4) from the search on single
# codes that the search on orbit labels replaced.
PINNED_STRATA_SHA256_BEYOND_FIXTURES = {
    (19, 3): "0a4f5296bbdf31830fd3a0e35a07f8a1b36b5d47844c6636baad587b1901d7c9",
    (11, 4): "47c89a86d2fc870ae3ced9732c12eca5a8e70434d984d76654e6e0ac71341bcb",
    (13, 4): "973e3663dfe9d6f547d11b0ddf759d91cd18516db10769f555845779ce6e9602",
}


def parent_arrays(s):
    pred = np.full(s._rank_of.size, -1, dtype=np.int64)
    gen = np.full(s._rank_of.size, -1, dtype=np.int32)
    codes = np.flatnonzero(s._rank_of > 0)
    pred[codes], gen[codes] = rank_strata._parents(s, codes)
    return pred, gen


def strata_sha256(s):
    h = hashlib.sha256()
    for a in (s._rank_of, *parent_arrays(s), *s.strata, s.undecomposable):
        h.update(a.tobytes())
    return h.hexdigest()


def test_parent_links_pinned(strata_for):
    assert sorted(PINNED_STRATA_SHA256) == sorted(ALL_PAIRS)
    for (p, k), expected in PINNED_STRATA_SHA256.items():
        assert strata_sha256(strata_for(p, k)) == expected, (p, k)


def parent_chunks(monkeypatch, s):
    """Hashes s as strata_sha256 does; returns the sizes of the chunks of
    codes whose digits _parents read, those of the generators aside."""
    chunks, real_digits = [], rank_strata.digits_of_codes

    def digits_of_codes(codes, p, width):
        if codes is not s._gen_codes:
            chunks.append(codes.size)
        return real_digits(codes, p, width)

    with monkeypatch.context() as m:
        m.setattr(rank_strata, "digits_of_codes", digits_of_codes)
        return strata_sha256(s), chunks


def test_parent_links_pinned_beyond_fixtures(monkeypatch):
    # the parent lookup of every code of rank >= 1 holds more (code,
    # generator) pairs than one chunk may (130 320 codes x 120 generators at
    # (19,3)): each chunk stays within _PULL_CHUNK pairs
    for (p, k), expected in PINNED_STRATA_SHA256_BEYOND_FIXTURES.items():
        s = symmetric_rank_strata(FieldSpec(p), k)
        digest, chunks = parent_chunks(monkeypatch, s)
        assert digest == expected, (p, k)
        assert len(chunks) >= 2, (p, k)
        assert max(chunks) * s._gen_codes.size <= rank_strata._PULL_CHUNK, (p, k)


@pytest.mark.parametrize("p,k", [(3, 3), (5, 3), (2, 4), (3, 4)])
def test_parent_of_is_least_derivation(p, k):
    # independent oracle: the least (pred code, generator index) over a plain
    # loop of digit-wise differences code - generator of rank one lower
    f = FieldSpec(p)
    s = symmetric_rank_strata(f, k)
    gens = rank_one_generators(f, k)
    rank = {c: symmetric_rank(compact_decode(c, f, k).full(), s) for c in range(p ** (k + 1))}

    def digits(c):
        return [(c // p ** (k - j)) % p for j in range(k + 1)]

    def undigits(ds):
        return sum(d * p ** (k - j) for j, d in enumerate(ds))

    for code, r in rank.items():
        if not r:
            continue
        expected = min(
            (pred, i)
            for i, (g, _) in enumerate(gens)
            for pred in [undigits([(a - b) % p for a, b in zip(digits(code), digits(g))])]
            if rank[pred] == r - 1
        )
        pred, vec = s.parent_of(compact_decode(code, f, k).full())
        got = (compact_encode(compact_from_full(pred)), s.generator_vectors.index(vec))
        assert got == expected, (p, k, code)


def test_chunk_boundaries_do_not_change_parent_links(monkeypatch):
    # at _PULL_CHUNK = 1000 the parent lookup spans many chunks of at most
    # 1000 pairs; pushes and pulls over many steps and chunks are the
    # small-chunks case of test_general_search_directions_and_chunks
    monkeypatch.setattr(rank_strata, "_PULL_CHUNK", 1000)
    for p, k in [(7, 3), (11, 3), (13, 3), (5, 4), (7, 4)]:
        s = symmetric_rank_strata(FieldSpec(p), k)
        digest, chunks = parent_chunks(monkeypatch, s)
        assert digest == PINNED_STRATA_SHA256[(p, k)], (p, k)
        assert len(chunks) > 1 and max(chunks) * s._gen_codes.size <= 1000, (p, k)


def test_rank_one_generator_counts():
    # distinct symmetric simple tensors = stratum-1 sizes
    assert len(rank_one_generators(FieldSpec(7), 3)) == 16
    assert len(rank_one_generators(FieldSpec(13), 3)) == 56
    assert len(rank_one_generators(FieldSpec(7), 4)) == 24


@pytest.mark.parametrize("p, k", [(3, 3), (2, 4)])
def test_translation_tables_over_distinct_halves(p, k):
    # the tables keep one row per distinct simple tensor half; gathered
    # through the per-generator indices, every generator must give code + g
    # digit-wise, checked against pure Python on a seeded sample of codes
    gens, width = rank_strata.simple_tensor_codes(FieldSpec(p), k), 1 << k
    space = p**width
    codes = sorted({0, space - 1, *random.Random(1209).sample(range(space), min(space, 200))})

    def digits(c):
        return [c // p**j % p for j in range(width)]

    TH, IH, TL, IL, H = rank_strata._tables(gens, p, width // 2)
    assert H == p ** (width // 2)
    assert TH.shape[0] == np.unique(gens // H).size and TL.shape[0] == np.unique(gens % H).size
    assert TH.dtype == np.int32 and TL.dtype == np.uint16
    assert TH.shape[0] < gens.size and TL.shape[0] < gens.size
    u = np.array(codes)
    sums = np.take(TH[IH], u // H, axis=1) + np.take(TL[IL], u % H, axis=1)
    for g, row in zip(gens.tolist(), sums.tolist()):
        expected = [sum((a + b) % p * p**j for j, (a, b) in enumerate(zip(digits(c), digits(g))))
                    for c in codes]
        assert row == expected, g


@pytest.mark.parametrize("size", [1, 3, 50])
def test_translated_chunks_are_every_code_plus_every_generator(monkeypatch, size):
    # blocks come slice by slice, each slice's generators in order, so every
    # (frontier code, generator) sum is yielded exactly once and equals
    # code + g digit-wise; 50 codes with _PULL_CHUNK set to the table rows
    # force frontier slices of 4 codes and, at rows=3, blocks of one
    # generator
    p, k = 3, 3
    gens, width = rank_strata.simple_tensor_codes(FieldSpec(p), k), 1 << k
    TH, IH, TL, IL, H = rank_strata._tables(gens, p, width // 2)
    rows_total = TH.shape[0] + TL.shape[0]
    rows = 7
    if size == 50:
        monkeypatch.setattr(rank_strata, "_PULL_CHUNK", rows_total)
        rows = 3
    frontier = np.array(random.Random(size).sample(range(p**width), size))

    def digitwise(c, g):
        return sum((c // p**j % p + g // p**j % p) % p * p**j for j in range(width))

    seen, slices, blocks, start, g = [], set(), set(), 0, 0
    for sums in rank_strata._translated(frontier, TH, IH, TL, IL, H, rows):
        assert sums.dtype == np.int32 and rows_total * sums.shape[1] <= 4 * rank_strata._PULL_CHUNK
        codes = frontier[start : start + sums.shape[1]].tolist()
        slices.add((start, len(codes)))
        blocks.add(sums.shape[0])
        for i, row in enumerate(sums.tolist()):
            assert row == [digitwise(c, int(gens[g + i])) for c in codes], (g + i, codes)
            seen += [(c, g + i) for c in codes]
        g += sums.shape[0]
        if g == gens.size:
            start, g = start + len(codes), 0
    assert sorted(seen) == sorted(product(frontier.tolist(), range(gens.size)))
    if size == 50:
        assert len(slices) == 13 and blocks == {1}
    else:
        assert len(slices) == 1 and max(blocks) == max(1, rows // size)


@pytest.mark.parametrize("p, k", [(2, 3), (3, 3), (5, 3), (7, 3), (2, 4), (3, 4), (5, 4), (7, 4)])
def test_simple_tensor_codes_build_each_simple_tensor_once(p, k):
    # (p + 1)^k points of P^1 times p - 1 scalars, strictly ascending; where
    # (p^2 - 1)^k tuples are few, equal to every a1 (x) ... (x) ak over
    # nonzero vectors, in pure Python
    codes = rank_strata.simple_tensor_codes(FieldSpec(p), k)
    assert codes.dtype == np.int64 and codes.size == (p + 1) ** k * (p - 1)
    assert (np.diff(codes) > 0).all()
    if (p * p - 1) ** k > 20000:
        return
    vecs = [v for v in product(range(p), repeat=2) if any(v)]
    brute = {
        encode(Tensor(FieldSpec(p), tuple(prod(a[t >> (k - 1 - i) & 1] for i, a in enumerate(factors)) % p
                                          for t in range(1 << k))))
        for factors in product(vecs, repeat=k)
    }
    assert codes.tolist() == sorted(brute)


def test_decompose_rank1():
    s = symmetric_rank_strata(F2, 3)
    w = decompose(symmetric_outer_power((1, 0), 3, F2), s)
    assert w.vectors == ((1, 0),)


def test_decompose_rank2_example():
    s = symmetric_rank_strata(F2, 3)
    X = sym(F2, (0, 1, 1, 1))  # flattened [0,1,1,1,1,1,1,1]
    w = decompose(X, s)
    assert set(w.vectors) == {(1, 1), (1, 0)}


def test_decompose_undecomposable_raises():
    s = symmetric_rank_strata(F2, 3)
    with pytest.raises(UndecomposableError):
        decompose(sym(F2, (0, 1, 0, 0)), s)


def test_decompose_rejects_corrupt_parent_link():
    s = symmetric_rank_strata(F3, 3)  # fresh: the rank table is mutated below
    code = int(np.flatnonzero(s._rank_of == 2)[0])
    X = compact_decode(code, F3, 3).full()
    s._rank_of[s._rank_of == 1] = -1  # a rank-2 code now has no predecessor
    with pytest.raises(AssertionError, match="no predecessor one rank lower"):
        decompose(X, s)
    with pytest.raises(AssertionError, match="no predecessor one rank lower"):
        s.parent_of(X)


def run_python(*args):
    """Stdout of a fresh interpreter that imports this symcanon."""
    path = [str(Path(symcanon.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_corrupt_parent_link_detected_under_python_O():
    # python -O strips assert statements; decompose must still refuse
    script = """
import numpy as np
from symcanon import FieldSpec, decompose, symmetric_rank_strata
from symcanon.tensor import compact_decode
f = FieldSpec(3)
s = symmetric_rank_strata(f, 3)
code = int(np.flatnonzero(s._rank_of == 2)[0])
s._rank_of[s._rank_of == 1] = -1
try:
    decompose(compact_decode(code, f, 3).full(), s)
except AssertionError as exc:
    print("raised:", exc)
"""
    out = run_python("-O", "-c", script)
    assert out.startswith("raised:") and "no predecessor one rank lower; rank table corrupt" in out


def test_decompose_resums_everywhere_small():
    # independent re-evaluation of every witness over F_3, order 3
    s = symmetric_rank_strata(F3, 3)
    for code in range(81):
        X = compact_decode(code, F3, 3).full()
        w = decompose(X, s)
        assert len(w.vectors) == symmetric_rank(X, s)
        total = [0] * 8
        for v in w.vectors:
            term = symmetric_outer_power(v, 3, F3)
            total = [(a + b) % 3 for a, b in zip(total, term.entries)]
        assert tuple(total) == X.entries


def test_rank_changes_by_at_most_one_when_adding_rank1():
    rng = random.Random(99)
    f = FieldSpec(5)
    s = symmetric_rank_strata(f, 3)
    gens = [vec for _, vec in rank_one_generators(f, 3)]
    for _ in range(300):
        code = rng.randrange(5**4)
        X = compact_decode(code, f, 3).full()
        rX = symmetric_rank(X, s)
        v = rng.choice(gens)
        term = symmetric_outer_power(v, 3, f)
        Y = sym(f, tuple((a + b) % 5 for a, b in
                         zip([X.entries[t] for t in (0, 1, 3, 7)],
                             [term.entries[t] for t in (0, 1, 3, 7)])))
        rY = symmetric_rank(Y, s)
        assert abs(rX - rY) <= 1


def test_budget_refusals():
    with pytest.raises(BudgetExceededError):
        general_rank_strata(FieldSpec(7), 4)  # 7^16 codes
    with pytest.raises(BudgetExceededError):
        general_rank_strata(FieldSpec(11), 3)  # 11^8 > default budget
    with pytest.raises(BudgetExceededError):
        symmetric_rank_strata(FieldSpec(17), 3, budget=1000)


# SHA-256 of the general _rank_of, recorded from the FFT sumset search that
# the push/pull layered search replaced.
PINNED_GENERAL_SHA256 = {
    (2, 3): "d6bc865ee17a2e9a492113d134fb35de3ff953a42e111c67e662299c08603847",
    (3, 3): "0beb68258fa11de69be797476b438a21ed8d2cd7407cbbf50e36c94f570f7989",
    (5, 3): "7c4d8ac211ae3a1bdb1b99a435c99191268625928be04dc680201ed8d9b1e377",
    (7, 3): "f9a5d7544f0a7a77364a953e1616ad50f7eeb6fe42906f1d2f62972b9fd4fb5c",
    (2, 4): "cf887880f4634f49988e8c98ed44c9b27c45746c2cce0bdc2b73357125fdbfce",
    (3, 4): "689055095fb2940d9de5e8c6e950486ac9142c84d2d24a969b41f7c7447ffd3d",
}


def general_sha256(g):
    return hashlib.sha256(g._rank_of.tobytes()).hexdigest()


def test_general_rank_of_pinned(general_for):
    for (p, k), expected in PINNED_GENERAL_SHA256.items():
        g = general_for(p, k)
        assert g._rank_of.dtype == np.int8
        assert general_sha256(g) == expected, (p, k)


@pytest.mark.parametrize("p, k, bound_mib", [(7, 3, 10), (3, 4, 24)])
def test_general_search_bytes_beyond_the_rank_table(monkeypatch, p, k, bound_mib):
    # the int8 rank table takes p^(2^k) bytes; everything else the search
    # allocates at once (translation tables, int32 representatives, pull
    # blocks, closure chunks, the shift) must stay within a fixed budget on
    # top.  A pull adds at most 6 MiB to what is live before it: the int32
    # halves of _PULL_CHUNK // 4 candidates (0.5 MiB), the table rows of one
    # block of at most 64 generators (2.4 MiB at (3,4)) and its at most
    # _PULL_CHUNK tests (1 MiB of int32 sums, half that for the uint16 gather
    # and for the two masks)
    peaks, pulls, real_pull = [], [], rank_strata._pull

    def pull(*args):
        live, peak = tracemalloc.get_traced_memory()
        peaks.append(peak)
        tracemalloc.reset_peak()
        real_pull(*args)
        pulls.append(tracemalloc.get_traced_memory()[1] - live)

    monkeypatch.setattr(rank_strata, "_pull", pull)
    tracemalloc.start()
    try:
        general_rank_strata(FieldSpec(p), k)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    above = max(peaks) - p ** (1 << k)
    assert above < bound_mib << 20, (p, k, above / 2**20)
    assert pulls and max(pulls) < 6 << 20, (p, k, max(pulls, default=0) / 2**20)


def is_mode1_rref(code, p, k):
    """Whether [u1; u2], the matrix of the code's two mode-1 slices, is
    nonzero and in reduced row echelon form."""
    m = 1 << (k - 1)
    rows = [decode(half, FieldSpec(p), k - 1).entries for half in divmod(int(code), p**m)]
    j1, j2 = (next((j for j, x in enumerate(row) if x), None) for row in rows)
    if j1 is None or rows[0][j1] != 1:
        return False
    return j2 is None or (rows[1][j2] == 1 and j2 > j1 and rows[0][j2] == 0)


def test_general_sizes_are_the_layer_counts(general_for):
    # layer sizes are summed from class sizes; they must count the table
    for p, k in PINNED_GENERAL_SHA256:
        g = general_for(p, k)
        assert g.sizes == [int(np.count_nonzero(g._rank_of == r)) for r in range(len(g.sizes))], (p, k)
        assert sum(g.sizes) == p ** (1 << k), (p, k)


def mode1_reps(p, k):
    """All representatives of the mode-1 classes, as _mode1_classes gives them."""
    return rank_strata._mode1_classes(p, 1 << (k - 1))[0]


@pytest.mark.parametrize("settings", [
    {"_PUSH_FACTOR": 0},                          # every layer pulls
    {"_PUSH_FACTOR": 10**18},                     # every layer pushes
    {"_PULL_CHUNK": 400},                         # many chunks per layer
], ids=["all-pull", "all-push", "small-chunks"])
def test_general_search_directions_and_chunks(monkeypatch, settings):
    for name, value in settings.items():
        monkeypatch.setattr(rank_strata, name, value)
    # one log in call order; a closure also keeps, as they were before the
    # call, the ranks of the codes it closes and of every representative
    calls, reps = [], None
    # a pull gathers the high-table rows of a generator block, then takes
    # the columns of its codes: each take records the pairs the block tests
    pairs = []

    class Rows(np.ndarray):
        def take(self, indices, axis=None, out=None, mode="raise"):
            pairs.append(self.shape[0] * indices.size)
            return np.asarray(self).take(indices, axis, out, mode)

    for name in ("_push", "_pull", "_close"):
        real = getattr(rank_strata, name)

        def spy(*args, real=real, name=name):
            kept = ()
            if name == "_close":
                codes, rank_of = args[4], args[-1]
                kept = (rank_of[codes].copy(), rank_of[reps].copy())
            calls.append((name, args + kept))
            if name == "_pull":
                tables = args[2]
                args = args[:2] + ((tables[0].view(Rows),) + tables[1:],) + args[3:]
            return real(*args)

        monkeypatch.setattr(rank_strata, name, spy)
    # the size of every slice the shift after a marked closure updates
    shifts, real_shift = [], rank_strata._shift

    def shift(part, by):
        shifts.append(part.size)
        real_shift(part, by)

    monkeypatch.setattr(rank_strata, "_shift", shift)
    all_pull, all_push = settings.get("_PUSH_FACTOR") == 0, settings.get("_PUSH_FACTOR") == 10**18
    # the symmetric strata never enter the loop; their pins under each
    # setting stress the chunks of the parent lookups
    for p, k in [(7, 3), (11, 3), (13, 3), (5, 4), (7, 4)]:
        s = symmetric_rank_strata(FieldSpec(p), k)
        assert strata_sha256(s) == PINNED_STRATA_SHA256[(p, k)], (p, k, settings)
    assert calls == [] and shifts == []
    split_pull = split_close = split_push = split_shift = pulled = False
    for p, k in [(2, 3), (3, 3), (5, 3), (2, 4)]:
        calls.clear()
        shifts.clear()
        reps = mode1_reps(p, k)
        g = general_rank_strata(FieldSpec(p), k)
        assert general_sha256(g) == PINNED_GENERAL_SHA256[(p, k)], (p, k, settings)
        names = [name for name, _ in calls]
        # one push or pull per layer past the generators, and a closure
        # right after each pull
        assert names.count("_push") + names.count("_pull") == len(g.sizes) - 2
        assert all(names[i + 1 : i + 2] == ["_close"] for i, name in enumerate(names) if name == "_pull")
        if all_pull:
            assert "_push" not in names
        if all_push:
            assert "_pull" not in names
        step = max(1, rank_strata._PULL_CHUNK // len(gl2(p)))
        direction = frontier = None
        for i, (name, args) in enumerate(calls):
            if name != "_close":
                # pushes start from representatives, pulls test only those
                assert args[0].dtype == np.int32
                assert all(is_mode1_rref(c, p, k) for c in args[0].tolist()), (p, k, name)
                direction, frontier = name, args[0]
                split_pull |= name == "_pull" and args[0].size > rank_strata._PULL_CHUNK // 4
                continue
            _, _, _, _, codes, r, _, before, side = args
            split_close |= codes.size > max(1, rank_strata._PULL_CHUNK // len(gl2(p)))
            if direction == "_push":
                # a push closes the classes of unranked sums, in bounded steps
                assert (before == -1).all() and r >= 2, (p, k, r)
                assert codes.size <= max(step, frontier.size), (p, k, r)
                split_push |= names[i - 1] == "_close"
                continue
            # exactly one closure follows each pull: the representatives it
            # left unranked, every one of them, marked -r - 2 for the pull's
            # rank r
            assert names[i - 1] == "_pull" and names[i + 1 : i + 2] != ["_close"], (p, k, r)
            assert all(is_mode1_rref(c, p, k) for c in codes.tolist())
            assert r == -calls[i - 1][1][1] - 2 and (before == -1).all(), (p, k, r)
            assert codes.size == np.count_nonzero(side == -1), (p, k, r)
            pulled = True
        # each pull is followed by one marked closure and one shift of the
        # whole space, in slices of at most _PULL_CHUNK codes
        marked = sum(name == "_close" and args[5] < 0 for name, args in calls)
        assert marked == names.count("_pull"), (p, k)
        assert sum(shifts) == marked * p ** (1 << k) and max(shifts, default=0) <= rank_strata._PULL_CHUNK
        split_shift |= len(shifts) > marked
    assert max(pairs, default=0) <= rank_strata._PULL_CHUNK
    if "_PULL_CHUNK" in settings:
        assert split_pull and split_close and split_push and split_shift
        assert max(pairs) == rank_strata._PULL_CHUNK  # 4 generators x 100 codes
    # every setting but all-push pulls at least once
    assert pulled != all_push


def gaussian_binomial_2(p, m):
    """Number of 2-dimensional subspaces of F_p^m."""
    return (p**m - 1) * (p ** (m - 1) - 1) // ((p * p - 1) * (p - 1))


def mode1_orbit(code, p, k):
    X = decode(int(code), FieldSpec(p), k)
    return {encode(act(g, X, 1)) for g in gl2(p)}


@pytest.mark.parametrize("p, k, count", [(2, 3, 50), (3, 3, 170), (2, 4, 11050), (3, 4, 899540)])
def test_mode1_representatives_are_a_transversal(p, k, count):
    # one representative per nonzero subspace span(X1, X2) of dimension 1 or 2
    m = 1 << (k - 1)
    reps = mode1_reps(p, k)
    assert reps.dtype == np.int32  # every code is below 2^31
    assert reps.size == len(set(reps.tolist())) == count
    assert count == (p**m - 1) // (p - 1) + gaussian_binomial_2(p, m)
    # the class sizes _layered_search counts, p^2 - 1 for u2 = 0 and |GL2|
    # otherwise, sum to the nonzero codes
    sizes = np.where(reps % p**m == 0, p * p - 1, (p * p - 1) * (p * p - p))
    assert sizes.sum() == p ** (2 * m) - 1
    if (p, k) == (3, 4):
        return  # 43 M codes: the count only
    # disjoint orbits of those sizes covering every nonzero code: one
    # representative per class
    seen = set()
    for rep, size in zip(reps, sizes.tolist()):
        orbit = mode1_orbit(rep, p, k)
        assert seen.isdisjoint(orbit) and len(orbit) == size, rep
        seen |= orbit
    assert seen == set(range(1, p ** (1 << k)))


@pytest.mark.parametrize("chunk", [None, 100], ids=["default-chunks", "small-chunks"])
@pytest.mark.parametrize("p, k", [(2, 3), (3, 3)])
def test_mode1_closure_writes_exactly_the_orbit(monkeypatch, p, k, chunk):
    # a push closes the class of any code, not only of a representative:
    # every nonzero code at (2,3), a seeded sample at (3,3), and every
    # representative, in one closure that small chunks split
    reps, close, _ = rank_strata._mode1_classes(p, 1 << (k - 1))
    if chunk is not None:
        monkeypatch.setattr(rank_strata, "_PULL_CHUNK", chunk)
        assert reps.size > max(1, chunk // len(gl2(p)))
    space = p ** (1 << k)
    codes = range(1, space) if p == 2 else random.Random(1209).sample(range(1, space), 200)
    for code in sorted({*codes, *reps.tolist()}):
        rank_of = np.full(space, -1, dtype=np.int8)
        close(np.array([code]), 3, rank_of)
        assert set(np.flatnonzero(rank_of != -1).tolist()) == mode1_orbit(code, p, k), code
    rank_of = np.full(space, -1, dtype=np.int8)
    close(reps, 2, rank_of)
    assert rank_of[0] == -1 and (rank_of[1:] == 2).all()


def test_mode1_closure_bytes_stay_within_one_chunk():
    # a closure works in chunks of _PULL_CHUNK // |GL2| codes, whose orbits
    # take _PULL_CHUNK int32 codes (1 MiB), however many codes it closes:
    # here all 3 250 representatives at (7,3), 6.5 M codes
    close = rank_strata._mode1_classes(7, 4)[1]
    reps = mode1_reps(7, 3)
    rank_of = np.full(7**8, -1, dtype=np.int8)
    tracemalloc.start()
    try:
        close(reps, 2, rank_of)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reps.size == 3250 and rank_of[0] == -1 and (rank_of[1:] == 2).all()
    assert peak < 4 << 20, peak / 2**20


def in_R(gen_codes, p, k):
    """Whether each simple tensor code lies in R: u2 = 0, or u1 = 0 and the
    leading nonzero digit of u2 is 1."""
    def monic(u):
        while u >= p:
            u //= p
        return u == 1

    halves = (divmod(int(g), p ** (1 << (k - 1))) for g in gen_codes)
    return [u2 == 0 or (u1 == 0 and monic(u2)) for u1, u2 in halves]


@pytest.mark.parametrize("p, k", [(2, 3), (3, 3), (5, 3), (2, 4), (3, 4)])
def test_push_generators_are_one_per_stabilizer_orbit(monkeypatch, p, k):
    # S = {[[1, b], [0, d]]} fixes every (u1, 0) on mode 1; the generators a
    # u2 = 0 representative takes, as the search hands them to every push,
    # hold exactly one simple tensor of each S-orbit, by brute force over S
    # with act, and the orbits stay simple
    passed, real_push = [], rank_strata._push

    def push(*args):
        passed.append(args[-1].tolist())
        return real_push(*args)

    monkeypatch.setattr(rank_strata, "_push", push)
    general_rank_strata(FieldSpec(p), k)
    assert passed and all(one_per_orbit == passed[0] for one_per_orbit in passed), (p, k)
    gens, R = rank_strata.simple_tensor_codes(FieldSpec(p), k), np.array(passed[0])
    assert R.tolist() == np.flatnonzero(in_R(gens, p, k)).tolist()
    assert R.size == p * (p + 1) ** (k - 1)
    members, simple = set(gens[R].tolist()), set(gens.tolist())
    S = [g for g in gl2(p) if g.m[0][0] == 1 and g.m[1][0] == 0]
    assert len(S) == p * (p - 1)
    for g in gens.tolist():
        orbit = {encode(act(A, decode(g, FieldSpec(p), k), 1)) for A in S}
        assert orbit <= simple and len(orbit & members) == 1, g


@pytest.mark.parametrize("push_factor", [None, 10**18], ids=["default", "all-push"])
def test_push_sends_u2_zero_representatives_through_R_last(monkeypatch, push_factor):
    # each push translates its representatives in two passes: those with
    # u2 != 0 by every generator, then those with u2 = 0 by R only; the
    # generators of a pass are read back from column 0 of its tables
    if push_factor is not None:
        monkeypatch.setattr(rank_strata, "_PUSH_FACTOR", push_factor)
    pushes, real_push, real_translated = [], rank_strata._push, rank_strata._translated

    def push(*args):
        pushes.append((args[0], []))
        return real_push(*args)

    def translated(frontier, TH, IH, TL, IL, H, rows):
        if pushes:
            pushes[-1][1].append((frontier, (TH[IH, 0] + TL[IL, 0]).tolist(), H))
        return real_translated(frontier, TH, IH, TL, IL, H, rows)

    monkeypatch.setattr(rank_strata, "_push", push)
    monkeypatch.setattr(rank_strata, "_translated", translated)
    for p, k in [(2, 3), (3, 3), (5, 3), (2, 4)]:
        pushes.clear()
        g = general_rank_strata(FieldSpec(p), k)
        assert general_sha256(g) == PINNED_GENERAL_SHA256[(p, k)], (p, k)
        gens = rank_strata.simple_tensor_codes(FieldSpec(p), k)
        R = [c for c, keep in zip(gens.tolist(), in_R(gens, p, k)) if keep]
        assert pushes and (not push_factor or len(pushes) == len(g.sizes) - 2), (p, k)
        for frontier, passes in pushes:
            assert [gen for _, gen, _ in passes] == [gens.tolist(), R], (p, k)
            (others, _, H), (fixed, _, _) = passes
            assert (others % H != 0).all() and (fixed % H == 0).all(), (p, k)
            assert sorted(others.tolist() + fixed.tolist()) == sorted(frontier.tolist()), (p, k)
        assert pushes[0][1][1][0].size > 0, (p, k)  # the generators (u1, 0) start layer 2


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_general_rank_k3_matches_closed_form(general_for, p):
    H = p**4
    oracle = general_rank_k3(np.arange(H)[:, None], np.arange(H), p)
    assert oracle.tobytes() == general_for(p, 3)._rank_of.tobytes()


def swap_modes(X, i, j):
    bi, bj = 1 << (X.order - i), 1 << (X.order - j)

    def swapped(t):
        rest = t & ~(bi | bj)
        return rest | (bj if t & bi else 0) | (bi if t & bj else 0)

    return Tensor(X.field, tuple(X.entries[swapped(t)] for t in range(1 << X.order)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_general_rank_invariant_under_every_mode_and_mode_swaps(general_for, data):
    # the search builds in the mode-1 action only; the other modes and the
    # mode permutations are an independent check of its ranks
    p, k = data.draw(st.sampled_from([(3, 3), (2, 4), (3, 4)]))
    g = general_for(p, k)
    entries = data.draw(st.lists(st.integers(0, p - 1), min_size=1 << k, max_size=1 << k))
    X = Tensor(FieldSpec(p), tuple(entries))
    r = g.rank_of(X)
    for mode in range(1, k + 1):
        assert g.rank_of(act(data.draw(st.sampled_from(gl2(p))), X, mode)) == r, mode
    i, j = data.draw(st.sampled_from(list(combinations(range(1, k + 1), 2))))
    assert g.rank_of(swap_modes(X, i, j)) == r, (i, j)


def test_int32_code_limit_refused_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("generators built for a refused space")

    monkeypatch.setattr(rank_strata, "simple_tensor_codes", no_work)
    monkeypatch.setattr(rank_strata, "rank_one_generators", no_work)
    with pytest.raises(BudgetExceededError, match="int32"):
        general_rank_strata(FieldSpec(17), 3, budget=10**10)  # 17^8 ~ 7.0e9 codes
    with pytest.raises(BudgetExceededError, match="int32"):
        symmetric_rank_strata(FieldSpec(79), 4, budget=10**10)  # 79^5 ~ 3.1e9 codes


def test_import_does_not_load_scipy():
    script = "import sys, symcanon; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert run_python("-c", script).strip() == "[]"


def test_hot_paths_import_nothing_lazily():
    # a module first imported inside a search (numpy.ma, by a plain np.unique
    # on numpy 2) costs every fresh process; numpy 1.24 imports numpy.ma
    # with numpy, so only new modules count
    script = """
import sys
from symcanon import FieldSpec, classify, decompose, general_rank_strata, symmetric_outer_power, symmetric_rank_strata
before = set(sys.modules)
f = FieldSpec(2)
general_rank_strata(f, 3)
classify(f, 3)
decompose(symmetric_outer_power((1, 1), 3, f), symmetric_rank_strata(f, 3))
print(sorted(set(sys.modules) - before))
"""
    assert run_python("-c", script).strip() == "[]"


def test_general_strata_small_spaces(general_for):
    g23 = general_for(2, 3)
    assert sum(g23.sizes) == 256 and g23.sizes[0] == 1
    g33 = general_for(3, 3)
    assert sum(g33.sizes) == 6561
    s = symmetric_rank_strata(F3, 3)
    for code in range(81):
        X = compact_decode(code, F3, 3).full()
        assert g33.rank_of(X) <= symmetric_rank(X, s)


def test_general_rank1_equals_simple_tensors(general_for):
    # stratum 1 of the general search is exactly the decomposable tensors
    g = general_for(2, 3)
    got = set(int(c) for c in g.stratum_codes(1))
    direct = set()
    vecs = [(i, j) for i in range(2) for j in range(2)][1:]
    for a in vecs:
        for b in vecs:
            for c in vecs:
                entries = tuple(
                    a[(t >> 2) & 1] * b[(t >> 1) & 1] * c[t & 1] for t in range(8)
                )
                direct.add(encode(Tensor(F2, entries)))
    assert got == direct
    assert g.sizes[1] == len(direct) == 27


@lru_cache(maxsize=None)
def gl2(p):
    return enumerate_gl2(FieldSpec(p))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_rank_and_witness_invariant_under_gl2(strata_for, data):
    p, k = data.draw(st.sampled_from(
        [(5, 3), (7, 3), (11, 3), (13, 3), (3, 4), (5, 4), (7, 4)]))
    f = FieldSpec(p)
    s = strata_for(p, k)
    X = compact_decode(data.draw(st.integers(0, p ** (k + 1) - 1)), f, k).full()
    g = data.draw(st.sampled_from(gl2(p)))
    gX = act_diagonal(g, X)
    r = symmetric_rank(X, s)
    assert symmetric_rank(gX, s) == r
    if r is None:  # only p = 3, k = 4 has undecomposable tensors here
        return
    (a, b), (c, d) = g.m
    total = [0] * (1 << k)
    for v1, v2 in decompose(X, s).vectors:
        term = symmetric_outer_power(((a * v1 + b * v2) % p, (c * v1 + d * v2) % p), k, f)
        total = [(x + y) % p for x, y in zip(total, term.entries)]
    assert tuple(total) == gX.entries
