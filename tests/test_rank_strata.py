import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
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


# The same hash beyond the stored tables, recorded before the layer
# expansion became table-driven.
PINNED_STRATA_SHA256_BEYOND_FIXTURES = {
    (19, 3): "0a4f5296bbdf31830fd3a0e35a07f8a1b36b5d47844c6636baad587b1901d7c9",
}


def parent_arrays(s):
    pred = np.full(s._rank_of.size, -1, dtype=np.int64)
    gen = np.full(s._rank_of.size, -1, dtype=np.int32)
    codes = np.flatnonzero(s._rank_of > 0)
    pred[codes], gen[codes] = rank_strata._parents(s, codes, rank_strata._minus_tables(s))
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


def test_parent_links_pinned_beyond_fixtures():
    for (p, k), expected in PINNED_STRATA_SHA256_BEYOND_FIXTURES.items():
        assert strata_sha256(symmetric_rank_strata(FieldSpec(p), k)) == expected, (p, k)


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
    # at 1000 sums per push step and 1000 candidates per pull chunk every
    # large layer spans many steps, and so does each parent lookup
    monkeypatch.setattr(rank_strata, "_PULL_CHUNK", 1000)
    monkeypatch.setattr(rank_strata, "_CHUNK_ROWS", 1000)
    for p, k in [(7, 3), (11, 3), (13, 3), (5, 4), (7, 4)]:
        s = symmetric_rank_strata(FieldSpec(p), k)
        assert strata_sha256(s) == PINNED_STRATA_SHA256[(p, k)], (p, k)


def test_rank_one_generator_counts():
    # distinct symmetric simple tensors = stratum-1 sizes
    assert len(rank_one_generators(FieldSpec(7), 3)) == 16
    assert len(rank_one_generators(FieldSpec(13), 3)) == 56
    assert len(rank_one_generators(FieldSpec(7), 4)) == 24


@pytest.mark.parametrize("kind, p, k", [("general", 3, 3), ("general", 2, 4),
                                         ("symmetric", 5, 3), ("symmetric", 3, 4)])
def test_translation_tables_over_distinct_halves(kind, p, k):
    # the tables keep one row per distinct generator half; gathered through
    # the per-generator indices, every generator and sign must give code +- g
    # digit-wise, checked against pure Python on a seeded sample of codes
    if kind == "general":
        gens, width = rank_strata.simple_tensor_codes(FieldSpec(p), k), 1 << k
    else:
        gens, width = np.array([c for c, _ in rank_one_generators(FieldSpec(p), k)]), k + 1
    space = p**width
    codes = sorted({0, space - 1, *random.Random(1209).sample(range(space), min(space, 200))})

    def digits(c):
        return [c // p**j % p for j in range(width)]

    for sign in (1, -1):
        TH, IH, TL, IL, low = rank_strata._tables(gens, p, width, sign)
        assert TH.shape[0] == np.unique(gens // low).size and TL.shape[0] == np.unique(gens % low).size
        if kind == "general":
            assert TH.shape[0] < gens.size and TL.shape[0] < gens.size
        u = np.array(codes)
        sums = np.take(TH[IH], u // low, axis=1) + np.take(TL[IL], u % low, axis=1)
        for g, row in zip(gens.tolist(), sums.tolist()):
            expected = [sum((a + sign * b) % p * p**j for j, (a, b) in enumerate(zip(digits(c), digits(g))))
                        for c in codes]
            assert row == expected, (sign, g)


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


@pytest.mark.parametrize("p, k, bound_mib", [(7, 3, 24), (3, 4, 48)])
def test_general_search_bytes_beyond_the_rank_table(monkeypatch, p, k, bound_mib):
    # the int8 rank table takes p^(2^k) bytes; everything else the search
    # allocates at once (translation tables, representatives, pull blocks,
    # closure chunks, the shift) must stay within a fixed budget on top.
    # A pull adds at most 16 MiB to what is live before it: the int64 halves
    # of _PULL_CHUNK candidates (4 MiB) and one block of at most
    # 4 * _PULL_CHUNK tests (two int32 arrays of 4 MiB, two 1 MiB masks)
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
    assert pulls and max(pulls) < 16 << 20, (p, k, max(pulls, default=0) / 2**20)


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
    """All representatives of the mode-1 classes, as _mode1_classes selects them."""
    select = rank_strata._mode1_classes(p, 1 << (k - 1))[0]
    return select(np.full(p ** (1 << k), -1, dtype=np.int8), -1)


@pytest.mark.parametrize("settings", [
    {"_PUSH_FACTOR": 0},                          # every layer pulls
    {"_PUSH_FACTOR": 10**18},                     # every layer pushes
    {"_CHUNK_ROWS": 1000, "_PULL_CHUNK": 100},    # many chunks per layer
], ids=["all-pull", "all-push", "small-chunks"])
def test_general_search_directions_and_chunks(monkeypatch, settings):
    for name, value in settings.items():
        monkeypatch.setattr(rank_strata, name, value)
    # one log in call order; a closure also keeps, as they were before the
    # call, the ranks of the codes it closes and of every representative
    calls, reps = [], None
    for name in ("_push", "_pull", "_close"):
        real = getattr(rank_strata, name)

        def spy(*args, real=real, name=name):
            kept = ()
            if name == "_close":
                codes, rank_of = args[4], args[-1]
                kept = (rank_of[codes].copy(), rank_of[reps].copy())
            calls.append((name, args + kept))
            return real(*args)

        monkeypatch.setattr(rank_strata, name, spy)
    # the size of every slice the shift after a marked closure updates
    shifts, real_shift = [], rank_strata._shift

    def shift(part, by):
        shifts.append(part.size)
        real_shift(part, by)

    monkeypatch.setattr(rank_strata, "_shift", shift)
    all_pull, all_push = settings.get("_PUSH_FACTOR") == 0, settings.get("_PUSH_FACTOR") == 10**18
    # one loop serves both rank notions, so each setting checks both pins;
    # the symmetric strata run it on single codes, never on mode-1 classes
    for p, k in [(7, 3), (11, 3), (13, 3), (5, 4), (7, 4)]:
        s = symmetric_rank_strata(FieldSpec(p), k)
        assert strata_sha256(s) == PINNED_STRATA_SHA256[(p, k)], (p, k, settings)
    names = [name for name, _ in calls]
    assert "_close" not in names
    assert ("_push" in names) != all_pull and ("_pull" in names) != all_push
    split_pull = split_close = split_push = split_shift = smaller_side = False
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
                assert all(is_mode1_rref(c, p, k) for c in args[0].tolist()), (p, k, name)
                direction, frontier = name, args[0]
                split_pull |= name == "_pull" and args[0].size > rank_strata._PULL_CHUNK
                continue
            _, _, _, _, codes, r, _, before, side = args
            split_close |= codes.size > rank_strata._CHUNK_ROWS // len(gl2(p))
            if direction == "_push":
                # a push closes the classes of unranked sums, in bounded steps
                assert (before == -1).all() and r >= 2, (p, k, r)
                assert codes.size <= max(step, frontier.size), (p, k, r)
                split_push |= names[i - 1] == "_close"
                continue
            # exactly one closure follows each pull, and it takes the smaller
            # side: the ranked representatives when no more than those left
            # unranked, else the unranked ones, marked -r - 2, when fewer
            assert names[i - 1] == "_pull" and names[i + 1 : i + 2] != ["_close"], (p, k, r)
            assert all(is_mode1_rref(c, p, k) for c in codes.tolist())
            if r >= 0:
                assert (before == r).all(), (p, k, r)
                assert codes.size == np.count_nonzero(side == r) <= np.count_nonzero(side == -1), (p, k, r)
            else:
                assert (before == -1).all(), (p, k, r)
                assert codes.size == np.count_nonzero(side == -1) < np.count_nonzero(side == -r - 2), (p, k, r)
                smaller_side = True
        # each marked closure is followed by one shift of the whole space, in
        # slices of at most _CHUNK_ROWS codes
        marked = sum(name == "_close" and args[5] < 0 for name, args in calls)
        assert sum(shifts) == marked * p ** (1 << k) and max(shifts, default=0) <= rank_strata._CHUNK_ROWS
        split_shift |= len(shifts) > marked
    if "_CHUNK_ROWS" in settings:
        assert split_pull and split_close and split_push and split_shift
    # the last layer leaves no representative unranked, so every setting
    # that pulls closes the unranked side at least once
    assert smaller_side != all_push


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
    assert reps.size == len(set(reps.tolist())) == count
    assert count == (p**m - 1) // (p - 1) + gaussian_binomial_2(p, m)
    # the class sizes sum to the nonzero codes
    assert rank_strata._mode1_classes(p, m)[1](reps) == p ** (2 * m) - 1
    if (p, k) == (3, 4):
        return  # 43 M codes: the count only
    # disjoint orbits covering every nonzero code: one representative per class
    seen = set()
    for rep in reps:
        orbit = mode1_orbit(rep, p, k)
        assert seen.isdisjoint(orbit), rep
        seen |= orbit
    assert seen == set(range(1, p ** (1 << k)))


@pytest.mark.parametrize("chunk_rows", [None, 1000], ids=["default-chunks", "small-chunks"])
@pytest.mark.parametrize("p, k", [(2, 3), (3, 3)])
def test_mode1_closure_writes_exactly_the_orbit(monkeypatch, p, k, chunk_rows):
    # a push closes the class of any code, not only of a representative:
    # every nonzero code at (2,3), a seeded sample at (3,3), and every
    # representative
    if chunk_rows is not None:
        monkeypatch.setattr(rank_strata, "_CHUNK_ROWS", chunk_rows)
    close = rank_strata._mode1_classes(p, 1 << (k - 1))[3]
    reps = mode1_reps(p, k)
    space = p ** (1 << k)
    codes = range(1, space) if p == 2 else random.Random(1209).sample(range(1, space), 200)
    for code in sorted({*codes, *reps.tolist()}):
        rank_of = np.full(space, -1, dtype=np.int8)
        close(np.array([code]), 3, rank_of)
        assert set(np.flatnonzero(rank_of != -1).tolist()) == mode1_orbit(code, p, k), code
    rank_of = np.full(space, -1, dtype=np.int8)
    close(reps, 2, rank_of)
    assert rank_of[0] == -1 and (rank_of[1:] == 2).all()


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
