"""One tensor's symmetric rank and least derivation from the points of P^1
(apolar.symmetric_rank and decompose), checked against the rank table
of the whole space, which the orbit labels give, and against the printed
tables."""

import random
from itertools import product
from math import comb

import numpy as np
import pytest

from symcanon import (FieldSpec, SymTensor, Tensor, classify, decompose, full_from_compact, is_symmetric,
                      load_fixture, symmetric_rank)
from symcanon import apolar
from symcanon.apolar import _point_table

from conftest import ALL_PAIRS, compact_decode, parent_of

# the stored pairs whose spaces hold at most about 30 000 codes
SMALL_PAIRS = [(p, k) for p, k in ALL_PAIRS if p ** (k + 1) <= 30000]
BEYOND_FIXTURES = [(19, 3), (23, 3), (11, 4), (13, 4)]


@pytest.mark.parametrize("p, k", SMALL_PAIRS)
def test_rank_of_every_code_matches_the_strata(strata_for, p, k):
    f, s = FieldSpec(p), strata_for(p, k)
    ranks = [symmetric_rank(full_from_compact(compact_decode(code, f, k))) for code in range(p ** (k + 1))]
    assert ranks == [None if r < 0 else r for r in s._rank_of.tolist()]


@pytest.mark.parametrize("p, k", ALL_PAIRS + BEYOND_FIXTURES)
def test_rank_of_every_orbit_matches_the_classification(classification_for, p, k):
    f = FieldSpec(p)
    rep = classification_for(p, k) if (p, k) in ALL_PAIRS else classify(f, k)
    for r in rep.all_records():
        assert symmetric_rank(SymTensor(f, r.canonical)) == r.rank, r


def test_rank_of_every_symmetric_printed_row():
    # from the printed digits alone; the other two printed rows are the
    # asymmetric ones of erratum F2K4-SIZES
    rows = 0
    for p, k in ALL_PAIRS:
        f = FieldSpec(p)
        for row in load_fixture(p, k).rows:
            if is_symmetric(Tensor(f, row.canonical)):
                rows += 1
                assert symmetric_rank(SymTensor(f, row.canonical)) == row.rank, (p, k, row)
    assert rows == 167


def derivation_chain(s, X):
    """The witness vectors the whole-space table derives: parent links from
    X down to zero, first link last."""
    vectors = []
    while (link := parent_of(s, X)) is not None:
        X, v = link
        vectors.append(v)
    return tuple(reversed(vectors))


@pytest.mark.parametrize("p, k", ALL_PAIRS + [(13, 4)])
def test_decompose_follows_the_least_derivation(strata_for, p, k):
    # a seeded sample of up to 12 codes of every rank, so the highest ranks
    # (k + 2 and, at (5,4), up to 10) are always in it
    f, s = FieldSpec(p), strata_for(p, k)
    rng = random.Random(1209)
    for r in range(s.max_rank + 1):
        codes = np.flatnonzero(s._rank_of == r).tolist()
        for code in rng.sample(codes, min(12, len(codes))):
            X = full_from_compact(compact_decode(code, f, k))
            assert decompose(X).vectors == derivation_chain(s, X), (p, k, code)


def test_points_weights_and_generators():
    # K = F_p^* exactly when gcd(k, p - 1) = 1, and then every nonzero
    # coefficient costs one term; no coefficient costs more than gcd(k, p - 1)
    # terms (Cauchy-Davenport); the multiples lam c(P), lam in K, are the
    # simple tensors, each once, and each keeps its least vector's index
    for p, k in ALL_PAIRS + BEYOND_FIXTURES:
        t = _point_table(p, k)
        assert len(t.cols) == p + 1, (p, k)
        assert len(t.slots) == len(t.points) == (k + 1) * comb(p + 1, k + 1), (p, k)
        assert (t.w[1:] == [1] * (p - 1)) == (t.g == 1) and max(t.w) <= t.g, (p, k)
        multiples = {tuple(lam * x % p for x in col) for col in t.cols for lam in t.K}
        index_of, vectors = t.generators
        assert len(multiples) == (p + 1) * len(t.K) == len(index_of) == len(vectors), (p, k)
        for index, (v1, v2) in enumerate(vectors):
            coeffs = tuple(pow(v1, k - j, p) * pow(v2, j, p) % p for j in range(k + 1))
            assert coeffs in multiples, (p, k, v1, v2)
            assert index_of[sum(x * p ** (k - j) for j, x in enumerate(coeffs))] == index, (p, k, v1, v2)


@pytest.mark.parametrize("p, k", [(5, 3), (5, 4)])
def test_supports_of_k_plus_2_points_and_more(p, k):
    # by brute force over every solution with no zero coefficient on 6
    # points, or at (5,3) on 5 or 6; the cost of a coefficient m is m at
    # (5,4), where K = {1}, and 1 at (5,3), where K = F_5^*
    t = _point_table(p, k)
    best = {}
    for mu in product(range(p), repeat=p + 1):
        if sum(map(bool, mu)) >= k + 2:
            c = tuple(sum(m * col[j] for m, col in zip(mu, t.cols)) % p for j in range(k + 1))
            best[c] = min(best.get(c, 99), sum(mu) if k == 4 else sum(map(bool, mu)))
    for c in product(range(p), repeat=k + 1):
        assert apolar._supports(c, t, 99, 10**6) == best.get(c, 99), c


def test_decompose_through_k_plus_2_points(strata_for):
    # 84 of the 14 118 tensors of rank 6 at (13,4) take the first step of
    # their least derivation through a solution on k + 2 = 6 points, which
    # no basis gives: four of them
    f, s = FieldSpec(13), strata_for(13, 4)
    for code in (60153, 61222, 62094, 62506):
        X = full_from_compact(compact_decode(code, f, 4))
        assert symmetric_rank(X) == 6
        assert decompose(X).vectors == derivation_chain(s, X), code
