"""Layered generation of rank strata.

Symmetric strata: stratum 1 is the set of distinct symmetric simple
tensors a^(x)k over nonzero a; stratum r+1 collects the sums X + Y with
X in stratum r and Y in stratum 1 that have not appeared in any earlier
stratum.  The search runs on compact codes (the k+1 class coefficients
add coefficient-wise) and stops once every code is ranked or a layer
comes out empty; whatever is never reached has no symmetric
decomposition.  Adding a generator acts digit-wise, so it translates the
high and the low half of a code on their own: per-generator tables of
translated halves make each candidate two gathers and one add.

Each new tensor records one derivation, the minimum (predecessor code,
generator index) pair over its layer: all candidates are scatter-mined
into one array over all codes, then codes ranked earlier are cleared.
Generators are ordered by their least generating vector, so witnesses
are reproducible across runs.

General (unconstrained) strata layer the full p^(2^k) space of split
full codes from the simple tensors a1 (x) ... (x) ak by a direction-
optimizing search (Beamer, Asanovic and Patterson, SC'12): push frontier
+ generators while the frontier is small, pull once it is dense (an
unranked u is ranked if some u - g lies in the previous layer).  The
simple tensors are closed under negation, so {u - g} = {u + g} and one
pair of tables serves both.  A budget caps the space (e.g. p = 7, k = 4
with ~3.3e13 codes fails explicitly); codes are int32, so spaces beyond
2^31 codes are refused whatever the budget.  Only per-layer sizes and a
rank lookup table are retained for the general case.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import AsymmetricTensorError, BudgetExceededError, UndecomposableError
from .gfp import FieldSpec
from .tensor import (
    compact_decode,
    compact_encode,
    compact_from_full,
    compact_weights,
    digits_of_codes,
    encode,
    full_place_values,
    is_symmetric,
    symmetric_outer_power,
)

DEFAULT_BUDGET = 10**8

# (frontier code, generator) candidates per chunk of a layer expansion
_CHUNK_ROWS = 1 << 22
_MAX_CODES = 1 << 31  # translation tables hold int32 codes

# general strata push iff |frontier| * G <= _PUSH_FACTOR * |unranked| and
# pull _PULL_CHUNK unranked codes at a time
_PUSH_FACTOR = 10
_PULL_CHUNK = 1 << 18


@dataclass(frozen=True)
class Witness:
    """Vectors whose symmetric outer powers sum to the decomposed tensor."""

    vectors: tuple  # ((v1, v2), ...), length == symmetric rank


@dataclass
class RankStratification:
    """Symmetric-rank layers of all p^(k+1) symmetric tensors.

    strata[r] holds the full tensor codes of symmetric rank r, sorted
    ascending; undecomposable holds the codes never reached.  Parent
    links live on compact codes internally; parent_of exposes them.
    """

    field: FieldSpec
    order: int
    strata: list                 # list of sorted int64 arrays of full codes
    undecomposable: np.ndarray   # sorted int64 array of full codes
    generator_vectors: list      # vector per generator, BFS tie-break order
    _rank_of: np.ndarray = dataclass_field(repr=False, default=None)
    _parent_pred: np.ndarray = dataclass_field(repr=False, default=None)
    _parent_gen: np.ndarray = dataclass_field(repr=False, default=None)

    @property
    def max_rank(self):
        return len(self.strata) - 1

    def stratum_sizes(self):
        return [int(s.size) for s in self.strata]

    def rank_of_compact_code(self, code):
        r = int(self._rank_of[code])
        return None if r < 0 else r

    def parent_of(self, X):
        """One recorded derivation: (predecessor SymTensor, generator vector).

        None for the zero tensor; errors on undecomposable input.
        """
        code = _compact_code_of(X, self)
        if code == 0:
            return None
        if self._rank_of[code] < 0:
            raise UndecomposableError("tensor has no symmetric decomposition")
        pred = compact_decode(int(self._parent_pred[code]), self.field, self.order).full()
        return pred, self.generator_vectors[int(self._parent_gen[code])]


def _compact_code_of(X, s):
    if X.field != s.field or X.order != s.order:
        raise ValueError(
            f"tensor is over p={X.field.p}, order {X.order}; "
            f"stratification is for p={s.field.p}, order {s.order}"
        )
    if not is_symmetric(X):
        raise AsymmetricTensorError("symmetric rank is defined for symmetric tensors")
    return compact_encode(compact_from_full(X))


def rank_one_generators(field, k):
    """Distinct symmetric simple tensors as (compact code, least vector) pairs.

    Vectors are scanned in lexicographic order, so each tensor keeps its
    least generating vector and the list is ordered by those vectors.
    """
    p = field.p
    gens = {}
    for v1 in range(p):
        for v2 in range(p):
            if v1 == 0 and v2 == 0:
                continue
            code = 0
            for j in range(k + 1):
                code = code * p + pow(v1, k - j, p) * pow(v2, j, p) % p
            gens.setdefault(code, (v1, v2))
    return [(code, vec) for code, vec in gens.items()]


def symmetric_rank_strata(field, k, budget=DEFAULT_BUDGET):
    """Layered generation of symmetric-rank strata over F_p, order k."""
    p = field.p
    N = p ** (k + 1)
    _refuse_oversized("symmetric code space", N, budget)
    gens = rank_one_generators(field, k)
    gen_codes = np.array([c for c, _ in gens], dtype=np.int64)
    G = gen_codes.size
    # code + generator g == TH[g, code // low] + TL[g, code % low]
    low = p ** ((k + 1) // 2)
    TH = _translations(gen_codes // low, p, k + 1 - (k + 1) // 2, low)
    TL = _translations(gen_codes % low, p, (k + 1) // 2)

    rank_of = np.full(N, -1, dtype=np.int8)
    parent_pred = np.full(N, -1, dtype=np.int64)
    parent_gen = np.full(N, -1, dtype=np.int32)

    rank_of[0] = 0
    rank_of[gen_codes] = 1
    parent_pred[gen_codes] = 0
    parent_gen[gen_codes] = np.arange(G, dtype=np.int32)

    compact_strata = [np.array([0], dtype=np.int64), np.sort(gen_codes)]
    while (rank_of < 0).any():
        new_codes, preds, gidx = _expand_layer(compact_strata[-1], G, TH, TL, low, rank_of)
        if new_codes.size == 0:
            break
        rank_of[new_codes] = len(compact_strata)
        parent_pred[new_codes] = preds
        parent_gen[new_codes] = gidx
        compact_strata.append(new_codes)

    undecomposable = np.flatnonzero(rank_of < 0).astype(np.int64)
    W = compact_weights(p, k)
    return RankStratification(
        field=field,
        order=k,
        strata=[digits_of_codes(s, p, k + 1) @ W for s in compact_strata],
        undecomposable=digits_of_codes(undecomposable, p, k + 1) @ W,
        generator_vectors=[vec for _, vec in gens],
        _rank_of=rank_of,
        _parent_pred=parent_pred,
        _parent_gen=parent_gen,
    )


def _refuse_oversized(space_name, size, budget):
    for limit, name in ((budget, "budget"), (_MAX_CODES, "int32 limit")):
        if size > limit:
            raise BudgetExceededError(f"{space_name} {size} exceeds the {name} of {limit} codes")


def _translations(gen_parts, p, width, scale=1):
    """(G, p^width) int32 table: scale * (every code plus part g, digit-wise),
    built as a Kronecker sum one digit at a time, least significant first."""
    digits = digits_of_codes(gen_parts, p, width)
    T = np.zeros((len(gen_parts), 1), dtype=np.int32)
    for j in range(width - 1, -1, -1):
        top = ((np.arange(p) + digits[:, j, None]) % p * (scale * p ** (width - 1 - j))).astype(np.int32)
        T = (top[:, :, None] + T[:, None, :]).reshape(len(gen_parts), -1)
    return T


def _translated(frontier, TH, TL, low):
    """Yields (g, frontier + generators g, g+1, ...) in (block, |F|) chunks."""
    hi, lo = frontier // low, frontier % low
    block = max(1, _CHUNK_ROWS // frontier.size)
    for g in range(0, TH.shape[0], block):
        # take along axis 1 keeps the block contiguous, unlike TH[g:g+block, hi]
        yield g, np.take(TH[g : g + block], hi, axis=1) + np.take(TL[g : g + block], lo, axis=1)


def _expand_layer(frontier, G, TH, TL, low, rank_of):
    """Sums frontier + generators not seen before, with min-(pred, gen) parents.

    Each candidate is two row gathers and one add; all are scatter-mined
    by key pred*G + gen into one array over all codes, unfiltered, and
    codes ranked earlier are cleared once at the end of the layer.
    """
    sentinel = np.iinfo(np.int64).max
    best = np.full(rank_of.size, sentinel, dtype=np.int64)
    for g, codes in _translated(frontier, TH, TL, low):
        keys = frontier * G + np.arange(g, g + codes.shape[0])[:, None]
        np.minimum.at(best, codes.ravel(), keys.ravel())  # 1-D: ufunc.at fast path
    best[rank_of >= 0] = sentinel
    codes = np.flatnonzero(best < sentinel)
    keys = best[codes]
    return codes, keys // G, keys % G


def symmetric_rank(X, s):
    """Rank r with encode(X) in strata[r], or None when undecomposable."""
    return s.rank_of_compact_code(_compact_code_of(X, s))


def decompose(X, s):
    """Vectors whose symmetric outer powers sum to X, via the parent links.

    The witness is re-evaluated before it is returned.  Undecomposable
    input raises UndecomposableError.
    """
    code = _compact_code_of(X, s)
    r = s.rank_of_compact_code(code)
    if r is None:
        raise UndecomposableError("tensor has no symmetric decomposition")
    p = s.field.p
    vectors = []
    while code != 0:
        vectors.append(s.generator_vectors[int(s._parent_gen[code])])
        code = int(s._parent_pred[code])
    vectors.reverse()
    if len(vectors) != r:
        raise AssertionError("witness length differs from the rank; parent links corrupt")

    total = [0] * (1 << s.order)
    for v in vectors:
        term = symmetric_outer_power(v, s.order, s.field)
        total = [(a + b) % p for a, b in zip(total, term.entries)]
    if tuple(total) != X.entries:
        raise AssertionError("witness re-evaluation failed; parent links corrupt")
    return Witness(tuple(vectors))


# ---------------------------------------------------------------------------
# General (unconstrained) rank over the full tensor space
# ---------------------------------------------------------------------------

@dataclass
class GeneralRankStratification:
    """Rank layers of the full p^(2^k) tensor space.

    Holds per-layer sizes and a rank lookup table over full codes; the
    member lists themselves are not materialized (the space reaches
    tens of millions of codes) and no parent links are recorded.
    """

    field: FieldSpec
    order: int
    sizes: list
    _rank_of: np.ndarray = dataclass_field(repr=False, default=None)

    @property
    def max_rank(self):
        return len(self.sizes) - 1

    def rank_of_code(self, code):
        r = int(self._rank_of[code])
        return None if r < 0 else r

    def rank_of(self, X):
        if X.field != self.field or X.order != self.order:
            raise ValueError("tensor parameters do not match the stratification")
        return self.rank_of_code(encode(X))

    def stratum_codes(self, r):
        return np.flatnonzero(self._rank_of == r).astype(np.int64)


def simple_tensor_codes(field, k):
    """Sorted unique codes of a1 (x) ... (x) ak over nonzero vectors."""
    p = field.p
    vecs = np.array(
        [(i, j) for i in range(p) for j in range(p)][1:], dtype=np.int64
    )
    cur = vecs
    for _ in range(k - 1):
        cur = (cur[:, None, :, None] * vecs[None, :, None, :]).reshape(
            cur.shape[0] * vecs.shape[0], cur.shape[1] * 2
        ) % p
    return np.unique(cur @ full_place_values(p, k))


def general_rank_strata(field, k, budget=DEFAULT_BUDGET):
    """Rank layers over the full tensor space; refuses oversized spaces."""
    p = field.p
    n = 1 << k
    space = p**n
    _refuse_oversized("full code space p^(2^k) =", space, budget)
    gens = simple_tensor_codes(field, k)
    # code + generator g == TH[g, code // low] + TL[g, code % low]
    low = p ** (n // 2)
    TH = _translations(gens // low, p, n - n // 2, low)
    TL = _translations(gens % low, p, n // 2)

    rank_of = np.full(space, -1, dtype=np.int8)
    rank_of[0] = 0
    rank_of[gens] = 1
    sizes = [1, int(gens.size)]
    unranked = space - 1 - gens.size
    while unranked:
        r = len(sizes)
        if sizes[-1] * gens.size <= _PUSH_FACTOR * unranked:
            _push(np.flatnonzero(rank_of == r - 1), r, TH, TL, low, rank_of)
        else:
            _pull(r, TH, TL, low, rank_of)
        n_new = int(np.count_nonzero(rank_of == r))
        if n_new == 0:
            break
        sizes.append(n_new)
        unranked -= n_new
    return GeneralRankStratification(field=field, order=k, sizes=sizes, _rank_of=rank_of)


def _push(frontier, r, TH, TL, low, rank_of):
    """Ranks r every unranked frontier code plus a generator."""
    hit = np.zeros(rank_of.size, dtype=bool)
    for _, codes in _translated(frontier, TH, TL, low):
        hit[codes.ravel()] = True
    rank_of[hit & (rank_of < 0)] = r


def _pull(r, TH, TL, low, rank_of):
    """Ranks r every unranked code u with some u - g (= u + g') of rank r - 1.

    Generator blocks grow from 4 to 64: most codes hit within a few.
    """
    unranked = np.flatnonzero(rank_of < 0)
    for start in range(0, unranked.size, _PULL_CHUNK):
        u = unranked[start : start + _PULL_CHUNK]
        hi, lo = u // low, u % low
        g, block = 0, 4
        while g < TH.shape[0] and u.size:
            codes = np.take(TH[g : g + block], hi, axis=1) + np.take(TL[g : g + block], lo, axis=1)
            hit = (rank_of[codes] == r - 1).any(axis=0)
            if hit.any():
                rank_of[u[hit]] = r
                miss = np.flatnonzero(~hit)
                u, hi, lo = u[miss], hi[miss], lo[miss]
            g += block
            block = min(2 * block, 64)
