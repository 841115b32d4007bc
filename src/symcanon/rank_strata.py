"""Layered generation of rank strata: one search serves both rank notions.

Stratum 0 is the zero tensor, stratum 1 the simple tensors (generators);
an unranked code X + g with X in stratum r - 1 has rank r, and codes
never reached have no decomposition.  Adding a generator acts digit-wise
on the high and the low half of a code, so tables of every half code
translated by each distinct generator half, indexed per generator, make
each sum two gathers and one add.  Each layer of `_layered_search` pushes
(frontier + every generator) while the frontier is small and pulls once
it is dense (an unranked u is ranked if some u - g lies in the previous
layer): Beamer, Asanovic and Patterson, "Direction-Optimizing
Breadth-First Search", SC'12.

The pull needs tables of code - g.  The general simple tensors
a1 (x) ... (x) ak are closed under negation, so one pair of tables serves
both directions; the symmetric a^(x)k are not (-a^(x)4 is simple only
when -1 is a fourth power), so their pull gets tables of the digit-wise
negated generators.  Symmetric strata run on compact codes (the k+1 class
coefficients add coefficient-wise) and store no parent links: the
derivation of a code c of rank r is the least pred * G + gen with
pred = c - generator gen of rank r - 1, derived on demand.  Generators are
ordered by their least generating vector, so witnesses are reproducible.

General strata run on full codes u1 * p^m + u2, m = 2^(k-1), whose high
and low halves are the mode-1 slices X1 and X2, and keep only layer sizes
and ranks.  The general rank of X is the least number of simple
(k-1)-tensors whose span contains X1 and X2, so it depends only on
span(X1, X2) (Ja'Ja', "Optimal evaluation of pairs of bilinear forms",
SIAM J. Comput. 1979) and is constant on the classes of GL2 acting on
mode 1; every layer is a union of classes, since A X + g = A (X + A^-1 g)
and A^-1 g is simple.  The symmetric strata take the trivial group, every
code its own class.  Both run one loop on one representative per class
(for GL2 the reduced row echelon form, RREF, of [u1; u2]) and write each
rank to whole classes (the closure), which any code of a class yields.
A push closes the class of each unranked sum of a generator and a
representative of rank r - 1, so nothing is left to close after it.  A
pull ranks the unranked representatives with some representative - g of
rank r - 1; every rank-r class then has its representative ranked, so
the closure takes the smaller side: the classes just ranked or, when
fewer stayed unranked, those (marked) while every other unranked code
takes the rank.  At p = 3, k = 4 the layer-3 push starts from 3 792
representatives instead of 101 376 codes and closes the classes of
169 370 of its 1.9 M sums, the rest being ranked by the classes closed
before them; the layer-4 pull tests 761 404 representatives instead of
36.5 M codes and closes 11 016 classes instead of 750 388.  A budget
caps the space (p = 7, k = 4 with ~3.3e13 codes fails explicitly); codes
are int32, so spaces beyond 2^31 codes are refused whatever the budget.
"""

from dataclasses import dataclass, field as dataclass_field
from functools import partial, reduce

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

# (code, generator) sums per chunk of a push or a parent lookup
_CHUNK_ROWS = 1 << 22
_MAX_CODES = 1 << 31  # translation tables hold int32 codes

# a layer pushes iff |frontier| * G <= _PUSH_FACTOR * |unranked| and
# pulls _PULL_CHUNK unranked codes at a time
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
    ascending; undecomposable holds the codes never reached.  Ranks and
    generator codes are kept on compact codes internally; parent_of and
    decompose derive the least derivation from them on demand.
    """

    field: FieldSpec
    order: int
    strata: list                 # list of sorted int64 arrays of full codes
    undecomposable: np.ndarray   # sorted int64 array of full codes
    generator_vectors: list      # vector per generator, BFS tie-break order
    _rank_of: np.ndarray = dataclass_field(repr=False, default=None)
    _gen_codes: np.ndarray = dataclass_field(repr=False, default=None)  # compact, per generator

    @property
    def max_rank(self):
        return len(self.strata) - 1

    def stratum_sizes(self):
        return [int(s.size) for s in self.strata]

    def rank_of_compact_code(self, code):
        r = int(self._rank_of[code])
        return None if r < 0 else r

    def parent_of(self, X):
        """The least derivation: (predecessor SymTensor, generator vector).

        None for the zero tensor; errors on undecomposable input.
        """
        code = _compact_code_of(X, self)
        if code == 0:
            return None
        if self._rank_of[code] < 0:
            raise UndecomposableError("tensor has no symmetric decomposition")
        pred, gen = _parents(self, np.array([code]), _minus_tables(self))
        pred = compact_decode(int(pred[0]), self.field, self.order).full()
        return pred, self.generator_vectors[int(gen[0])]


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
    plus, minus = _tables(gen_codes, p, k + 1), _tables(gen_codes, p, k + 1, sign=-1)
    rank_of, sizes = _layered_search(N, gen_codes, plus, minus, _single_codes())
    # the full code of every compact code, as a Kronecker sum of digit weights
    full = reduce(lambda acc, w: (acc[:, None] + np.arange(p) * w).ravel(),
                  compact_weights(p, k), np.zeros(1, dtype=np.int64))
    return RankStratification(
        field=field,
        order=k,
        strata=[full[rank_of == r] for r in range(len(sizes))],
        undecomposable=full[rank_of < 0],
        generator_vectors=[vec for _, vec in gens],
        _rank_of=rank_of,
        _gen_codes=gen_codes,
    )


def _refuse_oversized(space_name, size, budget):
    for limit, name in ((budget, "budget"), (_MAX_CODES, "int32 limit")):
        if size > limit:
            raise BudgetExceededError(f"{space_name} {size} exceeds the {name} of {limit} codes")


def _tables(gen_codes, p, width, sign=1):
    """(TH, IH, TL, IL, low) with code + sign * g == TH[IH[g], code // low]
    + TL[IL[g], code % low] digit-wise, one table row per distinct half."""
    low = p ** (width // 2)
    (high, ih), (rest, il) = (np.unique(half, return_inverse=True) for half in divmod(gen_codes, low))
    return (_translations(high, p, width - width // 2, sign, low), ih,
            _translations(rest, p, width // 2, sign), il, low)


def _minus_tables(s):
    """Tables of compact code - generator for a symmetric stratification."""
    return _tables(s._gen_codes, s.field.p, s.order + 1, sign=-1)


def _translations(gen_parts, p, width, sign, scale=1):
    """(len(gen_parts), p^width) int32 table: scale * (every code plus
    sign * each part, digit-wise), built as a Kronecker sum one digit at a
    time, least significant first."""
    digits = sign * digits_of_codes(gen_parts, p, width)
    T = np.zeros((len(gen_parts), 1), dtype=np.int32)
    for j in range(width - 1, -1, -1):
        top = ((np.arange(p) + digits[:, j, None]) % p * (scale * p ** (width - 1 - j))).astype(np.int32)
        T = (top[:, :, None] + T[:, None, :]).reshape(len(gen_parts), -1)
    return T


def _translated(frontier, TH, IH, TL, IL, low, rows):
    """Yields (g, frontier + generators g, g+1, ...) in (block, |F|) chunks
    of about `rows` sums (one generator when |F| exceeds rows)."""
    hi, lo = frontier // low, frontier % low
    block = max(1, rows // frontier.size)
    for g in range(0, IH.size, block):
        # gathering the rows first keeps each np.take contiguous
        yield g, np.take(TH[IH[g : g + block]], hi, axis=1) + np.take(TL[IL[g : g + block]], lo, axis=1)


def _parents(s, codes, minus):
    """Least derivation (pred, gen) of each code of rank >= 1, as arrays.

    pred = code - generator gen (digit-wise, from the tables `minus`) has
    rank one lower, and pred * G + gen is least among all such pairs.
    """
    G = s._gen_codes.size
    r = s._rank_of[codes]
    sentinel = np.iinfo(np.int64).max
    best = np.full(codes.size, sentinel, dtype=np.int64)
    for g, preds in _translated(codes, *minus, _CHUNK_ROWS):
        keys = preds * np.int64(G) + np.arange(g, g + preds.shape[0])[:, None]
        keys[s._rank_of[preds] != r - 1] = sentinel
        best = np.minimum(best, keys.min(axis=0))
    if (best == sentinel).any():
        raise AssertionError("no predecessor one rank lower; rank table corrupt")
    return best // G, best % G


def symmetric_rank(X, s):
    """Rank r with encode(X) in strata[r], or None when undecomposable."""
    return s.rank_of_compact_code(_compact_code_of(X, s))


def decompose(X, s):
    """Vectors whose symmetric outer powers sum to X, along least derivations.

    The witness is re-evaluated before it is returned.  Undecomposable
    input raises UndecomposableError.
    """
    code = _compact_code_of(X, s)
    r = s.rank_of_compact_code(code)
    if r is None:
        raise UndecomposableError("tensor has no symmetric decomposition")
    p = s.field.p
    minus = _minus_tables(s)
    vectors = []
    for _ in range(r):
        pred, gen = _parents(s, np.array([code]), minus)
        vectors.append(s.generator_vectors[int(gen[0])])
        code = int(pred[0])
    vectors.reverse()

    total = [0] * (1 << s.order)
    for v in vectors:
        term = symmetric_outer_power(v, s.order, s.field)
        total = [(a + b) % p for a, b in zip(total, term.entries)]
    if tuple(total) != X.entries:
        raise AssertionError("witness re-evaluation failed; rank table corrupt")
    return Witness(tuple(vectors))


# ---------------------------------------------------------------------------
# General (unconstrained) rank over the full tensor space
# ---------------------------------------------------------------------------

@dataclass
class GeneralRankStratification:
    """Rank layers of the full p^(2^k) tensor space.

    Holds per-layer sizes and a rank lookup table over full codes; the
    member lists themselves are not materialized (the space reaches
    tens of millions of codes) and no parent links are recorded.  Rank is
    constant on the classes of GL2 acting on mode 1 (Ja'Ja'), so every
    layer past the generators is searched on the reduced row echelon
    representatives of the slice matrix [X1; X2], and ranks are written
    to whole classes (see the module docstring).
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
    # -a1 (x) a2 (x) ... is simple, so code - g over all g is code + g over all g
    plus = _tables(gens, p, n)
    rank_of, sizes = _layered_search(space, gens, plus, plus, _mode1_classes(p, n // 2))
    return GeneralRankStratification(field=field, order=k, sizes=sizes, _rank_of=rank_of)


def _single_codes():
    """(select, count, largest, close) of the trivial group, as in
    _mode1_classes: every code is its own class and representative."""
    def close(codes, r, rank_of):
        rank_of[codes] = r

    return lambda rank_of, r: np.flatnonzero(rank_of == r), np.size, 1, close


def _mode1_classes(p, m):
    """(select, count, largest, close) of the classes of GL2 acting on
    mode 1, for full codes u1 * p^m + u2 with slices u1, u2 of m digits.

    The representatives are the nonzero codes with [u1; u2] in reduced row
    echelon form (pivot: leading nonzero digit; monic: pivot digit 1): u1
    monic and u2 = 0, or u1 and u2 monic, the pivot of u2 right of that of
    u1 and u1 zero there.  select(rank_of, r) gives the representatives of
    rank r, count(reps) the number of codes in their classes (p^2 - 1 for
    u2 = 0, |GL2| otherwise), largest is |GL2|, and close(codes, r,
    rank_of) writes r to the classes of any codes.
    """
    H = p**m
    digits = digits_of_codes(np.arange(H), p, m)
    pivot = (digits == 0).cumprod(axis=1).sum(axis=1)  # m for u = 0
    monic = digits[np.arange(H), np.minimum(pivot, m - 1)] == 1  # leading digit 1
    reps = [np.flatnonzero(monic) * H]
    for j in range(1, m):
        u1 = np.flatnonzero(monic & (pivot < j) & (digits[:, j] == 0))
        reps.append((u1[:, None] * H + np.flatnonzero(monic & (pivot == j))).ravel())
    reps = np.concatenate(reps)
    place = p ** np.arange(m - 1, -1, -1)
    scale = np.stack([(a * digits % p) @ place for a in range(p)]).astype(np.int32)
    w = (m + 1) // 2
    add = _translations(np.arange(p**w), p, w, 1)  # digit-wise sums of quarter codes
    a, b = np.divmod(np.arange(p * p), p)
    first, second = np.nonzero((a[:, None] * b - b[:, None] * a) % p)  # rows of A in GL2
    return (lambda rank_of, r: reps[rank_of[reps] == r],
            lambda codes: int(np.where(codes % H, first.size, p * p - 1).sum()),
            first.size,
            partial(_close, scale, add, first, second))


def _close(scale, add, first, second, codes, r, rank_of):
    """Ranks r the class A (u1, u2) = (a u1 + b u2, c u1 + d u2), A in GL2,
    of each code u1 * H + u2, a representative or not.

    Digit-wise, scale[a, u] is a u and add[x, y] is x + y on quarter codes.
    Over the invertible A, (a, b) = divmod(first, p) and (c, d) =
    divmod(second, p).
    """
    H, Q = scale.shape[1], add.shape[0]
    chunk = max(1, _CHUNK_ROWS // first.size)
    for start in range(0, codes.size, chunk):
        u = codes[start : start + chunk]
        x, y = scale[:, None, u // H], scale[None, :, u % H]
        span = (add[x // Q, y // Q] * Q + add[x % Q, y % Q]).reshape(-1, u.size)
        rank_of[span[first] * H + span[second]] = r


def _layered_search(space, gens, plus, minus, classes):
    """(rank_of, sizes): int8 rank of every code, -1 if never reached, and
    the size of each layer.  `plus` and `minus` are the `_tables` of code
    + g and code - g over the generator codes `gens`.

    `classes` is (select, count, largest, close) from _single_codes or
    _mode1_classes.  Past the generators each layer either pushes from the
    representatives of rank r - 1, closing classes as it goes, or pulls
    the unranked representatives and then closes the smaller side (see
    the module docstring): the classes just ranked or, when fewer stayed
    unranked, those, marked -r - 2, after which every negative code shifts
    by r + 1, so the unmarked unranked codes become r and the marked ones
    -1 again."""
    select, count, largest, close = classes
    rank_of = np.full(space, -1, dtype=np.int8)
    rank_of[0] = 0
    rank_of[gens] = 1
    sizes = [1, int(gens.size)]
    layer = select(rank_of, 1)
    unranked = space - 1 - gens.size
    while unranked:
        r = len(sizes)
        if sizes[-1] * gens.size <= _PUSH_FACTOR * unranked:
            _push(layer, r, *plus, rank_of, close, largest)
            layer = select(rank_of, r)
        else:
            _pull(select(rank_of, -1), r, *minus, rank_of)
            layer, left = select(rank_of, r), select(rank_of, -1)
            if layer.size <= left.size:
                close(layer, r, rank_of)
            else:
                close(left, -r - 2, rank_of)
                for start in range(0, space, _CHUNK_ROWS):  # no whole-space temporary
                    _shift(rank_of[start : start + _CHUNK_ROWS], r + 1)
        if layer.size == 0:
            break
        sizes.append(count(layer))
        unranked -= sizes[-1]
    return rank_of, sizes


def _shift(part, by):
    """Adds `by`, in place, to the negative entries of a slice of rank_of."""
    shift = (part < 0).view(np.int8)
    shift *= by
    part += shift


def _push(frontier, r, TH, IH, TL, IL, low, rank_of, close, largest):
    """Ranks r the class of each unranked frontier code plus a generator.

    Sums come in steps of about _PULL_CHUNK // largest (the largest class
    size), each re-filtered, so that a class closed by one step is skipped
    by the next; a class hit twice within one step is closed twice."""
    for _, codes in _translated(frontier, TH, IH, TL, IL, low, _PULL_CHUNK // largest):
        close(codes[rank_of[codes] < 0], r, rank_of)


def _pull(candidates, r, TH, IH, TL, IL, low, rank_of):
    """Ranks r the candidate codes u with some u - g (from the tables) of
    rank r - 1.

    Generator blocks grow from 4 to 64 (most codes hit within a few), but
    to at most 4 * _PULL_CHUNK // |u|: a block tests at most 4 * _PULL_CHUNK
    (code, generator) pairs, and its int32 sums take 4 MiB.
    """
    for start in range(0, candidates.size, _PULL_CHUNK):
        u = candidates[start : start + _PULL_CHUNK]
        hi, lo = u // low, u % low
        g, block = 0, 2
        while g < IH.size and u.size:
            block = min(2 * block, 64, 4 * _PULL_CHUNK // u.size)  # >= 4, as |u| <= _PULL_CHUNK
            codes = np.take(TH[IH[g : g + block]], hi, axis=1)
            codes += np.take(TL[IL[g : g + block]], lo, axis=1)
            hit = (rank_of[codes] == r - 1).any(axis=0)
            if hit.any():
                rank_of[u[hit]] = r
                miss = np.flatnonzero(~hit)
                u, hi, lo = u[miss], hi[miss], lo[miss]
            g += block
