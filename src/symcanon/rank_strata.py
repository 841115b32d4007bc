"""Layered generation of rank strata: one search serves both rank notions.

Stratum 0 is the zero tensor, stratum 1 the simple tensors (generators);
an unranked code X + g with X in stratum r - 1 has rank r, and codes
never reached have no decomposition.  Adding a generator acts digit-wise
on the high and the low half of a code, so per-generator tables of
translated halves make each sum two gathers and one add.  Each layer of
`_layered_search` pushes (frontier + every generator) while the frontier
is small and pulls once it is dense (an unranked u is ranked if some
u - g lies in the previous layer): Beamer, Asanovic and Patterson,
"Direction-Optimizing Breadth-First Search", SC'12.

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
mode 1; every layer is a union of classes.  Past the generators the
search therefore works on one representative per class, the reduced row
echelon form (RREF) of [u1; u2], and writes each rank to whole classes
(the closure).  A push adds every generator to the representatives of
rank r - 1, maps the unranked sums to their RREF and closes those
classes; this is exact, since A X + g = A (X + A^-1 g) and A^-1 g is
simple.  A pull tests the unranked representatives and closes the
smaller side: the classes it ranked or, when fewer stayed unranked, those
(marked) while every other unranked code takes the rank.  At p = 3, k = 4
the layer-3 push starts from 3 792 representatives instead of 101 376
codes, the layer-4 pull tests 761 404 of them instead of 36.5 M codes and
closes 11 016 classes instead of 750 388.  A budget caps the space (p = 7,
k = 4 with ~3.3e13 codes fails explicitly); codes are int32, so spaces
beyond 2^31 codes are refused whatever the budget.
"""

from dataclasses import dataclass, field as dataclass_field
from functools import partial

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
    rank_of, sizes = _layered_search(N, gen_codes, plus, minus)
    compact_strata = [np.flatnonzero(rank_of == r) for r in range(len(sizes))]
    undecomposable = np.flatnonzero(rank_of < 0)
    W = compact_weights(p, k)
    return RankStratification(
        field=field,
        order=k,
        strata=[digits_of_codes(s, p, k + 1) @ W for s in compact_strata],
        undecomposable=digits_of_codes(undecomposable, p, k + 1) @ W,
        generator_vectors=[vec for _, vec in gens],
        _rank_of=rank_of,
        _gen_codes=gen_codes,
    )


def _refuse_oversized(space_name, size, budget):
    for limit, name in ((budget, "budget"), (_MAX_CODES, "int32 limit")):
        if size > limit:
            raise BudgetExceededError(f"{space_name} {size} exceeds the {name} of {limit} codes")


def _tables(gen_codes, p, width, sign=1):
    """(TH, TL, low) with code + sign * g == TH[g, code // low] + TL[g, code % low],
    digit-wise, for codes of width digits split into high and low halves."""
    low = p ** (width // 2)
    return (_translations(gen_codes // low, p, width - width // 2, sign, low),
            _translations(gen_codes % low, p, width // 2, sign), low)


def _minus_tables(s):
    """Tables of compact code - generator for a symmetric stratification."""
    return _tables(s._gen_codes, s.field.p, s.order + 1, sign=-1)


def _translations(gen_parts, p, width, sign, scale=1):
    """(G, p^width) int32 table: scale * (every code plus sign * part g,
    digit-wise), built as a Kronecker sum one digit at a time, least
    significant first."""
    digits = sign * digits_of_codes(gen_parts, p, width)
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


def _parents(s, codes, minus):
    """Least derivation (pred, gen) of each code of rank >= 1, as arrays.

    pred = code - generator gen (digit-wise, from the tables `minus`) has
    rank one lower, and pred * G + gen is least among all such pairs.
    """
    G = s._gen_codes.size
    r = s._rank_of[codes]
    sentinel = np.iinfo(np.int64).max
    best = np.full(codes.size, sentinel, dtype=np.int64)
    for g, preds in _translated(codes, *minus):
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
    representatives of the slice matrix [X1; X2]: pushes canonicalize
    representative + generator, pulls close the smaller side, and ranks
    are written to whole classes (see the module docstring).
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


def _mode1_classes(p, m):
    """(reps, close, canon) of the classes of GL2 acting on mode 1, for full
    codes u1 * p^m + u2 with slices u1, u2 of m digits.

    reps are the nonzero codes with [u1; u2] in reduced row echelon form
    (pivot: leading nonzero digit; monic: pivot digit 1): u1 monic and
    u2 = 0, or u1 and u2 monic, the pivot of u2 right of that of u1 and u1
    zero there.  close(reps, r, rank_of) writes r to their classes, and
    canon(codes) maps each code to the representative of its class.
    """
    H = p**m
    digits = digits_of_codes(np.arange(H), p, m)
    pivot = (digits == 0).cumprod(axis=1).sum(axis=1)  # m for u = 0
    lead = digits[np.arange(H), np.minimum(pivot, m - 1)]  # 0 for u = 0
    monic = lead == 1
    reps = [np.flatnonzero(monic) * H]
    for j in range(1, m):
        u1 = np.flatnonzero(monic & (pivot < j) & (digits[:, j] == 0))
        reps.append((u1[:, None] * H + np.flatnonzero(monic & (pivot == j))).ravel())
    place = p ** np.arange(m - 1, -1, -1)
    scale = np.stack([(a * digits % p) @ place for a in range(p)]).astype(np.int32)
    w = (m + 1) // 2
    add = _translations(np.arange(p**w), p, w, 1)  # digit-wise sums of quarter codes
    a, b = np.divmod(np.arange(p * p), p)
    first, second = np.nonzero((a[:, None] * b - b[:, None] * a) % p)  # rows of A in GL2
    inv = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)])
    return (np.concatenate(reps), partial(_close, scale, add, first, second),
            partial(_canon, digits, pivot, lead, inv, scale, add))


def _close(scale, add, first, second, reps, r, rank_of):
    """Ranks r the class A (u1, u2) = (a u1 + b u2, c u1 + d u2), A in GL2,
    of each representative code u1 * H + u2.

    Digit-wise, scale[a, u] is a u and add[x, y] is x + y on quarter codes.
    Over the invertible A, (a, b) = divmod(first, p) and (c, d) =
    divmod(second, p).
    """
    H, Q = scale.shape[1], add.shape[0]
    chunk = max(1, _CHUNK_ROWS // first.size)
    for start in range(0, reps.size, chunk):
        u = reps[start : start + chunk]
        x, y = scale[:, None, u // H], scale[None, :, u % H]
        span = (add[x // Q, y // Q] * Q + add[x % Q, y % Q]).reshape(-1, u.size)
        rank_of[span[first] * H + span[second]] = r


def _canon(digits, pivot, lead, inv, scale, add, codes):
    """The code of the reduced row echelon form of [u1; u2] for each code
    u1 * H + u2: rows ordered by pivot, the second cleared at the first's
    pivot and made monic, the first cleared at the second's pivot and made
    monic.  Tables as in _mode1_classes and _close; inv[x] is 1/x mod p."""
    p, H, Q = scale.shape[0], scale.shape[1], add.shape[0]

    def sub(x, c, y):  # x - c y, digit-wise
        z = scale[-c % p, y]
        return add[x // Q, z // Q] * Q + add[x % Q, z % Q]

    u1, u2 = np.divmod(codes, H)
    swap = pivot[u2] < pivot[u1]
    x, y = np.where(swap, u2, u1), np.where(swap, u1, u2)
    y = sub(y, lead[y] * inv[lead[x]] * (pivot[x] == pivot[y]), x)
    y = scale[inv[lead[y]], y]
    x = sub(x, digits[x, np.minimum(pivot[y], digits.shape[1] - 1)], y)
    return scale[inv[lead[x]], x] * H + y


def _layered_search(space, gens, plus, minus, classes=None):
    """(rank_of, sizes): int8 rank of every code, -1 if never reached, and
    the size of each layer.  `plus` and `minus` are the `_tables` of code
    + g and code - g over the generator codes `gens`.

    `classes`, if given, is (reps, close, canon) from _mode1_classes: rank
    is constant on classes and every layer is a union of them, so layers
    past the generators work on the representatives `reps` only.  A push
    adds every generator to the representatives of rank r - 1 and closes
    the classes of the unranked sums (canon gives their representatives);
    a pull tests the unranked representatives and closes the smaller side:
    the ranked ones, or the ones left unranked, which it marks while every
    other unranked code is ranked r."""
    reps, close, canon = classes or (None, None, None)
    rank_of = np.full(space, -1, dtype=np.int8)
    rank_of[0] = 0
    rank_of[gens] = 1
    sizes = [1, int(gens.size)]
    unranked = space - 1 - gens.size
    while unranked:
        r = len(sizes)
        push = sizes[-1] * gens.size <= _PUSH_FACTOR * unranked
        if reps is None and push:
            _push(np.flatnonzero(rank_of == r - 1), r, *plus, rank_of)
        elif reps is None:
            rank_of[_pull(np.flatnonzero(rank_of < 0), r, *minus, rank_of)] = r
        elif push:
            _class_push(reps[rank_of[reps] == r - 1], r, *plus, rank_of, canon)
            close(reps[rank_of[reps] == r], r, rank_of)
        else:
            _class_pull(reps[rank_of[reps] < 0], r, *minus, rank_of, close)
        n_new = int(np.count_nonzero(rank_of == r))
        if n_new == 0:
            break
        sizes.append(n_new)
        unranked -= n_new
    return rank_of, sizes


def _push(frontier, r, TH, TL, low, rank_of):
    """Ranks r every unranked frontier code plus a generator."""
    hit = np.zeros(rank_of.size, dtype=bool)
    for _, codes in _translated(frontier, TH, TL, low):
        hit[codes.ravel()] = True
    rank_of[hit & (rank_of < 0)] = r


def _class_push(frontier, r, TH, TL, low, rank_of, canon):
    """Ranks r the representative (not yet the class) of each unranked
    frontier code plus a generator, canonicalizing _PULL_CHUNK sums at a
    time."""
    for _, codes in _translated(frontier, TH, TL, low):
        codes = codes[rank_of[codes] < 0]
        for start in range(0, codes.size, _PULL_CHUNK):
            rank_of[canon(codes[start : start + _PULL_CHUNK])] = r


def _class_pull(candidates, r, TH, TL, low, rank_of, close):
    """Ranks r the classes of the candidate representatives that _pull
    ranks.  When fewer stay unranked, it closes those instead, marked
    -r - 2, and then shifts every negative code by r + 1: the unmarked
    unranked codes become r and the marked ones -1 again."""
    ranked = _pull(candidates, r, TH, TL, low, rank_of)
    if 2 * ranked.size <= candidates.size:
        close(ranked, r, rank_of)
        return
    rank_of[ranked] = r
    close(candidates[rank_of[candidates] < 0], -r - 2, rank_of)
    shift = (rank_of < 0).view(np.int8)
    shift *= r + 1
    rank_of += shift


def _pull(candidates, r, TH, TL, low, rank_of):
    """The candidate codes u with some u - g (from the tables) of rank r - 1.

    Generator blocks grow from 4 to 64: most codes hit within a few.
    """
    ranked = [candidates[:0]]
    for start in range(0, candidates.size, _PULL_CHUNK):
        u = candidates[start : start + _PULL_CHUNK]
        hi, lo = u // low, u % low
        g, block = 0, 4
        while g < TH.shape[0] and u.size:
            codes = np.take(TH[g : g + block], hi, axis=1) + np.take(TL[g : g + block], lo, axis=1)
            hit = (rank_of[codes] == r - 1).any(axis=0)
            if hit.any():
                ranked.append(u[hit])
                miss = np.flatnonzero(~hit)
                u, hi, lo = u[miss], hi[miss], lo[miss]
            g += block
            block = min(2 * block, 64)
    return np.concatenate(ranked)
