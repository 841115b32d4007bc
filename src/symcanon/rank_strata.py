"""Rank strata, searched layer by layer on one representative per class.

Stratum 0 is the zero tensor, stratum 1 the simple tensors (generators);
an unranked X + g with X in stratum r - 1 has rank r, and tensors never
reached have no decomposition.

Symmetric rank is constant on the orbits of the diagonal GL2 action, and
the generators a^(x)k are GL2-stable: g.a^(x)k = (ga)^(x)k.  So X = Y + b
gives h.X = h.Y + h.b for every h, and the orbits of rank r are exactly
the unranked orbits of Y + b over one representative Y of each orbit of
rank r - 1 and every generator b.  `symmetric_rank_strata` runs that
search on the orbit labels (`orbit_labels`; 6 to 52 orbits on the stored
pairs), adding the k+1 class coefficients digit-wise, and each code takes
the rank of its label.  No parent links are stored: the derivation of a
code c of rank r is the least pred * G + gen with pred = c - generator
gen of rank r - 1, derived on demand.  Generators are ordered by their
least generating vector, so witnesses are reproducible.

General strata run on full codes u1 * p^m + u2, m = 2^(k-1), whose two
m-digit slices u1, u2 are the mode-1 slices X1 and X2, and keep only
layer sizes and ranks.  The general rank of X depends only on
span(X1, X2) (Ja'Ja', "Optimal evaluation of pairs of bilinear forms",
SIAM J. Comput. 1979), so it is constant on the classes of GL2 acting on
mode 1; every layer is a union of classes, since A X + g = A (X + A^-1 g)
and A^-1 g is simple.  Adding a generator acts digit-wise on each slice
of a code, so with tables of every slice translated by each distinct
generator slice, a sum is two row gathers and one add; the simple
tensors are closed under negation, so the same tables give code - g.
Each layer of `_layered_search` pushes (frontier + every generator)
while the frontier is small and pulls once it is dense (an unranked u is
ranked if some u - g lies in the previous layer): Beamer, Asanovic and
Patterson, "Direction-Optimizing Breadth-First Search", SC'12.  It runs
on one representative per class (the reduced row echelon form, RREF, of
[u1; u2]) and writes each rank to whole classes (the closure).  A push
closes the class of each unranked sum of a generator and a
representative of rank r - 1; a representative (u1, 0) is fixed by
S = {[[1, b], [0, d]]} on mode 1, so its sums with g and with A g, A in S,
share a class, and it takes one generator per S-orbit: p (p + 1)^(k-1) of
the (p - 1)(p + 1)^k simple tensors (448 of 3 072 at p = 7, k = 3).  A
pull ranks the unranked representatives with some representative - g of
rank r - 1, then closes the classes left unranked (marked) while every
other unranked code takes the rank.  At p = 3, k = 4 the layer-4 pull
tests 761 404 representatives instead of 36.5 M codes and closes the
11 016 classes left unranked instead of the 750 388 it ranked.  Besides
the int8 rank table, the tables (of which a pull block copies up to 64
rows) and the int32 representatives, each temporary of a pass (the sums
of a pull block, a closure chunk, a shift slice) holds about _PULL_CHUNK
entries, whatever the space.  A budget caps the space (p = 7, k = 4 with
~3.3e13 codes fails explicitly); codes are int32, so spaces beyond 2^31
codes are refused whatever the budget.
"""

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, partial, reduce
from itertools import product

import numpy as np

from .errors import AsymmetricTensorError, UndecomposableError
from .gfp import FieldSpec
from .group_action import DEFAULT_BUDGET, _refuse_oversized, action_stack, orbit_labels
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

# a layer pushes iff |frontier| * G <= _PUSH_FACTOR * |unranked|; each
# temporary of a pass or a parent lookup holds about _PULL_CHUNK entries
_PUSH_FACTOR = 10
_PULL_CHUNK = 1 << 18


@dataclass(frozen=True)
class Witness:
    """Vectors whose symmetric outer powers sum to the decomposed tensor."""

    vectors: tuple  # ((v1, v2), ...), length == symmetric rank


@dataclass
class RankStratification:
    """Symmetric-rank layers of all p^(k+1) symmetric tensors.

    Ranks, orbit labels and generator codes are kept on compact codes.
    The full-code lists, strata[r] (the codes of rank r) and
    undecomposable (those never reached), are built on first access;
    parent_of and decompose derive the least derivation on demand.
    """

    field: FieldSpec
    order: int
    generator_vectors: list      # vector per generator, BFS tie-break order
    _rank_of: np.ndarray = dataclass_field(repr=False, default=None)
    _gen_codes: np.ndarray = dataclass_field(repr=False, default=None)  # compact, per generator
    _labels: np.ndarray = dataclass_field(repr=False, default=None)  # orbit_labels of the space

    @cached_property
    def _counts(self):  # [undecomposable, rank 0, rank 1, ...]
        return np.bincount(self._rank_of + 1).tolist()

    @property
    def max_rank(self):
        return len(self._counts) - 2

    def stratum_sizes(self):
        return self._counts[1:]

    @property
    def undecomposable_count(self):
        return self._counts[0]

    @cached_property
    def strata(self):
        full = self._full_codes()
        return [full[self._rank_of == r] for r in range(self.max_rank + 1)]

    @cached_property
    def undecomposable(self):
        return self._full_codes()[self._rank_of < 0]

    def _full_codes(self):  # ascending, as compact codes are
        weights = compact_weights(self.field.p, self.order)
        return reduce(np.add.outer, np.arange(self.field.p) * weights[:, None]).ravel()

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
        pred, gen = _parents(self, np.array([code]))
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
    for v1, v2 in product(range(p), repeat=2):
        code = sum(pow(v1, k - j, p) * pow(v2, j, p) % p * p ** (k - j) for j in range(k + 1))
        if code:  # v^(x)k = 0 only for v = 0
            gens.setdefault(code, (v1, v2))
    return list(gens.items())


def symmetric_rank_strata(field, k, budget=DEFAULT_BUDGET, stack=None):
    """Symmetric rank of every compact code over F_p, order k, searched on
    the orbit labels; `stack` is action_stack(field, k) if already built."""
    p = field.p
    _refuse_oversized("symmetric code space", p ** (k + 1), budget)
    gens = rank_one_generators(field, k)
    gen_codes = np.array([c for c, _ in gens], dtype=np.int64)
    lab = orbit_labels(action_stack(field, k) if stack is None else stack, p)
    # the rank of each orbit, at its label: layer r holds the unranked
    # labels of every label of rank r - 1 plus every generator, digit-wise
    place, gen_digits = p ** np.arange(k, -1, -1), digits_of_codes(gen_codes, p, k + 1)
    rank = np.full(lab.size, -1, dtype=np.int8)
    rank[0], reps, r = 0, np.zeros(1, dtype=np.int64), 0  # zero is its own orbit
    while reps.size:
        r += 1
        hit = lab.take((digits_of_codes(reps, p, k + 1)[:, None] + gen_digits) % p @ place)
        rank[hit[rank[hit] < 0]] = r
        reps = np.flatnonzero(rank == r)
    return RankStratification(field, k, [vec for _, vec in gens], rank.take(lab), gen_codes, lab)


def _tables(gen_codes, p, m):
    """(TH, IH, TL, IL, H) with code + g == TH[IH[g], code // H]
    + TL[IL[g], code % H] digit-wise, H = p^m, one table row per distinct
    mode-1 slice; TL is uint16, its entries below H < 46 341 for any space
    under 2^31."""
    H = p**m
    (high, ih), (rest, il) = (np.unique(half, return_inverse=True) for half in divmod(gen_codes, H))
    return _translations(high, p, m, H), ih, _translations(rest, p, m).astype(np.uint16), il, H


def _translations(gen_parts, p, width, scale=1):
    """(len(gen_parts), p^width) int32 table: scale * (every code plus each
    part, digit-wise), built as a Kronecker sum one digit at a time, least
    significant first."""
    digits = digits_of_codes(gen_parts, p, width)
    T = np.zeros((len(gen_parts), 1), dtype=np.int32)
    for j in range(width - 1, -1, -1):
        top = ((np.arange(p) + digits[:, j, None]) % p * (scale * p ** (width - 1 - j))).astype(np.int32)
        T = (top[:, :, None] + T[:, None, :]).reshape(len(gen_parts), -1)
    return T


def _translated(frontier, TH, IH, TL, IL, H, rows):
    """Yields frontier + every generator in blocks of about `rows` sums, a
    slice of the frontier plus a run of generators, slice by slice; each
    slice takes its columns of both tables once (at most 4 * _PULL_CHUNK
    entries), so a block is two row gathers and an add."""
    step = max(1, 4 * _PULL_CHUNK // (TH.shape[0] + TL.shape[0]))
    for start in range(0, frontier.size, step):
        f = frontier[start : start + step]
        hi, lo = np.take(TH, f // H, axis=1), np.take(TL, f % H, axis=1)
        block = max(1, rows // hi.shape[1])
        for g in range(0, IH.size, block):
            yield hi[IH[g : g + block]] + lo[IL[g : g + block]]


def _parents(s, codes):
    """Least derivation (pred, gen) of each code of rank >= 1, as arrays.

    pred = code - generator gen has rank one lower, and pred * G + gen is
    least among all such pairs.  pred is summed digit by digit in int32:
    minus[j, a, g] is (a - digit j of g) at place j.  Codes come in chunks
    of _PULL_CHUNK // G, so a chunk holds at most _PULL_CHUNK pairs.
    """
    p, width, G = s.field.p, s.order + 1, s._gen_codes.size
    gen_digits = digits_of_codes(s._gen_codes, p, width).T[:, None]
    place = p ** np.arange(width - 1, -1, -1)[:, None, None]
    minus = ((np.arange(p)[:, None] - gen_digits) % p * place).astype(np.int32)
    sentinel = np.iinfo(np.int64).max
    best = np.empty(codes.size, dtype=np.int64)
    chunk = max(1, _PULL_CHUNK // G)
    for start in range(0, codes.size, chunk):
        c = codes[start : start + chunk]
        preds = sum(m[d] for m, d in zip(minus, digits_of_codes(c, p, width).T))
        keys = preds * np.int64(G) + np.arange(G)
        keys[s._rank_of[preds] != s._rank_of[c][:, None] - 1] = sentinel
        best[start : start + chunk] = keys.min(axis=1)
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
    vectors = []
    for _ in range(r):
        pred, gen = _parents(s, np.array([code]))
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
        return np.flatnonzero(self._rank_of == r).astype(np.int64, copy=False)


def simple_tensor_codes(field, k):
    """Sorted codes of the simple tensors, each built once: the factors are
    unique up to scalars, so each is lambda * (a1 (x) ... (x) ak) for exactly
    one lambda in F_p^* and points ai = (1, t) or (0, 1) of P^1."""
    p = field.p
    points = np.array([(1, t) for t in range(p)] + [(0, 1)], dtype=np.int64)
    products = reduce(np.kron, [points] * k)  # row-wise a1 (x) ... (x) ak
    return np.sort((np.arange(1, p)[:, None, None] * products % p @ full_place_values(p, k)).ravel())


def general_rank_strata(field, k, budget=DEFAULT_BUDGET):
    """Rank layers over the full tensor space; refuses oversized spaces."""
    p = field.p
    _refuse_oversized("full code space p^(2^k) =", p ** (1 << k), budget)
    rank_of, sizes = _layered_search(p, 1 << (k - 1), simple_tensor_codes(field, k))
    return GeneralRankStratification(field=field, order=k, sizes=sizes, _rank_of=rank_of)


def _mode1_classes(p, m):
    """(reps, close, monic) for the mode-1 classes of GL2, on full codes
    u1 * p^m + u2 with slices u1, u2 of m digits.

    reps are the int32 representatives, the nonzero codes with [u1; u2] in
    reduced row echelon form (pivot: leading nonzero digit; monic: pivot
    digit 1): u1 monic and u2 = 0, or u1 and u2 monic, the pivot of u2
    right of that of u1 and u1 zero there.  close(codes, r, rank_of)
    writes r to the classes of any codes, and monic[u] tells whether the
    m-digit slice u is monic.
    """
    H = p**m
    digits = digits_of_codes(np.arange(H), p, m)
    pivot = (digits == 0).cumprod(axis=1).sum(axis=1)  # m for u = 0
    monic = digits[np.arange(H), np.minimum(pivot, m - 1)] == 1  # leading digit 1
    reps = [np.flatnonzero(monic) * H]
    for j in range(1, m):
        u1 = np.flatnonzero(monic & (pivot < j) & (digits[:, j] == 0))
        reps.append((u1[:, None] * H + np.flatnonzero(monic & (pivot == j))).ravel())
    reps = np.concatenate(reps).astype(np.int32)  # every code is below 2^31
    place = p ** np.arange(m - 1, -1, -1)
    scale = np.stack([(a * digits % p) @ place for a in range(p)]).astype(np.int32)
    w = (m + 1) // 2
    add = _translations(np.arange(p**w), p, w)  # digit-wise sums of quarter codes
    a, b = np.divmod(np.arange(p * p), p)
    first, second = np.nonzero((a[:, None] * b - b[:, None] * a) % p)  # rows of A in GL2
    return reps, partial(_close, scale, add, first, second), monic


def _close(scale, add, first, second, codes, r, rank_of):
    """Ranks r the class A (u1, u2) = (a u1 + b u2, c u1 + d u2), A in GL2,
    of each code u1 * H + u2, a representative or not.

    Digit-wise, scale[a, u] is a u and add[x, y] is x + y on quarter codes.
    Over the invertible A, (a, b) = divmod(first, p) and (c, d) =
    divmod(second, p).  Codes come in chunks of _PULL_CHUNK // |GL2|, so
    each chunk's orbits take about _PULL_CHUNK int32 codes (1 MiB).
    """
    H, Q = scale.shape[1], add.shape[0]
    chunk = max(1, _PULL_CHUNK // first.size)
    for start in range(0, codes.size, chunk):
        u = codes[start : start + chunk]
        x, y = scale[:, None, u // H], scale[None, :, u % H]
        span = (add[x // Q, y // Q] * Q + add[x % Q, y % Q]).reshape(-1, u.size)
        rank_of[span[first] * H + span[second]] = r


def _layered_search(p, m, gens):
    """(rank_of, sizes) over the codes u1 * H + u2, H = p^m: the int8 rank
    of every code, -1 if never reached, and the size of each layer, from
    the simple tensor codes `gens`.

    Layers are searched on the representatives of _mode1_classes, each
    standing for p^2 - 1 codes when u2 = 0 and |GL2| otherwise.  Past the
    generators each layer either pushes from the representatives of rank
    r - 1, closing classes as it goes (those with u2 = 0 take only R, one
    generator per orbit of their stabilizer S: u2 = 0, or u1 = 0 and u2
    monic), or pulls the unranked representatives and then closes the
    classes left unranked (see the module docstring), marked -r - 2, after
    which every negative code shifts by r + 1, in slices of _PULL_CHUNK
    codes, so the unmarked unranked codes become r and the marked ones -1
    again."""
    H = p**m
    small, largest = p * p - 1, (p * p - 1) * (p * p - p)  # class sizes: u2 = 0, else |GL2|
    tables = _tables(gens, p, m)  # first: the other order peaks 1.2 MiB higher at p = 3, k = 4
    reps, close, monic = _mode1_classes(p, m)
    one_per_orbit = np.flatnonzero((gens % H == 0) | ((gens < H) & monic[gens % H]))
    rank_of = np.full(H * H, -1, dtype=np.int8)
    rank_of[0] = 0
    rank_of[gens] = 1
    sizes = [1, int(gens.size)]
    layer = reps[rank_of[reps] == 1]
    unranked = H * H - 1 - gens.size
    while unranked:
        r = len(sizes)
        if sizes[-1] * gens.size <= _PUSH_FACTOR * unranked:
            _push(layer, r, tables, rank_of, close, largest, one_per_orbit)
        else:
            _pull(reps[rank_of[reps] == -1], r, tables, rank_of)
            close(reps[rank_of[reps] == -1], -r - 2, rank_of)
            for start in range(0, H * H, _PULL_CHUNK):  # no whole-space temporary
                _shift(rank_of[start : start + _PULL_CHUNK], r + 1)
        layer = reps[rank_of[reps] == r]
        if layer.size == 0:
            break
        sizes.append(layer.size * small + int(np.count_nonzero(layer % H)) * (largest - small))
        unranked -= sizes[-1]
    return rank_of, sizes


def _shift(part, by):
    """Adds `by`, in place, to the negative entries of a slice of rank_of."""
    shift = (part < 0).view(np.int8)
    shift *= by
    part += shift


def _push(frontier, r, tables, rank_of, close, largest, one_per_orbit):
    """Ranks r the class of each unranked frontier code plus a generator.

    Codes with u2 != 0 take every generator, then those with u2 = 0, fixed
    by S, take only the generators at `one_per_orbit`, one per S-orbit (see
    the module docstring; the other order closes 217 186 codes, not
    155 965, at p = 3, k = 4).  This needs the generator set closed under
    the mode-1 action, as the simple tensors are.  Sums come in steps of
    about _PULL_CHUNK // largest (the largest class size), each
    re-filtered, so that a class closed by one step is skipped by the next;
    a class hit twice within one step is closed twice."""
    TH, IH, TL, IL, H = tables
    u2_zero = frontier % H == 0
    for part, ih, il in ((frontier[~u2_zero], IH, IL),
                         (frontier[u2_zero], IH[one_per_orbit], IL[one_per_orbit])):
        for codes in _translated(part, TH, ih, TL, il, H, _PULL_CHUNK // largest):
            close(codes[rank_of[codes] < 0], r, rank_of)


def _pull(candidates, r, tables, rank_of):
    """Ranks r the candidate codes u with some u - g (from the tables) of
    rank r - 1.

    Candidates come in chunks of |u| <= _PULL_CHUNK // 4, and generator
    blocks grow from 4 to 64 (most codes hit within a few) but stay within
    _PULL_CHUNK // |u|: a block tests <= _PULL_CHUNK pairs (1 MiB of sums).
    """
    TH, IH, TL, IL, H = tables
    for start in range(0, candidates.size, _PULL_CHUNK // 4):
        u = candidates[start : start + _PULL_CHUNK // 4]
        hi, lo = u // H, u % H
        g, block = 0, 2
        while g < IH.size and u.size:
            block = min(2 * block, 64, _PULL_CHUNK // u.size)  # >= 4, as |u| <= _PULL_CHUNK // 4
            codes = np.take(TH[IH[g : g + block]], hi, axis=1)
            codes += np.take(TL[IL[g : g + block]], lo, axis=1)
            hit = (rank_of[codes] == r - 1).any(axis=0)
            if hit.any():
                rank_of[u[hit]] = r
                miss = np.flatnonzero(~hit)
                u, hi, lo = u[miss], hi[miss], lo[miss]
            g += block
