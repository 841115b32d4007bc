"""Rank strata, searched one orbit at a time.

Stratum 0 is the zero tensor, stratum 1 the simple tensors (generators);
an unranked X + g with X in stratum r - 1 has rank r, and tensors never
reached have no decomposition.

Symmetric rank is constant on the orbits of the diagonal GL2 action, and
the generators a^(x)k are GL2-stable: g.a^(x)k = (ga)^(x)k.  So X = Y + b
gives h.X = h.Y + h.b for every h, and the orbits of rank r are exactly
the unranked orbits of Y + b over one representative Y of each orbit of
rank r - 1 and every generator b.  `symmetric_rank_strata` runs that
search over orbits (6 to 108 of them up to p = 23), adding the k+1 class
coefficients digit-wise; a sum still unranked starts an orbit, which is
written whole from its own images (see `group_action`): lam mu^j z_j for
the coset images z = M_h c, mu in F_p^* and lam in K, the nonzero k-th
powers, with the p (p + 1) matrices M_h of `action_stack`, built in
closed form with numpy.  With one gather table per class j, an orbit is
k + 1 gathers and adds.  Its least image is its canonical form, and its
size is |GL2| / (gcd(k, p - 1) * the number of images equal to the
least), the count `_scan` makes.  Codes still unranked after the last
layer (at (2,3), (2,4) and (3,4)) are swept one orbit at a time the same
way.  No parent links are stored: the derivation of a code c of rank r
is the least pred * G + gen with pred = c - generator gen of rank r - 1.
Generators are ordered by their least generating vector, so witnesses
are reproducible.

General strata run on full codes u1 * p^m + u2, m = 2^(k-1), whose two
m-digit slices u1, u2 are the mode-1 slices X1 and X2, and keep only
layer sizes and ranks.  The general rank of X depends only on
span(X1, X2) (Ja'Ja', "Optimal evaluation of pairs of bilinear forms",
SIAM J. Comput. 1979), so it is constant on the classes of GL2 acting on
mode 1; every layer is a union of classes, since A X + g = A (X + A^-1 g)
and A^-1 g is simple.  Adding a generator acts digit-wise on each slice
of a code, and the high and the low slices of the simple tensors are one
set, {0} and the simple (k-1)-tensors, so with one table of every slice
translated by each distinct generator slice, a sum is two row gathers
and one add, the high gather scaled by p^m; the simple tensors are
closed under negation, so the same table gives code - g.
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
rank r - 1 and closes, slice by slice, the classes it leaves unranked
(marked), while every other unranked code takes the rank in the shift
that follows.  At p = 3, k = 4 the layer-4 pull tests 761 404
representatives instead of 36.5 M codes and closes the 11 016 classes
left unranked instead of the 750 388 it ranked.  The representatives
are never held as one array: `_stream` adds them, in one fixed order,
as int32 slices of whole u1 rows of their per-pivot slice blocks, and
the search keeps one int8 rank per representative in that order, which
a gather through the stream refreshes after each push and a pull
updates itself.
A push of at least two _PULL_CHUNKs of sums, or a pull of as many
unranked representatives, runs on two threads where the process may use
two CPUs or more, by its affinity mask and its CPU quota: the calling
thread and one plain thread take its steps or slices in turn (Beamer et
al. ran both directions multithreaded; two is the count measured, see
`_workers`).  The table cannot depend on the
order: a pull thread writes r only to its own representatives, and
-r - 2 only to their classes, while the other tests for r - 1, which
neither write can change, and as a class has one representative, no
mark reaches another slice's; every push write stores r, so two threads
closing one class only repeat work; the shift runs after the threads
end.  At p = 3, k = 4 that is the layer-3 push and the layer-4 pull;
every smaller pair runs inline.  Besides the int8 rank table, the
uint16 translation table and the int8 rank of each representative
(0.9 MiB at p = 3, k = 4), each temporary of a pass holds about
_PULL_CHUNK entries, whatever the space: a stream slice, the sums and
row copies of a pull block (split between the threads), a closure chunk
(per thread), a shift slice.  A budget caps the space (p = 7, k = 4 with
~3.3e13 codes fails explicitly); codes are int32, so spaces beyond 2^31
codes are refused whatever the budget.
"""

import os
import threading
from functools import cached_property, partial, reduce
from itertools import chain
from math import gcd
from operator import index

from ._numpy import np
from .apolar import rank_one_generators
from .gfp import Frozen
from .group_action import DEFAULT_BUDGET, _compact_weights, _kth_powers, _refuse_oversized, action_stack, group_order
from .tensor import digits_of_codes

# a layer pushes iff |frontier| * G <= _PUSH_FACTOR * |unranked|; each
# temporary of a pass holds about _PULL_CHUNK entries
_PUSH_FACTOR = 10
_PULL_CHUNK = 1 << 18


class RankStratification(Frozen):
    """Symmetric-rank layers of all p^(k+1) symmetric tensors.

    Ranks and generator codes are kept on compact codes, with one
    (rank, least compact code, size) triple per orbit, rank -1 for the
    undecomposable ones.  The full-code lists, strata[r] (the codes of
    rank r) and undecomposable (those never reached), are built on first
    access.
    """

    # generator_vectors: the vector per generator, in BFS tie-break order;
    # _gen_codes: the compact code per generator; _orbits: the orbit triples
    __match_args__ = ("field", "order", "generator_vectors", "_rank_of", "_gen_codes", "_orbits")
    # numpy arrays have no truth value, so a stratification equals only itself
    __eq__, __hash__ = object.__eq__, object.__hash__

    @cached_property
    def _counts(self):  # [undecomposable, rank 0, rank 1, ...]
        top = max(r for r, _, _ in self._orbits)
        return [sum(n for r, _, n in self._orbits if r == s) for s in range(-1, top + 1)]

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
        if self.field.p ** (1 << self.order) > 1 << 63:
            raise OverflowError(f"full codes at p={self.field.p}, order {self.order} "
                                "pass the int64 limit of 2^63")
        weights = np.array(_compact_weights(self.field.p, self.order), dtype=np.int64)
        return reduce(np.add.outer, np.arange(self.field.p) * weights[:, None]).ravel()


def symmetric_rank_strata(field, k, budget=DEFAULT_BUDGET, stack=None):
    """Symmetric rank of every compact code over F_p, order k, searched one
    orbit at a time; `stack` is action_stack(field, k) if already built."""
    p = field.p
    _refuse_oversized("symmetric code space", p ** (k + 1), budget)
    gens = rank_one_generators(field, k)
    gen_codes = np.array([c for c, _ in gens], dtype=np.int64)
    rank = np.full(p ** (k + 1), -1, dtype=np.int8)
    write = _orbit_writer(action_stack(field, k) if stack is None else stack, rank, group_order(field), p, k)
    # layer r: the unranked sums of each representative of rank r - 1 and
    # every generator, digit-wise; each starts an orbit, written whole
    place, gen_digits = p ** np.arange(k, -1, -1), digits_of_codes(gen_codes, p, k + 1)
    rank[0], orbits, layer, r = 0, [(0, 0, 1)], [0], 0  # zero is its own orbit
    while layer:
        r += 1
        sums = ((digits_of_codes(layer, p, k + 1)[:, None] + gen_digits) % p @ place).ravel()
        fresh = [(r, *write(c, r)) for c in sums[rank[sums] == -1].tolist() if rank[c] == -1]
        orbits += fresh
        layer = [c for _, c, _ in fresh]
    # codes never reached are undecomposable; they are swept one orbit at a
    # time, marked -2 so that only unswept codes (-1) start one, then -1
    if sum(n for _, _, n in orbits) < rank.size:
        orbits += [(-1, *write(c, -2)) for c in np.flatnonzero(rank == -1).tolist() if rank[c] == -1]
        rank[rank == -2] = -1
    return RankStratification(field, k, [vec for _, vec in gens], rank, gen_codes, orbits)


def _orbit_writer(stack, rank, n_group, p, k):
    """write(code, r): writes r to the orbit of a compact code in `rank`
    and returns (least compact code, orbit size).

    The images are lam mu^j z_j over the coset images z = stack @ c, with
    gather tables A[j, z, s] = (z lam_s mu_s^j mod p) p^(k-j), one column s
    per (lam, mu) in K x F_p^*, in int32, as every code is below 2^31."""
    K, mu, j = np.array(_kth_powers(p, k)), np.arange(1, p), np.arange(k + 1)
    scales = (K[:, None] * mu ** j[:, None, None] % p).reshape(k + 1, 1, -1)  # lam outer, mu inner
    A = (np.arange(p)[:, None] * scales % p * p ** (k - j)[:, None, None]).astype(np.int32)
    per_image = gcd(k, p - 1)  # torus elements giving each (lam, mu)

    def write(code, r):
        digits = []
        for _ in range(k + 1):
            code, d = divmod(code, p)
            digits.append(d)
        z = stack @ digits[::-1] % p
        codes = A[0][z[:, 0]]
        for j in range(1, k + 1):
            codes += A[j][z[:, j]]
        rank[codes] = r
        least = codes.min()
        return int(least), n_group // (per_image * int(np.count_nonzero(codes == least)))

    return write


def _tables(gen_codes, p, m):
    """(T, IH, IL, H) with code + g == T[IH[g], code // H] * H
    + T[IL[g], code % H] digit-wise, H = p^m: one uint16 table with a row
    per distinct mode-1 slice of either half, as the high and the low
    slices of the simple tensors are one set, {0} and the simple
    (k-1)-tensors; sums go to int32 as the high half is scaled by H."""
    H = p**m
    # one unique over 1-D input: its inverse is flat on numpy 1.x and 2.x
    slices, index = np.unique(np.concatenate(divmod(gen_codes, H)), return_inverse=True)
    return (_translations(slices, p, m), *index.reshape(2, -1), H)


def _translations(gen_parts, p, width):
    """(len(gen_parts), p^width) uint16 table: every code plus each part,
    digit-wise, built as a Kronecker sum one digit at a time, least
    significant first.  Its entries are below p^width, and every half of an
    int32 code space is below 46 341."""
    digits = digits_of_codes(gen_parts, p, width)
    T = np.zeros((len(gen_parts), 1), dtype=np.uint16)
    for j in range(width - 1, -1, -1):
        top = ((np.arange(p) + digits[:, j, None]) % p * p ** (width - 1 - j)).astype(np.uint16)
        T = (top[:, :, None] + T[:, None, :]).reshape(len(gen_parts), -1)
    return T


def _translated(frontier, T, IH, IL, H, rows):
    """Yields frontier + every generator in blocks of about `rows` sums, a
    slice of the frontier plus a run of generators, slice by slice, each
    block as (hi, lo, ih, il) with sums hi[ih] + lo[il] in int32.  Each
    slice takes its high and low columns of the table once (at most
    _PULL_CHUNK // 2 entries each) and scales the high ones by H, so a
    block's sums are two row gathers and an add, made by whoever takes it."""
    step = max(1, _PULL_CHUNK // (2 * T.shape[0]))
    for start in range(0, frontier.size, step):
        f = frontier[start : start + step]
        hi = np.multiply(np.take(T, f // H, axis=1), H, dtype=np.int32)
        lo = np.take(T, f % H, axis=1)
        block = max(1, rows // hi.shape[1])
        for g in range(0, IH.size, block):
            yield hi, lo, IH[g : g + block], IL[g : g + block]


def _workers():
    """The threads a large pass runs on: the CPUs this process may use (all
    of them where the platform has no affinity), at most two, and at most
    the whole CPUs of its CPU quota.  Two vCPUs are all that perfbench
    pairs have measured.  A pull thread's blocks shrink with every thread
    added (_PULL_CHUNK // workers pairs): with _PULL_CHUNK at 2^15, a
    budget of 2^14 per thread as 16 threads would get by default, p = 3,
    k = 4 took 1.78 s on two threads against 0.87 s inline; and each thread
    holds its own closure chunk and malloc arena.  With one CPU of quota
    and a two-CPU mask, the (3,4) pull took 0.222 s on two threads against
    0.175 s inline."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, 2, _cpu_quota() or cpus)


def _cpu_quota():
    """max(1, quota // period) of the cgroup CPU quota, from cgroup v2's
    cpu.max or else v1's cfs_quota_us and cfs_period_us; None where there
    is none (a quota of max or -1) or no file can be read as one."""
    for paths in (["cpu.max"], ["cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us"]):
        try:
            quota, period = (int(word) for path in paths for word in _read("/sys/fs/cgroup/" + path).split())
        except (OSError, ValueError):
            continue
        return max(1, quota // period) if quota > 0 and period > 0 else None
    return None


def _read(path):
    with open(path) as file:
        return file.read()


def _share(work, workers):
    """The threads a pass runs on, from its `work` (a push's sums, a pull's
    unranked representatives): all `workers` from two _PULL_CHUNKs on, else
    the calling thread alone, so a small pass starts no thread."""
    return workers if work >= 2 * _PULL_CHUNK else 1


def _in_turn(task, items, workers):
    """Calls task(item) for every item of the iterable `items`, which the
    calling thread and workers - 1 more threads take in turn (one at a
    time, under a lock, so `items` may be a generator).  The first error
    raised in any thread stops them all from taking more and is raised
    here, after every thread has stopped."""
    items, lock, errors = iter(items), threading.Lock(), []

    def run():
        try:
            while not errors:
                with lock:
                    item = next(items, None)
                if item is None:
                    return
                task(item)
        except BaseException as error:
            errors.append(error)

    threads = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=run)
            thread.start()
            threads.append(thread)
    except BaseException as error:  # a thread that cannot start stops the others
        errors.append(error)
    run()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# General (unconstrained) rank over the full tensor space
# ---------------------------------------------------------------------------

class GeneralRankStratification(Frozen):
    """Rank layers of the full p^(2^k) tensor space.

    Holds per-layer sizes and a rank lookup table over full codes; the
    member lists themselves are not materialized (the space reaches
    tens of millions of codes) and no parent links are recorded.  Rank is
    constant on the classes of GL2 acting on mode 1 (Ja'Ja'), so every
    layer past the generators is searched on the reduced row echelon
    representatives of the slice matrix [X1; X2], and ranks are written
    to whole classes (see the module docstring).
    """

    __match_args__ = ("field", "order", "sizes", "_rank_of")
    __eq__, __hash__ = object.__eq__, object.__hash__  # as RankStratification's

    @property
    def max_rank(self):
        return len(self.sizes) - 1

    def rank_of_code(self, code):
        """The rank of the tensor with full code `code`, None if it has no
        decomposition; ValueError unless `code` is an integer (not a bool)
        in [0, p^(2^k))."""
        try:
            at = -1 if isinstance(code, bool) else index(code)
        except TypeError:
            at = -1
        if not 0 <= at < self._rank_of.size:
            raise ValueError(f"code {code!r} is not an integer in [0, {self._rank_of.size})")
        r = int(self._rank_of[at])
        return None if r < 0 else r


def simple_tensor_codes(field, k):
    """Sorted codes of the simple tensors, each built once: the factors are
    unique up to scalars, so each is lambda * (a1 (x) ... (x) ak) for exactly
    one lambda in F_p^* and points ai = (1, t) or (0, 1) of P^1."""
    p = field.p
    points = np.array([(1, t) for t in range(p)] + [(0, 1)], dtype=np.int64)
    products = reduce(np.kron, [points] * k)  # row-wise a1 (x) ... (x) ak
    place = p ** np.arange((1 << k) - 1, -1, -1, dtype=np.int64)  # of the 2^k flattened positions
    return np.sort((np.arange(1, p)[:, None, None] * products % p @ place).ravel())


def general_rank_strata(field, k, budget=DEFAULT_BUDGET):
    """Rank layers over the full tensor space; refuses oversized spaces."""
    p = field.p
    _refuse_oversized("full code space p^(2^k) =", p ** (1 << k), budget)
    rank_of, sizes = _layered_search(p, 1 << (k - 1), simple_tensor_codes(field, k))
    return GeneralRankStratification(field=field, order=k, sizes=sizes, _rank_of=rank_of)


def _mode1_classes(p, m):
    """(blocks, close, monic) for the mode-1 classes of GL2, on full codes
    u1 * p^m + u2 with slices u1, u2 of m digits.

    The representatives are the nonzero codes with [u1; u2] in reduced row
    echelon form (pivot: leading nonzero digit; monic: pivot digit 1): u1
    monic and u2 = 0, or u1 and u2 monic, the pivot of u2 right of that of
    u1 and u1 zero there.  blocks holds them as one (u1, u2) pair of slice
    arrays per pivot of u2 (the first for u2 = 0), which `_stream` adds
    row by row; no array holds them all.  close(codes, r, rank_of) writes
    r to the classes of any codes, and monic[u] tells whether the m-digit
    slice u is monic.
    """
    H = p**m
    digits = digits_of_codes(np.arange(H), p, m)
    pivot = (digits == 0).cumprod(axis=1).sum(axis=1)  # m for u = 0
    monic = digits[np.arange(H), np.minimum(pivot, m - 1)] == 1  # leading digit 1
    blocks = [(np.flatnonzero(monic), np.zeros(1, dtype=np.intp))]
    blocks += [(np.flatnonzero(monic & (pivot < j) & (digits[:, j] == 0)), np.flatnonzero(monic & (pivot == j)))
               for j in range(1, m)]
    place = p ** np.arange(m - 1, -1, -1)
    scale = np.stack([(a * digits % p) @ place for a in range(p)]).astype(np.int32)
    w = (m + 1) // 2
    add = _translations(np.arange(p**w), p, w)  # digit-wise sums of quarter codes
    a, b = np.divmod(np.arange(p * p), p)
    first, second = np.nonzero((a[:, None] * b - b[:, None] * a) % p)  # rows of A in GL2
    return blocks, partial(_close, scale, add, first, second), monic


def _stream(blocks, H, size):
    """Yields the representatives of `blocks`, in order, as (start, codes):
    int32 codes u1 * H + u2 of whole u1 rows, about `size` of them (one row
    at least), from offset `start` of the order."""
    start = 0
    for u1, u2 in blocks:
        rows = max(1, size // u2.size)
        for i in range(0, u1.size, rows):
            codes = np.add.outer(u1[i : i + rows] * H, u2, dtype=np.int32).ravel()  # codes are below 2^31
            yield start, codes
            start += codes.size


def _close(scale, add, first, second, codes, r, rank_of):
    """Ranks r the class A (u1, u2) = (a u1 + b u2, c u1 + d u2), A in GL2,
    of each code u1 * H + u2, a representative or not.

    Digit-wise, scale[a, u] is a u and add[x, y] is x + y on quarter codes.
    Over the invertible A, (a, b) = divmod(first, p) and (c, d) =
    divmod(second, p).  Codes come in chunks of _PULL_CHUNK // |GL2|, so
    each chunk's orbits take about _PULL_CHUNK int32 codes (1 MiB), summed
    from as many uint16 slices per row of A.
    """
    H, Q = scale.shape[1], add.shape[0]
    chunk = max(1, _PULL_CHUNK // first.size)
    for start in range(0, codes.size, chunk):
        u = codes[start : start + chunk]
        x, y = scale[:, None, u // H], scale[None, :, u % H]
        span = (add[x // Q, y // Q] * Q + add[x % Q, y % Q]).reshape(-1, u.size)  # uint16, below H
        orbit = np.multiply(span[first], H, dtype=np.int32)
        orbit += span[second]
        rank_of[orbit] = r


def _layered_search(p, m, gens):
    """(rank_of, sizes) over the codes u1 * H + u2, H = p^m: the int8 rank
    of every code, -1 if never reached, and the size of each layer, from
    the simple tensor codes `gens`.

    Layers are searched on the representatives of _mode1_classes, each
    standing for p^2 - 1 codes when u2 = 0 and |GL2| otherwise, streamed
    by `_stream` and kept as one int8 rank per representative, `ranks`:
    the layer counts, the push frontier and the pull's unranked filter
    read it, one gather through the stream refreshes it after the
    generators and after each push, and a pull updates it itself.  Past
    the generators each layer either pushes from the representatives of
    rank r - 1, closing classes as it goes (those with u2 = 0 take only R,
    one generator per orbit of their stabilizer S: u2 = 0, or u1 = 0 and
    u2 monic), or pulls the unranked representatives, closing the classes
    it leaves unranked (see the module docstring), marked -r - 2, after
    which every negative code shifts by r + 1, in slices of _PULL_CHUNK
    codes, so the unmarked unranked codes become r and the marked ones -1
    again, as their ranks already are.  Large passes run on up to two CPUs
    (see the module docstring); the shift runs after them."""
    H = p**m
    small, largest = p * p - 1, (p * p - 1) * (p * p - p)  # class sizes: u2 = 0, else |GL2|
    tables = _tables(gens, p, m)  # first: the other order peaks 0.8 MiB higher at p = 3, k = 4
    blocks, close, monic = _mode1_classes(p, m)
    one_per_orbit = np.flatnonzero((gens % H == 0) | ((gens < H) & monic[gens % H]))
    rank_of = np.full(H * H, -1, dtype=np.int8)
    rank_of[0], rank_of[gens] = 0, 1
    sizes, workers = [1], _workers()
    flat = int(np.count_nonzero(monic))  # the representatives (u1, 0) come first
    r, left, unranked = 1, sum(u1.size * u2.size for u1, u2 in blocks), H * H - 1  # unranked representatives, codes
    ranks = np.empty(left, dtype=np.int8)

    def gather():
        for start, codes in _stream(blocks, H, _PULL_CHUNK):
            ranks[start : start + codes.size] = rank_of[codes]

    gather()
    while True:
        # the representatives of rank r, with u2 = 0 and with u2 != 0
        fixed, wide = (int(np.count_nonzero(part == r)) for part in (ranks[:flat], ranks[flat:]))
        if fixed + wide == 0:
            break
        sizes.append(fixed * small + wide * largest)
        left, unranked, r = left - fixed - wide, unranked - sizes[-1], r + 1
        if not unranked:
            break
        if sizes[-1] * gens.size <= _PUSH_FACTOR * unranked:
            busy = _share(wide * gens.size + fixed * one_per_orbit.size, workers)  # by the push's sums
            frontier = np.concatenate([codes[ranks[start : start + codes.size] == r - 1]
                                       for start, codes in _stream(blocks, H, _PULL_CHUNK)])
            _push(frontier, r, tables, rank_of, close, largest, one_per_orbit, busy)
            gather()
        else:
            _pull(blocks, ranks, r, tables, rank_of, close, _share(left, workers))
            for start in range(0, H * H, _PULL_CHUNK):  # no whole-space temporary
                _shift(rank_of[start : start + _PULL_CHUNK], r + 1)
    return rank_of, sizes


def _shift(part, by):
    """Adds `by`, in place, to the negative entries of a slice of rank_of."""
    shift = (part < 0).view(np.int8)
    shift *= by
    part += shift


def _push(frontier, r, tables, rank_of, close, largest, one_per_orbit, workers):
    """Ranks r the class of each unranked frontier code plus a generator;
    the frontier is the representatives of rank r - 1, taken from the
    stream by their ranks.

    Codes with u2 != 0 take every generator, then those with u2 = 0, fixed
    by S, take only the generators at `one_per_orbit`, one per S-orbit (see
    the module docstring; the other order closes 217 186 codes, not
    155 965, at p = 3, k = 4).  This needs the generator set closed under
    the mode-1 action, as the simple tensors are.  Sums come in steps of
    about _PULL_CHUNK // largest (the largest class size), which the
    `workers` threads take in turn, each adding its step's two row gathers
    itself (only a slice's column takes run while the next step is handed
    out) and re-filtering it, so that a class closed by one step is
    skipped by the later ones; a class hit twice within one step, or by
    two threads at once, is closed twice, and as every write stores r,
    the table does not depend on the order.  Steps keep their size
    whatever `workers` is: at p = 3, k = 4 on two CPUs, half-size steps
    took 0.13-0.14 s against 0.10 s, as each step's dozen numpy calls hand
    the GIL over, and no more was resident at the peak."""
    T, IH, IL, H = tables
    u2_zero = frontier % H == 0
    rows = _PULL_CHUNK // largest
    passes = ((frontier[~u2_zero], slice(None)), (frontier[u2_zero], one_per_orbit))

    def close_unranked(block):
        hi, lo, ih, il = block
        codes = hi[ih] + lo[il]
        close(codes[rank_of[codes] < 0], r, rank_of)

    blocks = chain.from_iterable(_translated(part, T, IH[g], IL[g], H, rows) for part, g in passes)
    _in_turn(close_unranked, blocks, workers)


def _pull(blocks, ranks, r, tables, rank_of, close, workers):
    """Ranks r the unranked representatives u with some u - g (from the
    table) of rank r - 1, in `ranks` and in rank_of, and closes the classes
    of the others marked -r - 2.

    The `workers` threads take the representatives of `blocks` in turn, as
    _stream slices of about _PULL_CHUNK // (4 * workers), each filtered to
    its unranked codes through its part of `ranks`, so no array of the
    pass holds them all.  Generator blocks double from 4 (most codes hit
    within a few) while a block tests at most _PULL_CHUNK // workers pairs
    and copies at most as many table entries per half (one row at least:
    at p = 3, k = 4, 39 rows on one worker).  A thread writes r only to its
    own representatives, and -r - 2 only to their classes, while every
    thread tests for r - 1: neither write can change that test, and as a
    class has one representative, no mark reaches another slice's, so the
    table does not depend on the order.
    """
    T, IH, IL, H = tables
    budget = _PULL_CHUNK // workers

    def pull(item):
        start, u = item
        own = ranks[start : start + u.size]
        at = np.flatnonzero(own == -1)
        u = u[at]
        hi, lo = np.divmod(u, H)
        g, block = 0, 2
        while g < IH.size and u.size:
            block = max(1, min(2 * block, budget // H, budget // u.size))
            codes = np.multiply(np.take(T[IH[g : g + block]], hi, axis=1), H, dtype=np.int32)
            codes += np.take(T[IL[g : g + block]], lo, axis=1)
            hit = (rank_of[codes] == r - 1).any(axis=0)
            if hit.any():
                rank_of[u[hit]] = own[at[hit]] = r
                miss = np.flatnonzero(~hit)
                u, hi, lo, at = u[miss], hi[miss], lo[miss], at[miss]
            g += block
            del codes, hit  # before the next block's and the closure's (0.4 MiB at p = 3, k = 4)
        close(u, -r - 2, rank_of)

    _in_turn(pull, _stream(blocks, H, max(1, budget // 4)), workers)
