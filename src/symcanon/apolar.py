"""One tensor's symmetric rank and least derivation, from the points of P^1
alone: no whole space, and pure Python, so no query loads numpy.

A tensor's compact coefficients c are a binary form, and every generator is
lam c(P) for one point P of P^1, (1, t) or (0, 1), with c(P)_j =
v1^(k-j) v2^j, and lam in K, the nonzero k-th powers.  Grouping terms by
point, rank(c) is the least sum of w(mu_P) over the solutions of
sum mu_P c(P) = c, where w(x) is the least number of terms in K summing
to x.  Any k + 1 of the columns c(P) are independent (they form a doubly
extended Reed-Solomon parity-check matrix, which is MDS: MacWilliams and
Sloane, 1977, ch. 10-11), so a solution on at most k + 1 points is the
unique one on some basis B of k + 1 points.  Apolarity gives it in closed
form (Sylvester 1851; Comas and Seiguer, "On the rank of a binary form",
FoCM 2011): the form L_S = prod over Q in S of (q2 x - q1 y) vanishes
exactly at the k points of S, and <L_S, c(P)> = L_S(P), so on
B = S + {P} the coefficient of P is <L_S, c> / L_S(P).  A cost of at most
k lies on some S with <L_S, c> = 0, so those S are tried first; then
every basis, whose least cost b is the rank when b <= k + 2, since a
solution on s > k + 1 points costs at least s; past that the supports of
k + 2 ... b - 1 points are enumerated, and with p + 1 <= k points (no
basis) every coefficient vector is.  The predecessors one rank lower are
exactly c - lam c(P) with w(mu_P - lam) = w(mu_P) - 1 in some least-cost
solution mu, so each step of the least derivation reads them off the
least-cost solutions on bases, and from rank k + 2 on also tries the
generators below those, in order, by the rank of their predecessor.
A query counts its solves against the budget: (k + 1) C(p + 1, k + 1)
for the bases and any enumeration on top, before it starts.
"""

import sys
from array import array
from functools import cached_property, lru_cache, partial, reduce
from itertools import chain, combinations, compress, count, product, repeat
from math import comb, gcd
from operator import add, floordiv, getitem, itemgetter, mul, not_

from .errors import AsymmetricTensorError, UndecomposableError
from .gfp import FieldSpec, Frozen
from .group_action import DEFAULT_BUDGET, _kth_powers, _refuse_oversized
from .tensor import compact_from_full, is_symmetric, symmetric_outer_power

_SLOT_FORMAT = {16: "H", 64: "Q"}


class Witness(Frozen):
    """Vectors whose symmetric outer powers sum to the decomposed tensor."""

    __match_args__ = ("vectors",)  # ((v1, v2), ...), length == symmetric rank


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


class _PointTable:
    """The data of the p + 1 points of P^1 at one (p, k).  Points are (1, t)
    for t < p, then (0, 1); a subset of points is a tuple of their indices,
    and the subsets of one size are listed in combinations order."""

    def __init__(self, p, k):
        self.p, self.k = p, k
        points = [(1, t) for t in range(p)] + [(0, 1)]
        # c(P) per point; K, the nonzero k-th powers, of index g in F_p^*;
        # w[x], the least number of terms in K summing to x
        self.cols = [tuple(pow(v1, k - j, p) * pow(v2, j, p) % p for j in range(k + 1))
                     for v1, v2 in points]
        self.g, self.K = gcd(k, p - 1), _kth_powers(p, k)
        self.w, layer, n = [0] + [None] * (p - 1), [0], 0
        while layer:
            n += 1
            layer = [y for y in {(x + a) % p for x in layer for a in self.K} if self.w[y] is None]
            for y in layer:
                self.w[y] = n
        # w is constant on the classes of F_p^* / K: x = omega^e has class
        # e mod g, omega a primitive root, and weights[x][e] is w(x / y) for
        # y of class e, as bytes (w <= g <= k); cls[0] = g
        omega = next(x for x in range(1, p) if len({pow(x, e, p) for e in range(p - 1)}) == p - 1)
        self.cls = [self.g] * p
        for e in range(p - 1):
            self.cls[pow(omega, e, p)] = e % self.g
        self.weights = [bytes(self.w[pow(omega, self.cls[x] - e, p)] if x else 0
                              for e in range(self.g)) for x in range(p)]
        self.inverse = [0] + [pow(x, p - 2, p) for x in range(1, p)]
        # L_S is the product of the forms q2 x - q1 y, Q in S, each vanishing
        # at its Q, so <L_S, c(P)> = L_S(P); one subset size at a time, each
        # subset from its prefix
        forms = {(): [1]}
        for size in range(1, k + 1):
            forms = {S: [(a * points[S[-1]][1] - b * points[S[-1]][0]) % p
                         for a, b in zip(forms[S[:-1]] + [0], [0] + forms[S[:-1]])]
                     for S in combinations(range(p + 1), size)}
        self.forms, self.index = list(forms.values()), {S: n for n, S in enumerate(forms)}
        # the forms reversed, one per block of 2k + 1 slots of `width` bits
        self.width = 16 if (k + 1) * (p - 1) ** 2 < 1 << 16 else 64
        blocks = [v for f in self.forms for v in f[::-1] + [0] * k]
        self.packed = int.from_bytes(array(_SLOT_FORMAT[self.width], blocks).tobytes(), sys.byteorder)

    def dots(self, c):
        """<L_S, c> mod p for every S, from one product of integers: slot k
        of block S of packed * sum c_j 2^(width j) is the sum of at most
        k + 1 products below p^2, below 2^width, so no slot carries."""
        n = 2 * self.k + 1
        x = (self.packed * sum(v << self.width * j for j, v in enumerate(c))).to_bytes(
            len(self.forms) * n * self.width // 8, sys.byteorder)
        return [v % self.p for v in memoryview(x).cast(_SLOT_FORMAT[self.width])[self.k :: n]]

    def _bases(self):  # the (k+1)-subsets B, in combinations order
        return combinations(range(self.p + 1), self.k + 1)

    @cached_property
    def points(self):  # per B, the points b of reversed(B)
        return array("H", chain.from_iterable(map(reversed, self._bases())))

    @cached_property
    def at(self):  # at[P][S] = L_S(P)
        return [array("H", self.dots(col)) for col in self.cols]

    @cached_property
    def slots(self):
        """Per B and b in reversed(B): S * g + the class of L_S(b), S = B - b,
        each value one shared int."""
        subsets = chain.from_iterable(map(partial(combinations, r=self.k), self._bases()))
        subsets = map(self.index.__getitem__, subsets)
        if self.g == 1:
            return list(subsets)
        values = list(range((len(self.forms) + 1) * self.g))  # cls[0] = g at P in S, never read
        rows = [list(map(values.__getitem__, map(add, count(0, self.g), map(self.cls.__getitem__, L))))
                for L in self.at]
        return list(map(getitem, map(rows.__getitem__, self.points), subsets))

    @cached_property
    def ext(self):  # per S, a basis holding it
        basis = map((self.k + 1).__rfloordiv__, count())  # of each slot
        held = dict(zip(map(floordiv, self.slots, repeat(self.g)), basis))
        return list(map(held.__getitem__, range(len(self.forms))))

    @cached_property
    def terms(self):  # every slot at once, basis after basis
        return itemgetter(*self.slots)

    @cached_property
    def generators(self):
        """(compact code -> index, least vector per index) of the simple
        tensors, in the order of rank_one_generators."""
        gens = rank_one_generators(FieldSpec(self.p), self.k)
        return {code: i for i, (code, _) in enumerate(gens)}, [vec for _, vec in gens]


_point_table = lru_cache(maxsize=4)(_PointTable)


def _scan_work(p, k):
    """(what, how many): the coefficients a scan of every basis solves, or
    the coefficient vectors it tries when p + 1 <= k points leave no basis."""
    if p < k:
        return "coefficient vectors p^(p+1) =", p ** (p + 1)
    return "basis scan of (k+1) C(p+1, k+1) =", (k + 1) * comb(p + 1, k + 1)


def _prepared(X, budget):
    """(compact coefficients, point table) of a symmetric X whose scan fits the budget."""
    if not is_symmetric(X):
        raise AsymmetricTensorError("symmetric rank is defined for symmetric tensors")
    p, k = X.field.p, X.order
    _refuse_oversized(*_scan_work(p, k), budget, int32=False)
    return compact_from_full(X).coeffs, _point_table(p, k)


def _least(c, t, budget, pairs=False):
    """(r, found): the symmetric rank r of coefficients c, None when they
    have no decomposition, and, if `pairs`, the nonzero (point, coefficient)
    pairs of every solution of cost r on at most k + 1 points."""
    p, k, n = t.p, t.k, t.k + 1
    if p < k:  # p + 1 <= k independent columns: one solution at most
        for mu in product(range(p), repeat=p + 1):
            if all(sum(m * col[j] for m, col in zip(mu, t.cols)) % p == x for j, x in enumerate(c)):
                return sum(t.w[m] for m in mu), {(P, m) for P, m in enumerate(mu) if m}
        return None, set()
    if not any(c):
        return 0, set()
    d = t.dots(c)
    tw = b"".join(map(t.weights.__getitem__, d))
    # a cost of at most k takes at most k points, so it is the solution on
    # some S with <L_S, c> = 0, and on a basis holding S; past that no basis
    # costs less than k + 1
    held = list(compress(t.ext, map(not_, d)))
    cost = [sum(map(tw.__getitem__, t.slots[n * b : n * b + n])) for b in held]
    r = min(cost, default=n)
    if r > k:
        if not pairs and n in map(sum, zip(*[iter(t.terms(tw))] * n)):
            return n, None
        cost = list(map(sum, zip(*[iter(t.terms(tw))] * n)))
        held = range(len(cost))
        r = min(cost)
        if r > k + 2:  # k + 2 or more points cost at least as many
            r = _supports(c, t, r, budget)
    if not pairs:
        return r, None
    # on basis B the coefficient of Q is <L_S, c> / L_S(Q), S = B - Q
    at, g, spans = t.at, t.g, [slice(n * b, n * b + n) for b, v in zip(held, cost) if v == r]
    return r, {(q, d[s // g] * t.inverse[at[q][s // g]] % p) for span in spans
               for q, s in zip(t.points[span], t.slots[span]) if d[s // g]}


def _supports(c, t, bound, budget):
    """The least cost below `bound` of a solution with no zero coefficient
    on s points, k + 2 <= s, else `bound`.  On s points T = B + F, B the
    first k + 1, each choice of the coefficients on F leaves one solution
    on B, and a solution on s points costs at least s."""
    p, k = t.p, t.k
    sizes = range(k + 2, min(bound, p + 2))
    work = _scan_work(p, k)[1] + (k + 1) * sum(comb(p + 1, s) * (p - 1) ** (s - k - 1) for s in sizes)
    _refuse_oversized("basis scan and support enumeration =", work, budget, int32=False)
    best = bound
    for s in sizes:
        for T in combinations(range(p + 1), s) if s < best else ():
            B, free = T[: k + 1], T[k + 1 :]
            forms = [t.forms[t.index[B[:i] + B[i + 1 :]]] for i in range(k + 1)]
            inverse = [pow(sum(map(mul, f, t.cols[b])), p - 2, p) for f, b in zip(forms, B)]
            for nu in product(range(1, p), repeat=len(free)):
                y = [(x - sum(v * t.cols[f][j] for v, f in zip(nu, free))) % p
                     for j, x in enumerate(c)]
                mu = [sum(map(mul, f, y)) * u % p for f, u in zip(forms, inverse)]
                if all(mu):
                    best = min(best, sum(t.w[v] for v in nu + tuple(mu)))
    return best


def _code(coeffs, p):
    return reduce(lambda code, v: code * p + v, coeffs, 0)


def _step(c, r, found, t, budget):
    """(pred, generator vector): the least derivation of c, of rank r, whose
    least-cost solutions on at most k + 1 points give the pairs `found`.

    pred = c - lam c(P), lam in K, has rank r - 1 exactly when P has some
    coefficient m in a least-cost solution with w(m - lam) = w(m) - 1, and
    the least pred * G + gen among those is taken.  From r = k + 2 on a
    least-cost solution may take more than k + 1 points, so the generators
    below that least one are tried in order, each by the rank of its pred.
    """
    p, k, w = t.p, t.k, t.w

    def key(P, lam):
        pred = [(x - lam * y) % p for x, y in zip(c, t.cols[P])]
        return _code(pred, p), t.generators[0][_code([lam * y % p for y in t.cols[P]], p)], pred

    best = min((key(P, lam) for P, m in found for lam in t.K if w[(m - lam) % p] == w[m] - 1),
               default=None)
    if r >= k + 2 and len(t.cols) >= k + 2:
        for cand in sorted(key(P, lam) for P in range(p + 1) for lam in t.K):
            if best is not None and cand >= best:
                break
            if _least(cand[2], t, budget)[0] == r - 1:
                best = cand
                break
    if best is None:
        raise AssertionError("no predecessor one rank lower; point table corrupt")
    return best[2], t.generators[1][best[1]]


def symmetric_rank(X, budget=DEFAULT_BUDGET):
    """The symmetric rank of X, or None when it has no decomposition."""
    c, t = _prepared(X, budget)
    return _least(c, t, budget)[0]


def decompose(X, budget=DEFAULT_BUDGET):
    """Vectors whose symmetric outer powers sum to X, along least derivations.

    The witness is re-evaluated before it is returned.  Undecomposable
    input raises UndecomposableError.
    """
    c, t = _prepared(X, budget)
    r, found = _least(c, t, budget, pairs=True)
    if r is None:
        raise UndecomposableError("tensor has no symmetric decomposition")
    vectors = []
    for r in range(r, 0, -1):
        c, vector = _step(c, r, found, t, budget)
        vectors.append(vector)
        below, found = _least(c, t, budget, pairs=True)
        if below != r - 1:
            raise AssertionError("predecessor is not one rank lower; point table corrupt")
    vectors.reverse()

    p = X.field.p
    total = [0] * (1 << X.order)
    for v in vectors:
        term = symmetric_outer_power(v, X.order, X.field)
        total = [(a + b) % p for a, b in zip(total, term.entries)]
    if tuple(total) != X.entries:
        raise AssertionError("witness re-evaluation failed; point table corrupt")
    return Witness(tuple(vectors))
