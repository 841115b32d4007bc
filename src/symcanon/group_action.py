"""The diagonal GL2(F_p) action on 2 x ... x 2 tensors.

A group element g acts along one mode by replacing every mode fiber
[v1, v2] with [g11 v1 + g12 v2, g21 v1 + g22 v2]; the diagonal action
applies the same g along every mode, which is exactly the change of
basis that preserves symmetry.  On the k+1 compact coefficients of a
symmetric tensor g acts by a (k+1) x (k+1) matrix whose entries are
integer sums of products of g's entries, so it is exact in every
characteristic.

An orbit is read off its own images.  GL2 is the disjoint union of the
cosets T h of the diagonal torus T, one for each ordered pair of distinct
points of P^1 as the rows of h, normalised as (1, t) or (0, 1).
diag(a, d) h scales class j of h's image by lam * mu^j, with lam = a^k in
the group K of nonzero k-th powers and mu = d / a, and each (lam, mu) is
hit by gcd(k, p - 1) torus elements.  So `_scan` reads the canonical form
and the stabilizer of one tensor off p (p + 1) (p - 1) vectors in pure
Python, scaling each by the lam in K that makes it least; the coset
matrices come from `_coset_matrices`, products of powers of the points
of P^1 in pure Python, against which the tests check `action_stack`.
`rank_strata` writes every orbit of the space from the same matrices,
which `action_stack` builds as one numpy array in closed form.
"""

from functools import cached_property, lru_cache
from math import comb, gcd
from operator import mul

from .errors import BudgetExceededError
from .gfp import Frozen
from .tensor import CompactSym, compact_from_full, full_from_compact, twos_counts

DEFAULT_BUDGET = 10**8
_MAX_CODES = 1 << 31  # orbit images and translation tables hold int32 codes


def _refuse_oversized(space_name, size, budget, int32=True):
    limits = [(budget, "budget")] + ([(_MAX_CODES, "int32 limit")] if int32 else [])
    for limit, name in limits:
        if size > limit:
            raise BudgetExceededError(f"{space_name} {size} exceeds the {name} of {limit} codes")


class Orbit(Frozen):
    """An orbit under the diagonal action: its least full code and its size.
    `members`, the sorted full codes, are enumerated on first read."""

    # the SymTensor whose orbit this is; min(members); len(members)
    __match_args__ = ("tensor", "canonical", "size")

    @cached_property
    def members(self):
        p, k = self.tensor.field.p, self.tensor.order
        c, K = compact_from_full(self.tensor).coeffs, _kth_powers(p, k)
        images = {tuple(lam * v % p for v in y) for y in _least_images(c, p, k) for lam in K}
        return tuple(sorted(map(_full_code(p, k), images)))


def group_order(field):
    """|GL2(F_p)| = (p^2 - 1)(p^2 - p)."""
    p2 = field.p * field.p
    return (p2 - 1) * (p2 - field.p)


def _compact_matrix(powers1, powers2, p):
    """The compact action of g from the powers r^0 .. r^k of its rows as
    polynomials r = g_i1 + g_i2 t: output class j sums the input classes l
    weighted by the coefficient of t^l in r1^(k-j) r2^j, mod p."""
    k = len(powers1) - 1
    return [[v % p for v in _convolve(powers1[k - j], powers2[j])] for j in range(k + 1)]


def _powers(row, k, p):
    out = [[1]]
    for _ in range(k):
        out.append([v % p for v in _convolve(out[-1], row)])
    return out


def _convolve(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


# ---------------------------------------------------------------------------
# One orbit from its own images
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _coset_matrices(p, k):
    """The compact action of one h per coset T h of the torus in GL2."""
    powers = [_powers(point, k, p) for point in [(1, t) for t in range(p)] + [(0, 1)]]
    return [_compact_matrix(u, v, p) for u in powers for v in powers if u is not v]


def action_stack(field, k):
    """(p (p + 1), k+1, k+1) int64 array of _coset_matrices, in its order:
    the image of coefficients c under coset h is S[h] @ c mod p.

    Built in closed form: P[x, n, a] = C(n, a) x1^(n-a) x2^a is the
    coefficient of t^a in (x1 + x2 t)^n for each point x of P^1, so
    M_h[j, l] = sum over a of P[u, k-j, a] P[v, j, l-a] for h = (u, v),
    one shifted broadcast per a, with the pairs u = v masked out."""
    from ._numpy import np

    p, n = field.p, np.arange(k + 1)
    x = np.array([(1, t) for t in range(p)] + [(0, 1)], dtype=np.int64)
    C = np.array([[comb(i, a) for a in range(k + 1)] for i in range(k + 1)])  # 0 for a > i
    P = C * x[:, :1, None] ** np.maximum(n[:, None] - n, 0) * x[:, 1:, None] ** n % p
    M = np.zeros((p + 1, p + 1, k + 1, k + 1), dtype=np.int64)
    for a in range(k + 1):
        M[..., a:] += P[:, None, ::-1, a, None] * P[None, :, :, : k + 1 - a]
    return M[~np.eye(p + 1, dtype=bool)] % p


def _kth_powers(p, k):
    return sorted({pow(a, k, p) for a in range(1, p)})


def _least_images(c, p, k):
    """lam D_mu M_h c for every coset h and every mu, with the lam in K that
    makes each image least: its leading nonzero entry, at the same place i
    for every mu, takes the least value a factor in K can give it."""
    if not any(c):
        yield tuple(c)  # zero is its own only image
        return
    K = _kth_powers(p, k)
    least = [None] + [min(K, key=lambda lam: lam * v % p) for v in range(1, p)]
    mus = [[pow(mu, j, p) for j in range(k + 1)] for mu in range(1, p)]
    scales = {}  # (i, z_i): the vectors lam mu^j, one per mu
    for M in _coset_matrices(p, k):
        z = [sum(map(mul, row, c)) % p for row in M]
        i = next(j for j, v in enumerate(z) if v)
        if (i, z[i]) not in scales:
            scales[i, z[i]] = [[least[m[i] * z[i] % p] * v % p for v in m] for m in mus]
        for s in scales[i, z[i]]:
            yield tuple([a * b % p for a, b in zip(s, z)])


def _compact_weights(p, k):
    """W with full code = compact coefficients . W, in Python ints: at k = 4
    and p >= 17 full codes pass int64."""
    n = 1 << k
    return [sum(p ** (n - 1 - t) for t, j in enumerate(twos_counts(k)) if j == i) for i in range(k + 1)]


def _full_code(p, k):
    """Full code of compact coefficients."""
    weights = _compact_weights(p, k)
    return lambda coeffs: sum(map(mul, coeffs, weights))


def _scan(X, budget):
    """(least image, stabilizer size) of a symmetric X, as compact
    coefficients c; a group of more than `budget` elements is refused.

    diag(a, d) h fixes a nonzero X exactly when lam D_mu M_h c = c, with
    lam = a^k and mu = d / a: when the least-scaled image equals the least
    lam-multiple of c.  Each such (h, mu) has one lam, which gcd(k, p - 1)
    torus elements give."""
    p, k, n = X.field.p, X.order, group_order(X.field)
    _refuse_oversized("orbit scan of |GL2| =", n, budget, int32=False)
    c = compact_from_full(X).coeffs
    if not any(c):
        return c, n
    best = target = min(tuple(lam * v % p for v in c) for lam in _kth_powers(p, k))
    hits = 0
    for y in _least_images(c, p, k):
        if y < best:
            best = y
        elif y == target:
            hits += 1
    return best, gcd(k, p - 1) * hits


def orbit(X, budget=DEFAULT_BUDGET):
    """The orbit of X, its size by orbit-stabilizer."""
    least, stab = _scan(X, budget)
    return Orbit(X, _full_code(X.field.p, X.order)(least), group_order(X.field) // stab)


def canonical_form(X, budget=DEFAULT_BUDGET):
    """Lexicographically minimal member of the orbit of X."""
    return full_from_compact(CompactSym(X.field, X.order, _scan(X, budget)[0]))


def stabilizer_size(X, budget=DEFAULT_BUDGET):
    """The number of group elements that fix X."""
    return _scan(X, budget)[1]
