import os
import subprocess
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from numbers import Integral
from pathlib import Path

import numpy as np
import pytest

import symcanon
from symcanon import (AsymmetricTensorError, CompactSym, FieldSpec, SymTensor, Tensor, UndecomposableError,
                      classify, general_rank_strata, is_symmetric, symmetric_rank_strata)
from symcanon import rank_strata
from symcanon.group_action import _compact_matrix, _powers
from symcanon.tensor import compact_from_full, digits_of_codes, full_from_compact

# every (p, k) with a stored reference table
ALL_PAIRS = [(2, 3), (3, 3), (5, 3), (7, 3), (11, 3), (13, 3), (17, 3),
             (2, 4), (3, 4), (5, 4), (7, 4)]


def run_python(*args):
    """Stdout of a fresh interpreter that imports this symcanon."""
    path = [str(Path(symcanon.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def compact_encode(c):
    """Radix-p code of compact coefficients, coeffs[0] most significant.

    On symmetric tensors, numeric order of compact codes agrees with
    numeric order of full codes: the first differing flattened position
    of two symmetric tensors is the first occurrence of their first
    differing compact class.
    """
    code = 0
    for v in c.coeffs:
        code = code * c.field.p + v
    return code


def compact_decode(code, field, order):
    """Inverse of compact_encode; codes of any integer type, numpy's too."""
    p = field.p
    if not isinstance(code, Integral) or not 0 <= code < p ** (order + 1):
        raise ValueError(f"compact code out of range for p={p}, order {order}: {code!r}")
    code = int(code)
    coeffs = [0] * (order + 1)
    for j in range(order, -1, -1):
        code, coeffs[j] = divmod(code, p)
    return CompactSym(field, order, tuple(coeffs))


def _memoized(compute):
    cache = {}

    def get(p, k):
        if (p, k) not in cache:
            cache[(p, k)] = compute(FieldSpec(p), k)
        return cache[(p, k)]

    return get


@pytest.fixture(scope="session")
def strata_for():
    return _memoized(symmetric_rank_strata)


@pytest.fixture(scope="session")
def classification_for():
    return _memoized(classify)


@pytest.fixture(scope="session")
def general_for():
    return _memoized(general_rank_strata)


def general_rank_k3(u1, u2, p):
    """Closed-form general rank (int8) of the 2x2x2 tensors with mode-1
    slice codes u1 and u2 (broadcast together), an oracle that shares
    nothing with the layered search.

    Zero has rank 0; a nonzero tensor has rank 1 when all three 2x4
    flattenings have rank <= 1, and rank 2 when some but not all do.
    Otherwise it has rank 2 iff q(s, t) = det(s X1 + t X2) has two distinct
    roots on the projective line, and rank 3 for a double root or none
    (Ja'Ja', SIAM J. Comput. 1979; de Silva and Lim, SIAM J. Matrix Anal.
    Appl. 2008).
    """
    d = digits_of_codes(np.arange(p**4), p, 4).astype(np.int16)
    e = [d[u1, j] for j in range(4)] + [d[u2, j] for j in range(4)]
    ones = sum(
        reduce(np.logical_and, [(e[t] * e[u | b] - e[u] * e[t | b]) % p == 0
                                for t, u in combinations([t for t in range(8) if not t & b], 2)])
        for b in (4, 2, 1)
    )
    a, c = (e[0] * e[3] - e[1] * e[2]) % p, (e[4] * e[7] - e[5] * e[6]) % p
    b = (e[0] * e[7] + e[3] * e[4] - e[1] * e[6] - e[2] * e[5]) % p
    if p == 2:  # a s^2 + b st + c t^2 splits into distinct factors iff b = 1 and ac = 0
        split = (b == 1) & (a * c == 0)
    else:  # the discriminant is a nonzero square
        squares = np.zeros(p, dtype=bool)
        squares[[x * x % p for x in range(1, p)]] = True
        split = squares[(b * b - 4 * a * c) % p]
    zero = reduce(np.logical_and, [x == 0 for x in e])
    return np.select([zero, ones == 3, (ones > 0) | split], [0, 1, 2], 3).astype(np.int8)


# ---------------------------------------------------------------------------
# The GL2(F_p) action one matrix at a time: oracles for the orbit labels,
# the coset stack and the stabilizer sizes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupElement:
    """An invertible 2x2 matrix over F_p."""

    field: FieldSpec
    m: tuple  # ((m11, m12), (m21, m22))

    def __post_init__(self):
        (a, b), (c, d) = self.m
        for v in (a, b, c, d):
            self.field.check(v)
        if self.det() == 0:
            raise ValueError(f"matrix is singular mod {self.field.p}: {self.m}")

    def det(self):
        (a, b), (c, d) = self.m
        return (a * d - b * c) % self.field.p

    @classmethod
    def identity(cls, field):
        return cls(field, ((1, 0), (0, 1)))


def enumerate_gl2(field):
    """All invertible 2x2 matrices, lexicographic in (m11, m12, m21, m22)."""
    p = field.p
    out = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if (a * d - b * c) % p != 0:
                        out.append(GroupElement(field, ((a, b), (c, d))))
    return out


def act(g, X, mode):
    """Apply g along a single mode (1-based); other modes untouched."""
    k = X.order
    if not 1 <= mode <= k:
        raise ValueError(f"mode must be in 1..{k}, got {mode}")
    p = X.field.p
    (g11, g12), (g21, g22) = g.m
    bit = 1 << (k - mode)
    out = list(X.entries)
    for t in range(1 << k):
        if t & bit:
            continue
        v1, v2 = X.entries[t], X.entries[t | bit]
        out[t] = (g11 * v1 + g12 * v2) % p
        out[t | bit] = (g21 * v1 + g22 * v2) % p
    return Tensor(X.field, tuple(out))


def act_diagonal(g, X):
    """Apply g along every mode; maps symmetric tensors to symmetric tensors."""
    if not is_symmetric(X):
        raise AsymmetricTensorError("diagonal action is only used on symmetric tensors")
    Y = X
    for mode in range(1, X.order + 1):
        Y = act(g, Y, mode)
    return SymTensor(X.field, Y.entries)


def count_stabilizer_directly(X):
    """Count the group elements fixing X by applying every one of them,
    one at a time with the scalar action."""
    return sum(act_diagonal(g, X).entries == X.entries for g in enumerate_gl2(X.field))


# ---------------------------------------------------------------------------
# Orbits as components of two generators on compact codes: the whole-space
# orbit labels, an oracle for the orbits the rank search writes
# ---------------------------------------------------------------------------

def _generators(field):
    """Two matrices that generate GL2(F_p): a transvection and the swap at
    p = 2, otherwise diag(w, 1) for the least primitive root w and
    [[-1, 1], [-1, 0]]."""
    p = field.p
    if p == 2:
        return ((1, 1), (0, 1)), ((0, 1), (1, 0))
    w = next(w for w in range(2, p) if len({pow(w, e, p) for e in range(p - 1)}) == p - 1)
    return ((w, 0), (0, 1)), ((p - 1, 1), (p - 1, 0))


def generator_stack(field, k):
    """(2, k+1, k+1) int64 matrices of the two generators on compact
    coefficients: the image of coefficients c is S @ c mod p."""
    p = field.p
    mats = [_compact_matrix(_powers(row1, k, p), _powers(row2, k, p), p) for row1, row2 in _generators(field)]
    return np.array(mats, dtype=np.int64)


def orbit_labels(stack, p):
    """The least compact code of the orbit of every compact code, as an
    int32 array indexed by compact code.

    A generator's image of every code is built digit by digit: each output
    digit's linear combination is a Kronecker sum over the input digits,
    reduced mod p once.  Each round lowers every label to that of the
    code's image under each generator, then jumps lab = lab[lab] (pointer
    jumping: Shiloach and Vishkin, "An O(log n) parallel connectivity
    algorithm", J. Algorithms 1982); labels only fall and stay inside
    their component, and at the fixpoint each is its component's minimum.
    """
    digit, zero = np.arange(p, dtype=np.int32), np.zeros(1, dtype=np.int32)
    images = []
    for g in stack.tolist():
        image = 0
        for row in g:  # output digits, most significant first
            image = image * p + reduce(lambda acc, s: (acc[:, None] + digit * s).ravel(), row, zero) % p
        images.append(image)
    lab = np.arange(p ** stack.shape[1], dtype=np.int32)
    while True:
        new = lab
        for image in images:
            new = np.minimum(new, new.take(image))
        new = new.take(new)
        if np.array_equal(new, lab):
            return lab
        lab = new


# ---------------------------------------------------------------------------
# The number of orbits by Burnside's lemma, in pure Python: an oracle that
# shares no code with the package
# ---------------------------------------------------------------------------

def conjugacy_classes(p):
    """(representative, class size) of each conjugacy class of GL2(F_p):

    - scalar a I, p - 1 classes of size 1;
    - non-semisimple [[a, 1], [0, a]], p - 1 classes of size p^2 - 1;
    - split diag(a, b) with a < b, of size p (p + 1);
    - non-split: the companion matrix [[0, -n], [1, t]] of each
      irreducible x^2 - t x + n, of size p (p - 1).
    """
    units = range(1, p)
    classes = [(((a, 0), (0, a)), 1) for a in units]
    classes += [(((a, 1), (0, a)), p * p - 1) for a in units]
    classes += [(((a, 0), (0, b)), p * (p + 1)) for a in units for b in units if a < b]
    classes += [(((0, -n % p), (1, t)), p * (p - 1)) for t in range(p) for n in units
                if all((x * x - t * x + n) % p for x in range(p))]
    return classes


def rank_mod_p(rows, p):
    rows, rank = [list(row) for row in rows], 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * pow(rows[rank][col], p - 2, p)
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _form_action(g, p, k):
    """The matrix of g on the binary forms of degree k, x -> a x + b y and
    y -> c x + d y: row j is the image of x^(k-j) y^j, by coefficient of
    x^(k-l) y^l."""
    (a, b), (c, d) = g
    rows = []
    for j in range(k + 1):
        poly = [1]
        for u, v in [(a, b)] * (k - j) + [(c, d)] * j:  # times u x + v y
            poly = [(x * u + y * v) % p for x, y in zip(poly + [0], [0] + poly)]
        rows.append(poly)
    return rows


def burnside_orbit_count(p, k):
    """The number of GL2(F_p) orbits on the p^(k+1) symmetric tensors of
    order k, by Burnside's lemma: the mean over the group of p^dim Fix(g),
    summed over the conjugacy classes.  g acts on the binary forms of
    degree k, which are dual to the symmetric tensors of order k, and g
    fixes spaces of equal dimension in a module and in its dual."""
    order = (p * p - 1) * (p * p - p)
    classes = conjugacy_classes(p)
    if sum(size for _, size in classes) != order:
        raise AssertionError(f"the conjugacy classes of GL2(F_{p}) do not cover the group")
    total = 0
    for g, size in classes:
        moved = [[(v - (l == j)) % p for l, v in enumerate(row)] for j, row in enumerate(_form_action(g, p, k))]
        total += size * p ** (k + 1 - rank_mod_p(moved, p))
    if total % order:
        raise AssertionError(f"Burnside sum {total} is not a multiple of |GL2| = {order}")
    return total // order


# ---------------------------------------------------------------------------
# Least derivations read off the whole-space rank table: the oracle of
# decompose and the source of the pinned parent arrays
# ---------------------------------------------------------------------------

def _compact_code_of(X, s):
    if X.field != s.field or X.order != s.order:
        raise ValueError(
            f"tensor is over p={X.field.p}, order {X.order}; "
            f"stratification is for p={s.field.p}, order {s.order}"
        )
    if not is_symmetric(X):
        raise AsymmetricTensorError("symmetric rank is defined for symmetric tensors")
    return compact_encode(compact_from_full(X))


def strata_rank(s, X):
    """The rank the whole-space table gives a symmetric X, None when it has
    no decomposition."""
    r = int(s._rank_of[_compact_code_of(X, s)])
    return None if r < 0 else r


def parent_of(s, X):
    """The least derivation: (predecessor SymTensor, generator vector).

    None for the zero tensor; errors on undecomposable input.
    """
    code = _compact_code_of(X, s)
    if code == 0:
        return None
    if s._rank_of[code] < 0:
        raise UndecomposableError("tensor has no symmetric decomposition")
    pred, gen = _parents(s, np.array([code]))
    pred = full_from_compact(compact_decode(int(pred[0]), s.field, s.order))
    return pred, s.generator_vectors[int(gen[0])]


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
    chunk = max(1, rank_strata._PULL_CHUNK // G)
    for start in range(0, codes.size, chunk):
        c = codes[start : start + chunk]
        preds = sum(m[d] for m, d in zip(minus, digits_of_codes(c, p, width).T))
        keys = preds * np.int64(G) + np.arange(G)
        keys[s._rank_of[preds] != s._rank_of[c][:, None] - 1] = sentinel
        best[start : start + chunk] = keys.min(axis=1)
    if (best == sentinel).any():
        raise AssertionError("no predecessor one rank lower; rank table corrupt")
    return best // G, best % G
