"""The diagonal GL2(F_p) action on 2 x ... x 2 tensors.

A group element g acts along one mode by replacing every mode fiber
[v1, v2] with [g11 v1 + g12 v2, g21 v1 + g22 v2]; the diagonal action
applies the same g along every mode, which is exactly the change of
basis that preserves symmetry.  On flattened entries the diagonal
action is the k-fold Kronecker power of g, so orbits are computed by a
single stacked matrix product over the whole group: the group order is
at most (17^2 - 1)(17^2 - 17) = 78336 in the supported range, and full
application also yields stabilizer counts for free.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricTensorError
from .gfp import FieldSpec
from .tensor import SymTensor, Tensor, decode, encode, full_place_values, is_symmetric


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


@dataclass(frozen=True)
class Orbit:
    """An orbit under the diagonal action, as sorted tensor codes."""

    members: tuple  # sorted, ascending
    canonical: int  # == min(members)
    size: int       # == len(members)


def group_order(field):
    """|GL2(F_p)| = (p^2 - 1)(p^2 - p)."""
    p2 = field.p * field.p
    return (p2 - 1) * (p2 - field.p)


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


# ---------------------------------------------------------------------------
# Stacked whole-group application
# ---------------------------------------------------------------------------

_STACK_CACHE = {}


def _invertible_matrix_array(p):
    """(n, 2, 2) int64 array of all invertible matrices, same order as enumerate_gl2."""
    rng = np.arange(p, dtype=np.int64)
    a, b, c, d = (v.ravel() for v in np.meshgrid(rng, rng, rng, rng, indexing="ij"))
    keep = (a * d - b * c) % p != 0
    return np.stack([a[keep], b[keep], c[keep], d[keep]], axis=1).reshape(-1, 2, 2)


def action_stack(field, k):
    """(n, 2^k, 2^k) stack of k-fold Kronecker powers, one per group element.

    Row g applied to a flattened entry vector x gives the flattened
    entries of the diagonally transformed tensor.  Cached per (p, k);
    treat as read-only.
    """
    key = (field.p, k)
    stack = _STACK_CACHE.get(key)
    if stack is None:
        mats = _invertible_matrix_array(field.p)
        n = mats.shape[0]
        out = mats
        for _ in range(k - 1):
            m = out.shape[1]
            out = np.einsum("nij,nkl->nikjl", out, mats).reshape(n, 2 * m, 2 * m)
            out %= field.p
        stack = out
        stack.setflags(write=False)
        _STACK_CACHE[key] = stack
    return stack


def _apply_stack(stack, digits, p, place):
    """Codes of stack[g] . digits for every g; order follows the stack."""
    return ((stack @ digits) % p) @ place


def _tensor_digits(X):
    return np.array(X.entries, dtype=np.int64)


def orbit_codes(X):
    """Sorted unique codes of the diagonal orbit of a symmetric tensor."""
    if not is_symmetric(X):
        raise AsymmetricTensorError("orbits are computed for symmetric tensors")
    p = X.field.p
    stack = action_stack(X.field, X.order)
    place = full_place_values(p, X.order)
    codes = _apply_stack(stack, _tensor_digits(X), p, place)
    return np.unique(codes)


def orbit(X):
    codes = orbit_codes(X)
    return Orbit(tuple(int(c) for c in codes), int(codes[0]), int(codes.size))


def canonical_form(X):
    """Lexicographically minimal member of the orbit of X."""
    codes = orbit_codes(X)
    t = decode(int(codes[0]), X.field, X.order)
    return SymTensor(X.field, t.entries)


def stabilizer_size(X):
    """|stabilizer| via orbit-stabilizer: group order / orbit size."""
    return group_order(X.field) // orbit_codes(X).size


def count_stabilizer_directly(X):
    """Count the group elements fixing X by applying every one of them."""
    if not is_symmetric(X):
        raise AsymmetricTensorError("stabilizers are computed for symmetric tensors")
    p = X.field.p
    stack = action_stack(X.field, X.order)
    place = full_place_values(p, X.order)
    codes = _apply_stack(stack, _tensor_digits(X), p, place)
    return int((codes == encode(X)).sum())
