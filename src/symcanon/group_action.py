"""The diagonal GL2(F_p) action on 2 x ... x 2 tensors.

A group element g acts along one mode by replacing every mode fiber
[v1, v2] with [g11 v1 + g12 v2, g21 v1 + g22 v2]; the diagonal action
applies the same g along every mode, which is exactly the change of
basis that preserves symmetry.  On the k+1 compact coefficients of a
symmetric tensor g acts by a (k+1) x (k+1) matrix whose entries are
integer sums of products of g's entries, so it is exact in every
characteristic.  Two elements generate GL2(F_p), so the orbits are the
connected components of the two code permutations they induce on
compact codes; `orbit_labels` finds them by min-label propagation with
pointer jumping (Shiloach and Vishkin, "An O(log n) parallel
connectivity algorithm", J. Algorithms 1982).
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import BudgetExceededError
from .tensor import SymTensor, compact_encode, compact_from_full, compact_weights, decode, digits_of_codes

DEFAULT_BUDGET = 10**8
_MAX_CODES = 1 << 31  # orbit labels and translation tables hold int32 codes


def _refuse_oversized(space_name, size, budget):
    for limit, name in ((budget, "budget"), (_MAX_CODES, "int32 limit")):
        if size > limit:
            raise BudgetExceededError(f"{space_name} {size} exceeds the {name} of {limit} codes")


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


# ---------------------------------------------------------------------------
# Orbits as components of two generators on compact codes
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


def action_stack(field, k):
    """(2, k+1, k+1) int64 matrices of the two generators on compact
    coefficients: the image of coefficients c is S @ c mod p.

    Output class j (j twos) sums the input classes l weighted by the
    coefficient of t^l in (g11 + g12 t)^(k-j) (g21 + g22 t)^j.
    """
    mats = [[reduce(np.convolve, [row1] * (k - j) + [row2] * j, [1]) for j in range(k + 1)]
            for row1, row2 in _generators(field)]
    return np.array(mats, dtype=np.int64) % field.p


def orbit_labels(stack, p):
    """The least compact code of the orbit of every compact code, as an
    int32 array indexed by compact code.

    A generator's image of every code is built digit by digit: each output
    digit's linear combination is a Kronecker sum over the input digits,
    reduced mod p once.  Each round lowers every label to that of the
    code's image under each generator, then jumps lab = lab[lab]; labels
    only fall and stay inside their component, and at the fixpoint each is
    its component's minimum.  Codes stay below the int32 limit, which every
    caller checks first.
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
        new = new.take(new)  # take gathers by int32 indices faster than new[new]
        if np.array_equal(new, lab):
            return lab
        lab = new


def orbit_codes(X, budget=DEFAULT_BUDGET):
    """Sorted full codes of the diagonal orbit of a symmetric tensor.

    The orbit labels cover all p^(k+1) compact codes (a traced peak of
    28 bytes each), so a space over the budget is refused first."""
    p, k = X.field.p, X.order
    _refuse_oversized("symmetric code space", p ** (k + 1), budget)
    lab = orbit_labels(action_stack(X.field, k), p)
    members = np.flatnonzero(lab == lab[compact_encode(compact_from_full(X))])
    return digits_of_codes(members, p, k + 1) @ compact_weights(p, k)


def orbit(X, budget=DEFAULT_BUDGET):
    codes = orbit_codes(X, budget)
    return Orbit(tuple(int(c) for c in codes), int(codes[0]), int(codes.size))


def canonical_form(X, budget=DEFAULT_BUDGET):
    """Lexicographically minimal member of the orbit of X."""
    codes = orbit_codes(X, budget)
    t = decode(int(codes[0]), X.field, X.order)
    return SymTensor(X.field, t.entries)


def stabilizer_size(X, budget=DEFAULT_BUDGET):
    """|stabilizer| via orbit-stabilizer: group order / orbit size."""
    return group_order(X.field) // orbit_codes(X, budget).size

