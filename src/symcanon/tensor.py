"""Order-k tensors of format 2 x ... x 2 over a prime field.

Entries are stored flattened: position t corresponds to the subscript
tuple (i_1, ..., i_k) with i_m in {1, 2}, ordered lexicographically with
the first subscript most significant, i.e. t = sum (i_m - 1) * 2^(k-m).
For k = 3 this is the familiar

    [x111, x112, x121, x122, x211, x212, x221, x222]

layout and for k = 4 the 16-tuple x1111, x1112, ..., x2222.

A symmetric tensor is constant on the classes of positions with the same
number of 2-subscripts (k+1 classes), so it is determined by k+1 free
entries.  CompactSym holds exactly those: coeffs[j] is the common value
on the class with j twos; for k = 3 these are the labels (a, b, c, d).

The integer code of a tensor is the radix-p evaluation of its flattened
entries, most significant digit first, so numeric order on codes equals
lexicographic order on flattened vectors.
"""

from numbers import Integral  # int and numpy's integer scalars

from .errors import AsymmetricTensorError
from .gfp import Frozen

SUPPORTED_ORDERS = (3, 4)


def twos_counts(k):
    """Number of 2-subscripts at each flattened position (popcount pattern)."""
    return tuple(bin(t).count("1") for t in range(1 << k))


class Tensor(Frozen):
    """Full 2^k-entry tensor in flatten order; symmetry not assumed."""

    __match_args__ = ("field", "entries")

    def __init__(self, field, entries):
        super().__init__(field, entries)
        n = len(entries)
        k = n.bit_length() - 1
        if n < 4 or (1 << k) != n:
            raise ValueError(f"entry count must be 2^k with k >= 2, got {n}")
        for v in entries:
            field.check(v)

    # equality is by value, so a SymTensor equals the plain Tensor with the
    # same entries (decode returns a plain Tensor for every code)
    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self._values() == other._values()

    __hash__ = Frozen.__hash__

    @property
    def order(self):
        return len(self.entries).bit_length() - 1


class SymTensor(Tensor):
    """Tensor invariant under every permutation of its subscripts."""

    def __init__(self, field, entries):
        super().__init__(field, entries)
        if not is_symmetric(self):
            raise AsymmetricTensorError(f"entries are not symmetric: {self.entries}")


class CompactSym(Frozen):
    """The k+1 free entries of a symmetric tensor, by number of 2-subscripts."""

    __match_args__ = ("field", "order", "coeffs")

    def __init__(self, field, order, coeffs):
        super().__init__(field, order, coeffs)
        if order < 2:
            raise ValueError(f"order must be >= 2, got {order}")
        if len(coeffs) != order + 1:
            raise ValueError(f"expected {order + 1} coefficients, got {len(coeffs)}")
        for v in coeffs:
            field.check(v)


def is_symmetric(Y):
    """True iff every entry equals the entry at every permutation of its subscripts.

    For 2-dimensional modes, two positions are related by a subscript
    permutation exactly when they contain the same number of 2s.
    """
    k = Y.order
    ref = [None] * (k + 1)
    for t, v in enumerate(Y.entries):
        j = bin(t).count("1")
        if ref[j] is None:
            ref[j] = v
        elif ref[j] != v:
            return False
    return True


def compact_from_full(X):
    """Compact coefficients of a symmetric tensor; errors on asymmetric input."""
    if not is_symmetric(X):
        raise AsymmetricTensorError("tensor is not symmetric")
    k = X.order
    coeffs = [None] * (k + 1)
    for t, v in enumerate(X.entries):
        coeffs[bin(t).count("1")] = v
    return CompactSym(X.field, k, tuple(coeffs))


def full_from_compact(c):
    """Expand compact coefficients to the full 2^k-entry symmetric tensor."""
    entries = tuple(c.coeffs[j] for j in twos_counts(c.order))
    return SymTensor(c.field, entries)


def symmetric_outer_power(a, k, field):
    """The symmetric simple tensor a (x) ... (x) a with k factors.

    The zero vector is rejected: the zero tensor has rank 0, not rank 1.
    """
    a1, a2 = a
    field.check(a1)
    field.check(a2)
    if a1 == 0 and a2 == 0:
        raise ValueError("the zero vector does not generate a rank-1 tensor")
    p = field.p
    coeffs = tuple(pow(a1, k - j, p) * pow(a2, j, p) % p for j in range(k + 1))
    return full_from_compact(CompactSym(field, k, coeffs))


# ---------------------------------------------------------------------------
# Integer codes
# ---------------------------------------------------------------------------

def encode(X):
    """Radix-p code of the flattened entries, x_{1...1} most significant."""
    p = X.field.p
    code = 0
    for v in X.entries:
        code = code * p + v
    return code


def decode(code, field, order):
    """Inverse of encode; returns a Tensor (symmetry not assumed)."""
    p = field.p
    n = 1 << order
    if isinstance(code, bool) or not isinstance(code, Integral) or not 0 <= code < p**n:
        raise ValueError(f"code out of range for p={p}, order {order}: {code!r}")
    code = int(code)
    digits = [0] * n
    for t in range(n - 1, -1, -1):
        code, digits[t] = divmod(code, p)
    return Tensor(field, tuple(digits))


# ---------------------------------------------------------------------------
# Text literals
# ---------------------------------------------------------------------------

def parse_literal(text, field, order=None):
    """Parse a tensor literal: base-p digits in flatten order, or `c:` + compact.

    Digits are comma- or space-separated ASCII decimals; an empty field,
    as in `1,,2` or after a trailing comma, is an error, not skipped.
    Full literals return a Tensor (symmetry unchecked); compact literals
    return the expanded SymTensor.  When order is given the digit count
    must match.
    """
    text = text.strip()
    compact = text.startswith("c:")
    if compact:
        text = text[2:]
    parts = [s for f in text.split(",") for s in f.split() or [f]]  # keeps an empty field
    for s in parts:  # int() would also take '1_0', '+1' and non-ASCII digits
        if not (s.isascii() and s.isdigit()):
            raise ValueError(f"bad tensor literal digit: {s!r}")
    digits = [int(s) for s in parts]
    for d in digits:
        field.check(d)
    if compact:
        k = len(digits) - 1
        if order is not None and k != order:
            raise ValueError(f"compact literal has order {k}, expected {order}")
        if k not in SUPPORTED_ORDERS:
            raise ValueError(f"compact literal must have k+1 digits for k in {SUPPORTED_ORDERS}")
        return full_from_compact(CompactSym(field, k, tuple(digits)))
    n = len(digits)
    k = n.bit_length() - 1
    if n < 8 or (1 << k) != n or k not in SUPPORTED_ORDERS:
        raise ValueError(f"full literal must have 8 or 16 digits, got {n}")
    if order is not None and k != order:
        raise ValueError(f"full literal has order {k}, expected {order}")
    return Tensor(field, tuple(digits))


def format_literal(X, compact=False):
    """Render a tensor literal; inverse of parse_literal."""
    if compact:
        c = compact_from_full(X)
        return "c:" + ",".join(str(v) for v in c.coeffs)
    return ",".join(str(v) for v in X.entries)


# ---------------------------------------------------------------------------
# numpy helpers shared by the enumeration modules, which load numpy; the
# one-tensor queries never call them
# ---------------------------------------------------------------------------

def digits_of_codes(codes, p, width):
    """Digit matrix (len(codes), width) of radix-p codes, MSB first."""
    from ._numpy import np

    codes = np.asarray(codes, dtype=np.int64)
    place = p ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return (codes[:, None] // place[None, :]) % p
