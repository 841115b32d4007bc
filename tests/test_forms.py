"""A symmetric tensor X is the binary form X(u) = X(u, ..., u), and a
symmetric decomposition into outer powers v^(x)k is a Waring decomposition
of that form into powers (v . u)^k of linear forms."""

from itertools import product

import pytest

from symcanon import (
    CompactSym,
    FieldSpec,
    UndecomposableError,
    decompose,
    full_from_compact,
    symmetric_outer_power,
    symmetric_rank,
)
from symcanon.tensor import twos_counts

from conftest import compact_decode

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def sym(field, coeffs):
    return full_from_compact(CompactSym(field, len(coeffs) - 1, tuple(coeffs)))


def evaluate(X, u):
    """X(u, ..., u): the entry at a position with j 2-subscripts meets u1^(k-j) u2^j."""
    k = X.order
    return sum(x * u[0] ** (k - j) * u[1] ** j for x, j in zip(X.entries, twos_counts(k))) % X.field.p


def waring_check(X):
    """decompose's witness re-sums to X entry by entry, has symmetric_rank
    terms, and its powers of linear forms agree with X at every point."""
    p, k = X.field.p, X.order
    vectors = decompose(X).vectors
    assert len(vectors) == symmetric_rank(X)
    total = [0] * (1 << k)
    for v in vectors:
        total = [(a + b) % p for a, b in zip(total, symmetric_outer_power(v, k, X.field).entries)]
    assert tuple(total) == X.entries
    for u in product(range(p), repeat=2):
        assert evaluate(X, u) == sum((v[0] * u[0] + v[1] * u[1]) ** k for v in vectors) % p
    return True


def test_eval_form_rank1_power_identity():
    X = symmetric_outer_power((1, 2), 3, F5)
    assert evaluate(X, (1, 1)) == pow(3, 3, 5)  # (a . u)^3 = 3^3 = 2
    for u1 in range(5):
        for u2 in range(5):
            assert evaluate(X, (u1, u2)) == pow((u1 + 2 * u2) % 5, 3, 5)


def test_waring_check_rank1_tensors():
    for v in [(1, 0), (1, 2), (0, 3)]:
        X = symmetric_outer_power(v, 3, F5)
        assert symmetric_rank(X) == 1
        assert waring_check(X)


def test_waring_check_all_f3():
    for code in range(81):
        assert waring_check(full_from_compact(compact_decode(code, F3, 3)))


def test_waring_check_excludes_undecomposable():
    X = sym(F2, (0, 1, 0, 0))
    assert symmetric_rank(X) is None
    with pytest.raises(UndecomposableError):
        decompose(X)
