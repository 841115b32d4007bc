from functools import reduce
from itertools import combinations

import numpy as np
import pytest

from symcanon import FieldSpec, classify, general_rank_strata, symmetric_rank_strata
from symcanon.tensor import digits_of_codes

# every (p, k) with a stored reference table
ALL_PAIRS = [(2, 3), (3, 3), (5, 3), (7, 3), (11, 3), (13, 3), (17, 3),
             (2, 4), (3, 4), (5, 4), (7, 4)]


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
