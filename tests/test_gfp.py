import numpy as np
import pytest

from symcanon import FieldSpec, is_prime
from symcanon.group_action import group_order
from symcanon.rank_strata import _mode1_classes

from conftest import _generators

PRIMES = [2, 3, 5, 7, 11, 13, 17]


def tables(p):
    """F_p's addition and multiplication tables as the general-rank search
    builds them: the digit-wise sums and scalings of one-digit codes."""
    scale, add = _mode1_classes(p, 1)[1].args[:2]
    return add, scale


def test_is_prime_small_range():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(50) if is_prime(n)} == known


def test_is_prime_agrees_with_a_sieve():
    n = 10**5
    sieve = [False, False] + [True] * (n - 2)
    for d in range(2, int(n**0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(range(d * d, n, d))
    assert [m for m in range(-3, n) if is_prime(m)] == [m for m in range(n) if sieve[m]]


def test_is_prime_large_moduli():
    for prime in (2**31 - 1, 2**61 - 1, 2**64 - 59):
        assert is_prime(prime)
    # a Carmichael number, a strong pseudoprime to the bases 2, 3, 5 and 7,
    # and the square of a Mersenne prime
    for composite in (561, 3_215_031_751, (2**31 - 1) ** 2, 2**64 - 1):
        assert not is_prime(composite)


def test_is_prime_refuses_moduli_from_2_64():
    for n in (2**64, 2**89 - 1):
        with pytest.raises(ValueError, match="2\\^64"):
            is_prime(n)
    with pytest.raises(ValueError):
        FieldSpec(2**89 - 1)


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 15, 21])
def test_composite_modulus_rejected(bad):
    with pytest.raises(ValueError):
        FieldSpec(bad)


def test_add_examples():
    assert tables(3)[0][2, 2] == 1
    assert tables(7)[0][6, 6] == 5
    r = np.arange(11)
    assert (tables(11)[0] == (r[:, None] + r) % 11).all()


def test_mul_examples():
    assert tables(5)[1][3, 4] == 2
    assert tables(13)[1][12, 12] == 1
    r = np.arange(7)
    assert (tables(7)[1] == r[:, None] * r % 7).all()


def test_inv_examples():
    for p, a, inverse in [(2, 1, 1), (7, 3, 5), (17, 2, 9)]:
        assert np.flatnonzero(tables(p)[1][a] == 1).tolist() == [inverse]


def test_inv_of_zero_rejected():
    # zero has no inverse, and the search's GL2 leaves out every singular matrix
    for p in (5, 7):
        assert not (tables(p)[1][0] == 1).any()
        first = _mode1_classes(p, 1)[1].args[2]
        assert first.size == group_order(FieldSpec(p))


@pytest.mark.parametrize("p", PRIMES)
def test_field_axioms_exhaustive(p):
    add, scale = tables(p)
    r = np.arange(p)
    assert (add == add.T).all() and (scale == scale.T).all() and add.max() < p and scale.max() < p
    assert (add[0] == r).all() and (scale[1] == r).all()
    a, b, c = np.meshgrid(r, r, r, indexing="ij")
    assert (add[add[a, b], c] == add[a, add[b, c]]).all()
    assert (scale[scale[a, b], c] == scale[a, scale[b, c]]).all()
    assert (scale[a, add[b, c]] == add[scale[a, b], scale[a, c]]).all()
    assert (add[r, (p - r) % p] == 0).all()


@pytest.mark.parametrize("p", PRIMES)
def test_inverses_exhaustive(p):
    # every unit is a power w^e of the generator diag(w, 1), and w^(p-1-e) inverts it
    _, scale = tables(p)
    w = _generators(FieldSpec(p))[0][0][0]
    assert sorted(pow(w, e, p) for e in range(p - 1)) == list(range(1, p))
    for e in range(p - 1):
        assert scale[pow(w, e, p), pow(w, p - 1 - e, p)] == 1


def test_check_rejects_out_of_range():
    f = FieldSpec(5)
    assert f.check(4) == 4
    for bad in (-1, 5, 2.0, "3", True):
        with pytest.raises(ValueError):
            f.check(bad)
