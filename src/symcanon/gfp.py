"""The prime field F_p: a primality test and canonical residues 0..p-1."""

from dataclasses import dataclass


# Deterministic Miller-Rabin bases: the primes up to 37 decide every n below
# 3.18e23 (Sorenson and Webster, Math. Comp. 86, 2017)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Miller-Rabin primality, exact below 2^64; larger n raise ValueError."""
    if n >= 1 << 64:
        raise ValueError(f"modulus {n} is 2^64 or more, beyond the primality test")
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The prime field F_p.  Elements are plain ints in 0..p-1.

    Primality is verified once at construction; use check() at trust
    boundaries.
    """

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise ValueError(f"modulus must be prime, got {self.p!r}")

    def check(self, v):
        """Validate an externally supplied element; returns it unchanged."""
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < self.p:
            raise ValueError(f"not a canonical residue mod {self.p}: {v!r}")
        return v
