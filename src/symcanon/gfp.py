"""Prime-field arithmetic on canonical residues 0..p-1."""

from dataclasses import dataclass


def is_prime(n):
    """Trial-division primality check; fine for word-sized moduli."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The prime field F_p.  Elements are plain ints in 0..p-1.

    Primality is verified once at construction; the arithmetic methods
    assume canonical residues and do not recheck, since they sit inside
    exhaustive loops.  Use check() at trust boundaries.
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

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        """Multiplicative inverse by Fermat exponentiation; a must be nonzero."""
        if a % self.p == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, e):
        return pow(a, e, self.p)

    def elements(self):
        return range(self.p)
