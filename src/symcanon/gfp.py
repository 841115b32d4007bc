"""The prime field F_p: a primality test and canonical residues 0..p-1.

Also Frozen, the base of every value class in the package, which takes
the place of frozen dataclasses so that no module imports dataclasses
and inspect.
"""


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


class Frozen:
    """The base of every value class: fields set once at construction, by
    position or keyword, with the repr, equality and hash of a frozen
    dataclass.  A subclass names its fields in __match_args__, as a
    dataclass does; one that checks them extends __init__.  Fields have no
    defaults, and cached_property still works, as it writes the instance
    __dict__ directly."""

    __match_args__ = ()

    def __init__(self, *values, **named):
        values += tuple(named.pop(name) for name in self.__match_args__[len(values):] if name in named)
        if named or len(values) != len(self.__match_args__):
            raise TypeError(f"{type(self).__qualname__} takes the fields {self.__match_args__}")
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FieldSpec(Frozen):
    """The prime field F_p.  Elements are plain ints in 0..p-1.

    Primality is verified once at construction; use check() at trust
    boundaries.
    """

    __match_args__ = ("p",)

    def __init__(self, p):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"modulus must be prime, got {p!r}")
        super().__init__(p)

    def check(self, v):
        """Validate an externally supplied element; returns it unchanged."""
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < self.p:
            raise ValueError(f"not a canonical residue mod {self.p}: {v!r}")
        return v
