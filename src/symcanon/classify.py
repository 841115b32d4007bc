"""Full classification: the orbits that the rank search writes.

`symmetric_rank_strata` writes each orbit whole the first time its search
reaches it and keeps one (rank, least compact code, size) triple per
orbit; the least code is the canonical form.  `classify` orders them by
rank, undecomposable first, then by canonical code, and checks the
counting identity: the orbit sizes sum to p^(k+1).  Tensors without a
symmetric decomposition are processed the same way and reported
separately; their orbit structure is an extension not covered by the
published tables.
"""

import time

from ._numpy import np
from .gfp import Frozen
from .group_action import DEFAULT_BUDGET, _full_code, _refuse_oversized, action_stack, group_order
from .rank_strata import symmetric_rank_strata
from .tensor import digits_of_codes, twos_counts


class OrbitRecord(Frozen):
    """One orbit: rank (None = no symmetric decomposition), sizes, canonical."""

    # rank: int or None; canonical: the flattened entries of the minimal
    # member, whose full code is canonical_code
    __match_args__ = ("rank", "canonical", "canonical_code", "orbit_size", "stabilizer_size")


class ClassificationReport(Frozen):
    """The orbits of one (p, order): records by rank, undecomposable ones apart."""

    __match_args__ = ("p", "order", "group_order", "stratum_counts", "undecomposable_count",
                      "records", "undecomposable_records", "timing_seconds")

    @property
    def max_rank(self):
        return len(self.stratum_counts) - 1

    def all_records(self):
        return self.records + self.undecomposable_records


def classify(field, k, budget=DEFAULT_BUDGET):
    """Classify all symmetric tensors over F_p of order k into orbits."""
    np.ndarray  # loads numpy, imported lazily, before the clock starts
    t0 = time.perf_counter()
    p = field.p
    # refused before the stack is built: its (p + 1)^2 (k + 1)^2 int64
    # entries exhaust memory for p in the thousands
    _refuse_oversized("symmetric code space", p ** (k + 1), budget)
    strata = symmetric_rank_strata(field, k, budget, action_stack(field, k))
    orbits = sorted(strata._orbits)  # rank -1 first, then canonical codes ascending
    if sum(size for _, _, size in orbits) != p ** (k + 1):
        raise AssertionError(f"orbit sizes do not sum to p^(k+1) = {p ** (k + 1)}; orbit table corrupt")
    digits = digits_of_codes([code for _, code, _ in orbits], p, k + 1).tolist()
    n_group, full_code = group_order(field), _full_code(p, k)  # p^16 passes int64 from p = 17
    classes = twos_counts(k)
    records = [
        OrbitRecord(
            rank=None if rank < 0 else rank,
            canonical=tuple(d[j] for j in classes),
            canonical_code=full_code(d),
            orbit_size=size,
            stabilizer_size=n_group // size,
        )
        for (rank, _, size), d in zip(orbits, digits)
    ]
    n_undec = sum(rank < 0 for rank, _, _ in orbits)
    return ClassificationReport(
        p=p,
        order=k,
        group_order=n_group,
        stratum_counts=strata.stratum_sizes(),
        undecomposable_count=strata.undecomposable_count,
        records=records[n_undec:],
        undecomposable_records=records[:n_undec],
        timing_seconds=time.perf_counter() - t0,
    )

