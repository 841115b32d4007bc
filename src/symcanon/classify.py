"""Full classification: one orbit labelling gives orbits and ranks.

`orbit_labels` gives every compact code the least code of its orbit, so
the canonical forms are the codes labelled by themselves, and a count of
the labels (`np.bincount`) gives the orbit sizes.  The symmetric strata
are searched on the same labels, so each code has its label's rank; a
code whose rank differs means the rank table was corrupted and raises.
Tensors without a symmetric decomposition are processed the same way and
reported separately; their orbit structure is an extension not covered
by the published tables.
"""

import time

from ._numpy import np
from .gfp import Frozen
from .group_action import DEFAULT_BUDGET, _full_code, action_stack, group_order
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
    strata = symmetric_rank_strata(field, k, budget, action_stack(field, k))
    lab, rank_of = strata._labels, strata._rank_of
    if (rank_of.take(lab) != rank_of).any():
        raise AssertionError("rank is not constant on an orbit; rank table corrupt")
    counts = np.bincount(lab)
    canon = np.flatnonzero(counts)  # the labels, i.e. the codes labelled by themselves
    sizes, ranks = counts[canon], rank_of[canon]
    digits = digits_of_codes(canon, p, k + 1)
    full_codes = list(map(_full_code(p, k), digits.tolist()))  # p^16 passes int64 from p = 17
    entries = digits[:, list(twos_counts(k))]
    n_group = group_order(field)
    # canonical codes ascend, so a stable sort by rank (-1 first) orders the records
    records = [
        OrbitRecord(
            rank=None if ranks[i] < 0 else int(ranks[i]),
            canonical=tuple(int(v) for v in entries[i]),
            canonical_code=full_codes[i],
            orbit_size=int(sizes[i]),
            stabilizer_size=n_group // int(sizes[i]),
        )
        for i in np.argsort(ranks, kind="stable")
    ]
    n_undec = int(np.count_nonzero(ranks < 0))
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

