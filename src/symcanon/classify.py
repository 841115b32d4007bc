"""Full classification: orbits from labels, ranks from the strata.

`orbit_labels` gives every compact code the least code of its orbit, so
the canonical forms are the codes labelled by themselves, and a count of
the labels (`np.bincount`) gives the orbit sizes.  Rank is invariant
under the action, so each orbit takes the rank of its canonical form; a
code whose rank differs from its label's means the action or the strata
are corrupt and raises.  Tensors without a symmetric decomposition are
processed the same way and reported separately; their orbit structure is
an extension not covered by the published tables.
"""

import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .group_action import action_stack, group_order, orbit_labels
from .rank_strata import DEFAULT_BUDGET, symmetric_rank_strata
from .tensor import compact_weights, digits_of_codes, twos_counts


@dataclass(frozen=True)
class OrbitRecord:
    """One orbit: rank (None = no symmetric decomposition), sizes, canonical."""

    rank: object            # int or None
    canonical: tuple        # flattened entries of the minimal member
    canonical_code: int
    orbit_size: int
    stabilizer_size: int


@dataclass
class ClassificationReport:
    p: int
    order: int
    group_order: int
    stratum_counts: list
    undecomposable_count: int
    records: list
    undecomposable_records: list
    timing_seconds: float = dataclass_field(default=0.0)

    @property
    def max_rank(self):
        return len(self.stratum_counts) - 1

    def all_records(self):
        return self.records + self.undecomposable_records


def classify(field, k, budget=DEFAULT_BUDGET):
    """Classify all symmetric tensors over F_p of order k into orbits."""
    t0 = time.perf_counter()
    p = field.p
    strata = symmetric_rank_strata(field, k, budget)
    lab = orbit_labels(action_stack(field, k), p)
    rank_of = strata._rank_of
    if (rank_of.take(lab) != rank_of).any():
        raise AssertionError("rank is not constant on an orbit; action or strata corrupt")
    counts = np.bincount(lab)
    canon = np.flatnonzero(counts)  # the labels, i.e. the codes labelled by themselves
    sizes, ranks = counts[canon], rank_of[canon]
    digits = digits_of_codes(canon, p, k + 1)
    full_codes = digits @ compact_weights(p, k)
    entries = digits[:, list(twos_counts(k))]
    n_group = group_order(field)
    # canonical codes ascend, so a stable sort by rank (-1 first) orders the records
    records = [
        OrbitRecord(
            rank=None if ranks[i] < 0 else int(ranks[i]),
            canonical=tuple(int(v) for v in entries[i]),
            canonical_code=int(full_codes[i]),
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
        undecomposable_count=int(strata.undecomposable.size),
        records=records[n_undec:],
        undecomposable_records=records[:n_undec],
        timing_seconds=time.perf_counter() - t0,
    )


def verify_against_paper(report, fixtures_dir=None):
    """Diff a classification against the stored reference table for (p, k).

    Returns the discrepancy list: ERRATUM-SUSPECTED entries for table
    rows failing the published counting identities (with the computed
    replacement attached), MISMATCH entries where this artifact disagrees
    with a self-consistent row.  Raises MissingFixtureError when no table
    is stored for the parameters.
    """
    from . import report as report_mod

    fixture = report_mod.load_fixture(report.p, report.order, fixtures_dir)
    return report_mod.diff(report, fixture)
