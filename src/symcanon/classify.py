"""Full classification driver: orbit decomposition within each rank stratum.

Per stratum, repeatedly take the minimal remaining code, compute its
orbit under the diagonal action, emit one record, and remove the orbit.
Since orbits stay inside a stratum and are untouched until their minimum
is picked, the minimum of the remaining set is its own orbit's canonical
form.  Tensors without a symmetric decomposition are processed the same
way and reported separately; their orbit structure is an extension not
covered by the published tables.
"""

import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .group_action import action_stack, group_order, _apply_stack
from .rank_strata import DEFAULT_BUDGET, symmetric_rank_strata
from .tensor import digits_of_codes, full_place_values


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


def _orbits_of_stratum(codes, rank, stack, p, place, n_group):
    """Decompose one sorted code set into orbit records, minimal element first."""
    records = []
    remaining = codes.copy()
    while remaining.size:
        x = int(remaining[0])
        digits = digits_of_codes(np.array([x]), p, place.size)[0]
        members = np.unique(_apply_stack(stack, digits, p, place))
        # rank is invariant under the action, so the orbit must sit in the stratum
        pos = np.searchsorted(remaining, members)
        if pos.max() >= remaining.size or not (remaining[pos] == members).all():
            raise AssertionError("orbit escaped its stratum; action or strata corrupt")
        size = int(members.size)
        records.append(
            OrbitRecord(
                rank=rank,
                canonical=tuple(int(d) for d in digits),
                canonical_code=x,
                orbit_size=size,
                stabilizer_size=n_group // size,
            )
        )
        keep = np.ones(remaining.size, dtype=bool)
        keep[pos] = False
        remaining = remaining[keep]
    return records


def classify(field, k, budget=DEFAULT_BUDGET):
    """Classify all symmetric tensors over F_p of order k into orbits."""
    t0 = time.perf_counter()
    strata = symmetric_rank_strata(field, k, budget)
    stack = action_stack(field, k)
    place = full_place_values(field.p, k)
    n_group = group_order(field)

    records = []
    for r, codes in enumerate(strata.strata):
        records.extend(_orbits_of_stratum(codes, r, stack, field.p, place, n_group))
    undec = _orbits_of_stratum(
        strata.undecomposable, None, stack, field.p, place, n_group
    )
    return ClassificationReport(
        p=field.p,
        order=k,
        group_order=n_group,
        stratum_counts=strata.stratum_sizes(),
        undecomposable_count=int(strata.undecomposable.size),
        records=records,
        undecomposable_records=undec,
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
