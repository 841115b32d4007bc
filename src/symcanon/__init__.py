"""Classification of 2x2x2 and 2x2x2x2 symmetric tensors over prime fields.

Computes symmetric-rank strata by layered generation, orbits and
lexicographically minimal canonical forms under the diagonal GL2(F_p)
action, orbit and stabilizer sizes, explicit decomposition witnesses,
and audits the stored reference tables.
"""

from types import ModuleType as _ModuleType

from ._version import __version__
from .apolar import decompose, symmetric_rank
from .classify import ClassificationReport, OrbitRecord, classify
from .errors import (
    AsymmetricTensorError,
    BudgetExceededError,
    FixtureError,
    MissingFixtureError,
    SymcanonError,
    UndecomposableError,
)
from .gfp import FieldSpec, is_prime
from .group_action import Orbit, canonical_form, group_order, orbit, stabilizer_size
from .rank_strata import (
    DEFAULT_BUDGET,
    GeneralRankStratification,
    RankStratification,
    Witness,
    general_rank_strata,
    symmetric_rank_strata,
)
from .report import Discrepancy, diff, emit, load_fixture
from .tensor import (
    CompactSym,
    SymTensor,
    Tensor,
    compact_from_full,
    decode,
    encode,
    format_literal,
    full_from_compact,
    is_symmetric,
    parse_literal,
    symmetric_outer_power,
)

# every name imported above; the submodules are attributes, not exports
__all__ = ["__version__"] + [name for name, value in globals().items()
                             if not name.startswith("_") and not isinstance(value, _ModuleType)]
