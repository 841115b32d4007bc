"""Classification of 2x2x2 and 2x2x2x2 symmetric tensors over prime fields.

Computes symmetric-rank strata by layered generation, orbits and
lexicographically minimal canonical forms under the diagonal GL2(F_p)
action, orbit and stabilizer sizes, explicit decomposition witnesses,
and audits the stored reference tables.
"""

from ._version import __version__
from .classify import ClassificationReport, OrbitRecord, classify, verify_against_paper
from .errors import (
    AsymmetricTensorError,
    BudgetExceededError,
    FixtureError,
    MissingFixtureError,
    SymcanonError,
    UndecomposableError,
)
from .forms import BinaryForm, eval_form, form_kernel_dimension, tensor_to_form, waring_rank_check
from .gfp import FieldSpec, is_prime
from .group_action import (
    GroupElement,
    Orbit,
    act,
    act_diagonal,
    canonical_form,
    count_stabilizer_directly,
    enumerate_gl2,
    group_order,
    orbit,
    stabilizer_size,
)
from .rank_strata import (
    DEFAULT_BUDGET,
    GeneralRankStratification,
    RankStratification,
    Witness,
    decompose,
    general_rank_strata,
    symmetric_rank,
    symmetric_rank_strata,
)
from .report import Discrepancy, diff, emit, load_fixture, parse_structured
from .tensor import (
    CompactSym,
    SymTensor,
    Tensor,
    compact_from_full,
    decode,
    encode,
    flatten,
    format_literal,
    full_from_compact,
    is_symmetric,
    parse_literal,
    slices,
    symmetric_outer_power,
    unflatten,
)

__all__ = [
    "__version__",
    "AsymmetricTensorError",
    "BinaryForm",
    "BudgetExceededError",
    "ClassificationReport",
    "CompactSym",
    "DEFAULT_BUDGET",
    "Discrepancy",
    "FieldSpec",
    "FixtureError",
    "GeneralRankStratification",
    "GroupElement",
    "MissingFixtureError",
    "Orbit",
    "OrbitRecord",
    "RankStratification",
    "SymTensor",
    "SymcanonError",
    "Tensor",
    "UndecomposableError",
    "Witness",
    "act",
    "act_diagonal",
    "canonical_form",
    "classify",
    "compact_from_full",
    "count_stabilizer_directly",
    "decode",
    "decompose",
    "diff",
    "emit",
    "encode",
    "enumerate_gl2",
    "eval_form",
    "flatten",
    "form_kernel_dimension",
    "format_literal",
    "full_from_compact",
    "general_rank_strata",
    "group_order",
    "is_prime",
    "is_symmetric",
    "load_fixture",
    "orbit",
    "parse_literal",
    "parse_structured",
    "slices",
    "stabilizer_size",
    "symmetric_outer_power",
    "symmetric_rank",
    "symmetric_rank_strata",
    "tensor_to_form",
    "unflatten",
    "verify_against_paper",
    "waring_rank_check",
]
