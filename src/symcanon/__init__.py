"""Classification of 2x2x2 and 2x2x2x2 symmetric tensors over prime fields.

Computes symmetric-rank strata by layered generation, orbits and
lexicographically minimal canonical forms under the diagonal GL2(F_p)
action, orbit and stabilizer sizes, explicit decomposition witnesses,
and audits the stored reference tables.

Every export is imported from its submodule on first access (PEP 562), so
`import symcanon` loads no submodule but `_version`, and a one-tensor
query loads only the modules it runs.
"""

import sys
from importlib import import_module
from types import ModuleType

from ._version import __version__

# each exported name, in the order of __all__, and the submodule that defines it
_SOURCE = {name: module for module, names in [
    ("apolar", "Witness decompose symmetric_rank"),
    ("classify", "classify ClassificationReport OrbitRecord"),
    ("errors", "AsymmetricTensorError BudgetExceededError FixtureError MissingFixtureError SymcanonError "
               "UndecomposableError"),
    ("gfp", "FieldSpec is_prime"),
    ("group_action", "Orbit canonical_form group_order orbit stabilizer_size DEFAULT_BUDGET"),
    ("rank_strata", "GeneralRankStratification RankStratification general_rank_strata symmetric_rank_strata"),
    ("report", "Discrepancy diff emit load_fixture"),
    ("tensor", "CompactSym SymTensor Tensor compact_from_full decode encode format_literal full_from_compact "
               "is_symmetric parse_literal symmetric_outer_power"),
] for name in names.split()}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(ModuleType):
    # importing a submodule binds it on the package under its own name;
    # where an export has that name (classify), the export keeps it, as it
    # does when the package imports its exports eagerly
    def __setattr__(self, name, value):
        if name in _SOURCE and isinstance(value, ModuleType):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
