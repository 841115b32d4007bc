"""The package exports what its commands, `classify` and the report path use;
code that only the tests need lives in the tests."""

import ast
import importlib
import json
import re
import types
from pathlib import Path

import pytest

import symcanon

from conftest import run_python

ROOT = Path(__file__).resolve().parent.parent

# (module, name) pairs that left the package; the GL2 oracles, the orbit
# labels and the derivations read off the rank table moved to conftest
GONE = [
    ("classify", "verify_against_paper"),
    ("report", "parse_structured"),
    ("tensor", "flatten"),
    ("tensor", "unflatten"),
    ("tensor", "slices"),
    ("tensor", "SLICE_MODES"),
    ("group_action", "GroupElement"),
    ("group_action", "enumerate_gl2"),
    ("group_action", "act"),
    ("group_action", "act_diagonal"),
    ("group_action", "count_stabilizer_directly"),
    ("rank_strata", "_parents"),
    ("rank_strata", "_compact_code_of"),
    ("group_action", "orbit_labels"),
    ("group_action", "_generators"),
    ("report", "DOCUMENT_SCHEMA"),
    ("report", "_RECORD_SCHEMA"),
    ("tensor", "compact_weights"),
    ("tensor", "full_place_values"),
]
FORMS = ["BinaryForm", "tensor_to_form", "eval_form", "form_kernel_dimension", "waring_rank_check"]

# what the command line and the benchmark call
USED = ["classify", "FieldSpec", "general_rank_strata", "symmetric_rank_strata", "symmetric_rank",
        "decompose", "orbit", "stabilizer_size", "canonical_form", "emit", "diff", "load_fixture"]


def test_deleted_and_moved_names_are_gone():
    for module, name in GONE:
        assert not hasattr(importlib.import_module(f"symcanon.{module}"), name), name
    for name in [n for _, n in GONE] + FORMS:
        assert not hasattr(symcanon, name), name
    for name in ("add", "sub", "mul", "inv", "pow", "elements"):
        assert not hasattr(symcanon.FieldSpec, name), name
    assert not hasattr(symcanon.Tensor, "__getitem__")
    assert not hasattr(symcanon.SymTensor, "compact")
    assert not hasattr(symcanon.RankStratification, "parent_of")
    assert not hasattr(symcanon.RankStratification, "rank_of_compact_code")
    assert not hasattr(symcanon.GeneralRankStratification, "rank_of")
    assert not hasattr(symcanon.GeneralRankStratification, "stratum_codes")
    assert not hasattr(symcanon.CompactSym, "full")


def test_forms_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("symcanon.forms")


def test_all_resolves_and_holds_no_module():
    assert len(set(symcanon.__all__)) == len(symcanon.__all__)
    namespace = {}
    exec("from symcanon import *", namespace)
    for name in symcanon.__all__:
        assert not isinstance(getattr(symcanon, name), types.ModuleType), name
        assert namespace[name] is getattr(symcanon, name)
    assert set(USED) <= set(symcanon.__all__)


def test_readme_library_block_imports_exported_names():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S)[1]
    names = [alias.name for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.ImportFrom) and node.module == "symcanon" for alias in node.names]
    assert names and set(names) <= set(symcanon.__all__)


def test_lazy_namespace_in_a_fresh_interpreter():
    # the package imports its exports on first access; importing the
    # submodule symcanon.classify must not bind the module over the
    # function of that name, whatever is imported first
    script = """
import importlib, json, pkgutil, sys, types
import symcanon
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "symcanon")
import symcanon.classify
checks = {"after_submodule": symcanon.classify is sys.modules["symcanon.classify"].classify}
for info in pkgutil.iter_modules(symcanon.__path__):
    importlib.import_module("symcanon." + info.name)
checks["after_every_submodule"] = symcanon.classify is sys.modules["symcanon.classify"].classify
checks["no_module"] = not any(isinstance(getattr(symcanon, n), types.ModuleType) for n in symcanon.__all__)
checks["dir"] = set(symcanon.__all__) <= set(dir(symcanon))
try:
    symcanon.no_such_name
except AttributeError:
    checks["unknown"] = True
print(json.dumps({"loaded": loaded, "checks": checks}))
"""
    result = json.loads(run_python("-c", script).splitlines()[-1])
    assert result["loaded"] == ["symcanon", "symcanon._version"]
    assert result["checks"] == dict.fromkeys(["after_submodule", "after_every_submodule", "no_module", "dir",
                                              "unknown"], True)
    assert callable(symcanon.classify) and "no_such_name" not in dir(symcanon)


def test_whole_space_modules_import_no_dataclasses():
    # every value class builds on gfp.Frozen, so no module of the package
    # imports dataclasses (and inspect), and numpy stays unexecuted behind
    # _numpy until a whole-space function runs
    script = """
import sys
before = set(sys.modules)
import symcanon.report, symcanon.classify, symcanon.rank_strata
from symcanon import *
print(sorted(m for m in ("dataclasses", "numpy.linalg") if m in sys.modules and m not in before))
"""
    assert run_python("-c", script).splitlines()[-1] == "[]"
