"""The benchmark's trace points (perfbench/tracing.py) must all resolve.

perfbench wraps public names of the package from outside and drops every
metric fed by a name it cannot find, so a rename or a call that bypasses
the module-level name silently shrinks the benchmark's output.  This runs
the wrapped paths in a subprocess, since installing the wrappers patches
the modules for the whole interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json
from tracing import Tracer

tracer = Tracer()
absent = tracer.install()
import symcanon, symcanon.cli
from symcanon import report

rep = symcanon.classify(symcanon.FieldSpec(3), 3)
report.emit(rep, "structured")
report.diff(rep, report.load_fixture(3, 3))
codes = [symcanon.cli.main([cmd, "--p", "5", "--order", "3", "--tensor", "c:1,2,0,3"])
         for cmd in ("rank", "canon")]
print(json.dumps({"absent": absent, "codes": codes, "spans": tracer.spans}))
"""


def test_every_trace_point_resolves_and_keeps_its_counts():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["absent"] == []
    assert result["codes"] == [0, 0]
    spans = result["spans"]
    assert [s["name"] for s in spans if "lost" in s["counts"]] == []
    by_id = {s["id"]: s for s in spans}
    # classify must call the strata and the action stack through its module names
    children = {s["name"] for s in spans if s["parent"] is not None
                and by_id[s["parent"]]["name"] == "classify"}
    assert children == {"symmetric_rank_strata", "action_stack"}
    assert {"emit", "diff", "load_fixture", "symmetric_rank_strata", "symmetric_rank",
            "canonical_form"} <= {s["name"] for s in spans}
