"""The pytest settings in pyproject.toml must let a failing test fail.

`filterwarnings` turns warnings into errors; a warning raised inside a
plugin hook while a failure is reported would then abort the whole run
with INTERNALERROR, and the tests after the failure would never run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_AND_PASSING = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_probe.py").write_text(FAILING_AND_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout[-2000:]
    assert "1 failed, 1 passed" in run.stdout, run.stdout[-2000:]
