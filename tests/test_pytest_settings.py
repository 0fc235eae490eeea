"""The repository's pytest settings report a failing hypothesis test as one
failure: ``filterwarnings = ["error"]`` must not turn a warning that
hypothesis raises while it reports a falsifying example into an
INTERNALERROR that ends the session and drops every later result."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    # tmp_path as rootdir and working directory, so the run's .pytest_cache
    # and .hypothesis land there and not in the repository
    cmd = [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    done = subprocess.run(
        [*cmd, "test_two.py"], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert done.returncode == 1, output
    assert "1 failed, 1 passed" in done.stdout
