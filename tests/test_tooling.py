"""The suite's own configuration: a failing test is reported, not a crash of pytest."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_GIVEN = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert False
"""


def test_failing_given_test_is_reported(tmp_path):
    # hypothesis reports a failing example through libcst where it is
    # installed, whose import warns: under pyproject.toml's warning filters
    # that ended the run with INTERNALERROR (exit 3) and skipped later files
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_given.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
