"""The repo's pytest settings, checked on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_CASE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(i):
    assert i < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    # hypothesis reports a failing @given test through libcst, whose import
    # warns; with warnings as errors that must not abort the run
    (tmp_path / "test_case.py").write_text(_CASE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_case.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
    assert "INTERNALERROR" not in out, out
