"""The repository's pytest configuration reports failures, whatever kind."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_plain_fails():
    assert False
'''


def test_failing_property_test_is_reported_not_an_internal_error(tmp_path):
    """With warnings as errors, a failed hypothesis test must not stop the
    session with INTERNALERROR (exit 3): both failures are reported and
    pytest exits 1."""
    test_file = tmp_path / "test_failing.py"
    test_file.write_text(FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "-p", "no:cacheprovider",
         "-q", str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "FAILED" in done.stdout and "test_property_fails" in done.stdout
    assert "2 failed" in done.stdout
