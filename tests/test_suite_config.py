"""The suite's own pytest configuration, run on a tiny suite of its own."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_GIVEN = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_after():
    pass
'''


def test_a_failing_given_test_fails_alone(tmp_path):
    # with every warning an error, hypothesis's own deprecation warning in
    # its failure report ended the run in INTERNALERROR, and the tests
    # after it never ran
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_given.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
    assert done.returncode == 1
