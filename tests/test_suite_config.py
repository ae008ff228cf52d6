"""The suite's own pytest configuration, run on a tiny suite of its own."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

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


# a loop of bytecode, and one C call that never lets go of the GIL: the
# backtracking of (a+)+$ over a^40 b, about 2^40 steps
HANGS = {
    "loop": ("while True:\n        pass", "[45]"),
    "gil": ('re.match(r"(a+)+$", "a" * 40 + "b")', "4"),
}


@pytest.mark.parametrize("hang", HANGS)
def test_a_hung_test_ends_the_run(tmp_path, hang):
    # faulthandler_timeout alone prints the stalled frame and lets the
    # test run on; the run must end there with status 1, well within the
    # 60 s allowed, whether or not the test holds the GIL
    body, lines = HANGS[hang]
    source = f"import re\n\ndef test_hangs():\n    {body}\n"
    (tmp_path / "test_hang.py").write_text(source, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-o", "faulthandler_timeout=2",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_hang.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1
    assert "Timeout (0:00:02)!" in done.stderr
    assert re.search(rf'test_hang\.py", line {lines} in test_hangs', done.stderr)
