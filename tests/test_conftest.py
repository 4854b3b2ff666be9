"""The suite's conftest under the "error" warning filter: a failing property
test is reported as a failure, and the session goes on to the next test."""

import shutil
import subprocess
import sys
from pathlib import Path

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
'''


def test_a_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "test_property.py").write_text(FAILING)
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "no:cacheprovider",
                          "--rootdir", str(tmp_path), str(tmp_path / "test_property.py")],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "FAILED test_property.py::test_fails" in out.stdout
    assert "1 failed, 1 passed" in out.stdout
