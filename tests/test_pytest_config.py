"""The test configuration in pyproject.toml."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_small(x):
    assert x < 5
'''


def test_a_failing_property_is_reported_not_an_internal_error(tmp_path):
    # on a failing example hypothesis imports libcst, whose import warns
    # DeprecationWarning; the warning filters must let the report through
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "FAILED test_property.py::test_small" in out
    assert "Falsifying example: test_small(" in out
