"""The project's pytest settings keep what a failing property reports.

``filterwarnings = ["error"]`` once turned a deprecation warning raised by the
hypothesis plugin's failure report into an INTERNALERROR that hid the
falsifying example.  The failing property runs in its own pytest process,
with the project's settings.
"""

import subprocess
import sys
from pathlib import Path

SETTINGS = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers(min_value=0))
def test_fails(x):
    assert x < 3
"""


def test_a_failing_property_shows_its_falsifying_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(SETTINGS), "--rootdir", str(tmp_path), "test_failing.py"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_fails(" in out and "x=3," in out, out
