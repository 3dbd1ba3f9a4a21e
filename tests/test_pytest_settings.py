"""The suite's pytest settings let every test run after a failure.

``filterwarnings = ["error"]`` turns any warning into a failure.  When a
``@given`` test fails, hypothesis's pytest plugin may import ``libcst`` to
write a patch, and that import can warn (``mypy_extensions.TypedDict is
deprecated``); raised as an error inside the plugin's hook, it would end
the session with an INTERNALERROR and no later test would run.
"""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    # The repository's [tool.pytest.ini_options]; nothing is written to the checkout.
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(REPO, "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1], output
