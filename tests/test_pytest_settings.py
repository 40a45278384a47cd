"""The suite's own settings keep a failing property test from ending the run.

``filterwarnings = ["error"]`` turns every warning into an error.  When an
``@given`` test fails, hypothesis's pytest plugin imports libcst to report
the example, and libcst's import warns that ``mypy_extensions.TypedDict``
is deprecated.  Raised as an error there, it stopped pytest with an
internal error (exit 3) before the tests after the failing one ran.
"""

import pathlib
import subprocess
import sys

CONFIG = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """\
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0
"""

PASSING = """\
def test_passes():
    pass
"""


def test_a_failing_property_test_is_reported_and_the_run_goes_on(tmp_path, subprocess_env):
    (tmp_path / "test_a_fails.py").write_text(FAILING, encoding="utf-8")
    (tmp_path / "test_b_passes.py").write_text(PASSING, encoding="utf-8")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), "test_a_fails.py", "test_b_passes.py"],
        cwd=tmp_path, env=subprocess_env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 1, out.stdout[-2000:] + out.stderr[-2000:]
    assert "1 failed, 1 passed" in out.stdout.splitlines()[-1]
