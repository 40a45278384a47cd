"""Acceptance suite: one test per criterion, exact expectations, no tolerances.

Each criterion prints its own PASS line (visible with `pytest -s` or through
`omlkit selftest`, which runs the identical checks).
"""

import pathlib
import subprocess
import sys

import pytest

from omlkit import selftest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name,check", selftest.CHECKS,
                         ids=[name for name, _ in selftest.CHECKS])
def test_criterion(name, check):
    detail = check()
    print(f"PASS {name}: {detail}")


def test_selftest_runner_is_green():
    import io
    stream = io.StringIO()
    assert selftest.run(stream)
    text = stream.getvalue()
    assert text.count("PASS") == len(selftest.CHECKS)
    assert "FAIL" not in text


def test_selftest_still_fails_under_python_O(subprocess_env):
    # -O strips assert statements; a broken reconstruction must still FAIL
    code = ("import sys\n"
            "from omlkit import catalog, selftest\n"
            "selftest.reconstruct = lambda poset, name=None: catalog('2^2')\n"
            "print('debug', __debug__)\n"
            "print('result', selftest.run(sys.stdout))\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], env=subprocess_env,
                         capture_output=True, text=True, check=True).stdout
    assert "debug False" in out
    assert "FAIL reconstruction-round-trip: 2^3: size 4 != 8" in out
    assert "PASS two-block-bsub-shape" in out
    assert out.rstrip().endswith("result False")


def _expected(name: str) -> str:
    return (DEMOS / "expected" / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_output_is_unchanged(demo, subprocess_env):
    out = subprocess.run([sys.executable, str(demo)], env=subprocess_env,
                         capture_output=True, text=True, check=True).stdout
    assert out == _expected(demo.stem)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "-O"])
def test_selftest_output_is_unchanged(flags, subprocess_env):
    out = subprocess.run([sys.executable, *flags, "-m", "omlkit.cli", "selftest"],
                         env=subprocess_env, capture_output=True, text=True, check=True).stdout
    assert out == _expected("selftest")
