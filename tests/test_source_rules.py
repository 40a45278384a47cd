"""Checks that guard correctness must survive ``python -O`` and must not be
swallowed.

A bare ``assert`` vanishes under -O, and ``except Exception`` (or a bare
``except``) turns a failed check into whatever its handler does.  Every
module of the package is parsed and scanned for both.
"""

import ast
import pathlib

import pytest

import omlkit

MODULES = sorted(pathlib.Path(omlkit.__file__).parent.glob("*.py"))
BROAD = {"Exception", "BaseException"}


def _violations(source: str, name: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Assert):
            out.append(f"{name}:{node.lineno}: assert")
        elif isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(c is None or isinstance(c, ast.Name) and c.id in BROAD for c in caught):
                out.append(f"{name}:{node.lineno}: broad except")
    return out


def test_the_package_has_modules():
    assert {p.name for p in MODULES} >= {"__init__.py", "lattice_core.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_and_no_broad_except(path):
    assert _violations(path.read_text(encoding="utf-8"), path.name) == []


def test_the_scan_finds_each_kind():
    source = (
        "assert x\n"
        "try:\n    f()\nexcept Exception:\n    pass\n"
        "try:\n    f()\nexcept (KeyError, BaseException):\n    pass\n"
        "try:\n    f()\nexcept:\n    pass\n"
        "try:\n    f()\nexcept (KeyError, ValueError):\n    pass\n"
    )
    assert _violations(source, "m.py") == [
        "m.py:1: assert", "m.py:4: broad except", "m.py:8: broad except",
        "m.py:12: broad except"]
