"""Checks that guard correctness must survive ``python -O`` and must not be
swallowed, and code that nothing uses.

A bare ``assert`` vanishes under -O, and ``except Exception`` (or a bare
``except``) turns a failed check into whatever its handler does.  Every
module of the package is parsed and scanned for both.  An imported name
that its module never mentions is what a deletion leaves behind; the
package's ``__init__`` re-exports names and is exempt.  So is a
module-level private function or constant, or a private method or cached
property of a class, that no module of the package mentions outside its
own definition.  Lattices and posets share one order
core, so each of its methods is defined once in the package.  Element sets
are read through ``FiniteOrtholattice.subalgebra``, so one ``raise``
refuses a set that is not closed.  The lattice constructor tests whole rows
and leaves naming a fault to the pair scans, so each validation message is
raised from one place: a fast path must not grow its own copy.  Orders
skip the partial-order check (``_Order._trusted``) only in the listed
derivations, whose rows are an order by construction (and, for the
orthoclosed sets of a frame, an ortholattice); data read from outside is
always checked.  A subalgebra poset's nodes are its bit sets
(``masks``): the library reads no ``.nodes``, whose SubalgebraSets are
built on first read for users of the public API such as ``selftest``.
``iso_lifting`` recognizes Boolean nodes from heights, up/down rows and
the enumerator's partition table, so it reads no cover row.
Nodes are labeled unchecked only in ``enumerate_subalgebras``; every other
labeling goes through the checking constructor.  The lattice core sits at
the bottom of the package: it imports no module of it but ``errors``, not
even inside a function.  The CI workflow runs no inline Python (no heredoc,
no ``python -c``): its reports live in ``tests/reports.py``, whose every
report the suite runs.
"""

import ast
import pathlib
import re

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


def _unused_imports(source: str, name: str) -> list[str]:
    tree = ast.parse(source, filename=name)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(local, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name}:{line}: {local} imported, never used"
            for local, line in sorted(imported.items(), key=lambda kv: kv[1])
            if local not in used]


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


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8"), path.name) == []


def test_the_unused_import_scan_finds_what_a_deletion_leaves():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re as regex\n"
        "from x import a, b\n"
        "def f() -> a:\n"
        "    from y import c\n"
        "    return os.sep\n"
    )
    assert _unused_imports(source, "m.py") == [
        "m.py:3: regex imported, never used", "m.py:4: b imported, never used",
        "m.py:6: c imported, never used"]


def _definitions_in(body, prefix=""):
    """(qualified name, node) of each function and constant defined in
    ``body``, and of each member of a class defined there."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _definitions_in(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, ast.FunctionDef):
            yield f"{prefix}{node.name}", node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield f"{prefix}{t.id}", node


def _unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private functions, constants and class members (one leading
    underscore) that no module in ``sources`` mentions, as a name or an
    attribute, outside their own definition."""
    trees = {name: ast.parse(source, filename=name) for name, source in sources.items()}
    mentions = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                mentions.append((name, node, node.id))
            elif isinstance(node, ast.Attribute):
                mentions.append((name, node, node.attr))
    out = []
    for name, tree in trees.items():
        for qualified, node in _definitions_in(tree.body):
            private = qualified.rpartition(".")[2]
            if not private.startswith("_") or private.startswith("__"):
                continue
            inside = set(map(id, ast.walk(node)))
            if not any(word == private and not (where == name and id(m) in inside)
                       for where, m, word in mentions):
                out.append(f"{name}:{node.lineno}: {qualified} is never used")
    return out


def test_no_unreferenced_private_name():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert _unreferenced_private_names(sources) == []


def test_the_private_name_scan_finds_what_a_deletion_leaves():
    sources = {
        "m.py": (
            "_CAP = 3\n"
            "_LIMIT: int = 4\n"
            "__version__ = '1'\n"
            "def _walk(n):\n"
            "    return _walk(n - 1) if n else _CAP\n"
            "def _helper():\n"
            "    return 1\n"
            "def public():\n"
            "    return m2._shared\n"
        ),
        "n.py": (
            "from m import _helper\n"
            "def _shared():\n"
            "    return _helper()\n"
        ),
    }
    assert _unreferenced_private_names(sources) == [
        "m.py:2: _LIMIT is never used", "m.py:4: _walk is never used"]


def test_the_private_name_scan_finds_an_unread_member():
    sources = {
        "m.py": (
            "from functools import cached_property\n"
            "class Order:\n"
            "    _CAP = 64\n"
            "    def __init__(self, up):\n"
            "        self.up = self._read(up)\n"
            "    def _read(self, up):\n"
            "        return tuple(up)\n"
            "    @cached_property\n"
            "    def _rank(self):\n"
            "        return sorted(self._rank)\n"
            "    @staticmethod\n"
            "    def _check(rows):\n"
            "        return rows\n"
            "    def _shared(self):\n"
            "        return 1\n"
        ),
        "n.py": "def count(P):\n    return P._shared()\n",
    }
    assert _unreferenced_private_names(sources) == [
        "m.py:3: Order._CAP is never used", "m.py:9: Order._rank is never used",
        "m.py:12: Order._check is never used"]


ORDER_CORE = ("leq", "pairs", "cover_up", "cover_down", "heights", "depths")


def _definitions(sources: dict[str, str], names) -> dict[str, list[str]]:
    """Where each of ``names`` is defined as a function or method."""
    out = {name: [] for name in names}
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source, filename=name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in out:
                out[node.name].append(f"{name}:{node.lineno}")
    return out


def test_the_order_core_is_defined_once():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    found = _definitions(sources, ORDER_CORE)
    assert {name: where for name, where in found.items() if len(where) != 1} == {}


def test_the_definition_scan_finds_a_second_copy():
    sources = {
        "m.py": "class A:\n    def leq(self, a, b):\n        return a <= b\n",
        "n.py": (
            "class B:\n"
            "    @property\n"
            "    def pairs(self):\n"
            "        return []\n"
            "def leq(a, b):\n"
            "    return a <= b\n"
        ),
    }
    assert _definitions(sources, ("leq", "pairs", "heights")) == {
        "leq": ["m.py:2", "n.py:5"], "pairs": ["n.py:3"], "heights": []}


NOT_CLOSED = "element set is not a closed subalgebra"


def _raises_mentioning(sources: dict[str, str], text: str) -> list[str]:
    """Where a ``raise`` statement holds a string constant containing ``text``."""
    out = []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source, filename=name)):
            if isinstance(node, ast.Raise) and any(
                    isinstance(c, ast.Constant) and isinstance(c.value, str) and text in c.value
                    for c in ast.walk(node)):
                out.append(f"{name}:{node.lineno}")
    return out


def test_one_raise_refuses_a_set_that_is_not_closed():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert len(_raises_mentioning(sources, NOT_CLOSED)) == 1


def test_the_raise_scan_finds_a_second_copy():
    sources = {
        "m.py": (
            "def f(mask):\n"
            "    if mask:\n"
            f"        raise ValueError('{NOT_CLOSED}')\n"
            f"    return '{NOT_CLOSED}'\n"
        ),
        "n.py": (
            "def g(mask):\n"
            f"    raise MalformedInput(f'{NOT_CLOSED}: {{mask}}')\n"
        ),
    }
    assert _raises_mentioning(sources, NOT_CLOSED) == ["m.py:3", "n.py:2"]


VALIDATION_MESSAGES = ["antisymmetry fails on", "transitivity fails above", "have no meet",
                       "have no join", "ortho does not reverse", "are not complements"]


@pytest.mark.parametrize("text", VALIDATION_MESSAGES)
def test_each_validation_message_is_raised_from_one_place(text):
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert len(_raises_mentioning(sources, text)) == 1


def test_the_raise_scan_finds_a_planted_validation_message():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    sources["planted.py"] = (
        "def fast_order_check(up, i, j):\n"
        "    if up[j] >> i & 1:\n"
        "        raise NotAPartialOrder(f'antisymmetry fails on {i}, {j}')\n"
    )
    found = _raises_mentioning(sources, "antisymmetry fails on")
    assert len(found) == 2 and "planted.py:3" in found


# Rows built as an order, or derived from one already checked, skip the
# check; everything read from outside goes through the constructor.  The
# orthoclosed sets of a checked frame are an ortholattice by construction
TRUSTED_CALLERS = [("reconstruction.py", "orthoclosed_lattice"),
                   ("sachs_boolean.py", "partition_lattice"),
                   ("subalgebra_posets.py", "as_abstract"),
                   ("subalgebra_posets.py", "dual"),
                   ("subalgebra_posets.py", "enumerate_subalgebras"),
                   ("subalgebra_posets.py", "interval_below"),
                   ("subalgebra_posets.py", "relabel")]


def _trusted_callers(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, innermost enclosing function) of each call to ``_trusted``,
    sorted; a call outside any function names the module alone."""
    out = []

    def visit(node, name, function):
        if (isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "_trusted"):
            out.append((name, function))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, name, function)

    for name, source in sources.items():
        visit(ast.parse(source, filename=name), name, "")
    return sorted(out)


def test_only_the_listed_derivations_skip_the_order_check():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert _trusted_callers(sources) == TRUSTED_CALLERS


def test_the_trusted_call_scan_finds_a_planted_caller():
    sources = {
        "m.py": (
            "class P:\n"
            "    def dual(self):\n"
            "        def inner():\n"
            "            return P._trusted(self.down, self.up)\n"
            "        return inner()\n"
            "x = _trusted([1], [1])\n"
        ),
        "n.py": "def parse(up):\n    return AbstractPoset(up)\n",
    }
    assert _trusted_callers(sources) == [("m.py", ""), ("m.py", "inner")]


# ``subalgebra_posets`` defines the ``nodes`` property; ``selftest`` checks
# the public API as a user would
NODE_READERS = {"selftest.py", "subalgebra_posets.py"}


def _attribute_reads(source: str, name: str, attrs) -> list[str]:
    """"module:line: attribute" for each use of an attribute named in
    ``attrs``, as ``ast.walk`` meets them."""
    return [f"{name}:{node.lineno}: {node.attr}"
            for node in ast.walk(ast.parse(source, filename=name))
            if isinstance(node, ast.Attribute) and node.attr in attrs]


def _node_readers(sources: dict[str, str]) -> list[str]:
    """The modules that read an attribute named ``nodes``, sorted."""
    return sorted(name for name, source in sources.items()
                  if _attribute_reads(source, name, {"nodes"}))


def test_the_library_reads_node_masks_not_node_objects():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert set(_node_readers(sources)) <= NODE_READERS


def test_the_node_read_scan_finds_a_planted_reader():
    sources = {
        "m.py": "def f(P):\n    return [n.members for n in P.nodes]\n",
        "n.py": "def g(P):\n    return P.masks\n",
    }
    assert _node_readers(sources) == ["m.py"]


# Boolean nodes are recognized from heights, up/down rows and the
# enumerator's partition table; the lift reads no covers either
COVER_ROWS = {"cover_up", "cover_down"}


def test_iso_lifting_reads_no_cover_row():
    path = next(p for p in MODULES if p.name == "iso_lifting.py")
    assert _attribute_reads(path.read_text(encoding="utf-8"), path.name, COVER_ROWS) == []


def test_iso_lifting_reads_no_blocks():
    # the lifts decide Booleanness by ``is_boolean``'s atom count, and
    # find the four-element blocks as the nodes {0, p, p', 1} of two atoms
    path = next(p for p in MODULES if p.name == "iso_lifting.py")
    assert _attribute_reads(path.read_text(encoding="utf-8"), path.name, {"blocks"}) == []


def test_the_attribute_scan_finds_a_planted_cover_read():
    source = (
        "def rank(P, x):\n"
        "    atoms = P.cover_up[P.bottom()]\n"
        "    return P.heights[x], atoms, P.up[x]\n"
        "def coatoms(P, x):\n"
        "    return P.down[x] & P.cover_down[x]\n"
    )
    assert _attribute_reads(source, "m.py", COVER_ROWS) == [
        "m.py:2: cover_up", "m.py:5: cover_down"]


# Nodes get their masks in the checking constructor and, unchecked, in the
# enumerator, whose masks are distinct closed sets in ascending order
MASK_LABELERS = [("subalgebra_posets.py", "SubalgebraPoset.__init__"),
                 ("subalgebra_posets.py", "enumerate_subalgebras")]


def _mask_labelers(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, qualified name of the innermost enclosing function) of each
    assignment to an attribute named ``masks``, sorted."""
    out = []

    def visit(node, name, scope, function):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Attribute) and t.attr == "masks"
                   for target in targets for t in ast.walk(target)):
                out.append((name, function))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}{node.name}."
            if not isinstance(node, ast.ClassDef):
                function = scope[:-1]
        for child in ast.iter_child_nodes(node):
            visit(child, name, scope, function)

    for name, source in sources.items():
        visit(ast.parse(source, filename=name), name, "", "")
    return sorted(out)


def test_only_the_enumerator_labels_nodes_unchecked():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert _mask_labelers(sources) == MASK_LABELERS


def test_the_mask_label_scan_finds_a_planted_labeler():
    sources = {
        "m.py": (
            "class P:\n"
            "    def relabel(self, perm):\n"
            "        q = P._trusted(self.up, self.down)\n"
            "        q.owner, q.masks = self.owner, self.masks\n"
            "        return q\n"
            "P.masks = ()\n"
        ),
        "n.py": "def read(P):\n    masks = P.masks\n    return masks\n",
    }
    assert _mask_labelers(sources) == [("m.py", ""), ("m.py", "P.relabel")]


CORE_IMPORTS = {"errors"}


def _package_imports(source: str, name: str) -> list[tuple[str, str]]:
    """("module:line", imported package module) for each import of an
    omlkit module, at module level or inside a function, sorted."""
    out = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.partition(".")[0] != "omlkit":
                    continue
                module = module.removeprefix("omlkit").lstrip(".")
            modules = [module] if module else [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            modules = [alias.name.removeprefix("omlkit").lstrip(".") or "__init__"
                       for alias in node.names if alias.name.partition(".")[0] == "omlkit"]
        else:
            continue
        out += [(f"{name}:{node.lineno}", module) for module in modules]
    return sorted(out)


def test_the_lattice_core_imports_only_the_errors():
    path = next(p for p in MODULES if p.name == "lattice_core.py")
    found = _package_imports(path.read_text(encoding="utf-8"), path.name)
    assert found and {module for _, module in found} <= CORE_IMPORTS


def test_the_package_import_scan_finds_a_local_import():
    source = (
        "import re\n"
        "from .errors import FlavorError\n"
        "class L:\n"
        "    def blocks(self):\n"
        "        from .subalgebra_posets import bsub\n"
        "        from . import fileio\n"
        "        import omlkit.cli\n"
        "        from omlkit import selftest\n"
        "        return bsub(self)\n"
    )
    assert _package_imports(source, "m.py") == [
        ("m.py:2", "errors"), ("m.py:5", "subalgebra_posets"), ("m.py:6", "fileio"),
        ("m.py:7", "cli"), ("m.py:8", "selftest")]


WORKFLOW = pathlib.Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
INLINE_PYTHON = re.compile(r"<<|\bpython[\d.]*\s(?:.*\s)?-c\b")


def _inline_python(text: str, name: str) -> list[str]:
    """"name:line" of each line that hands a shell code inline: a heredoc
    or a ``python -c``."""
    return [f"{name}:{number}" for number, line in enumerate(text.splitlines(), 1)
            if INLINE_PYTHON.search(line)]


def test_the_workflow_runs_no_inline_python():
    text = WORKFLOW.read_text(encoding="utf-8")
    assert _inline_python(text, WORKFLOW.name) == []
    assert "python tests/reports.py" in text


def test_the_inline_python_scan_finds_each_kind():
    text = (
        "run: python - <<'EOF'\n"
        "run: python3 -c 'import omlkit'\n"
        "run: python -O -c pass\n"
        "run: python -O -m omlkit.cli selftest\n"
        "run: python -m pytest -q --continue-on-collection-errors\n"
        "run: cat <<EOF >> summary.md\n"
    )
    assert _inline_python(text, "w.yml") == ["w.yml:1", "w.yml:2", "w.yml:3", "w.yml:6"]
