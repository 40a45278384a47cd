"""Trend tables for the CI job summary: the package's code lines, and the
work counts and timings of enumeration, lifting and search on fixed inputs.
Run it from the repository root with omlkit importable:

    python tests/reports.py >> "$GITHUB_STEP_SUMMARY"

Each report is a function of its inputs, listed smallest first, that
returns one row per input; ``main`` prints each as a Markdown table.  The
counts are read from outside the library, by wrapping one of its functions
for the length of a call (``patched``).  Nothing here fails a run: a count
that a test pins to a constant is checked by that test, and the tables show
what moves from change to change.  Inputs are named as in the tables:
``A x B`` is the product of two catalog lattices, ``Sub(L)`` and ``BSub(L)``
its subalgebra posets, and ``f on X`` the call of ``f`` on ``X``.
"""

import ast
import io
import pathlib
import random
import timeit
import tokenize
from collections import Counter
from contextlib import contextmanager
from functools import partial

from legacy_oracles import (legacy_boolean_family, legacy_orthoclosed, legacy_permuted,
                            legacy_product_order)

import omlkit
from omlkit import (FiniteOrtholattice, boolean_nodes, bsub, build_frame, catalog,
                    classify_atoms, classify_recovery, enumerate_homs, enumerate_subalgebras,
                    lift_bsub_iso, morphism, orthoclosed_lattice, poset_isomorphic, product,
                    relabel, sub, verify_determination)
from omlkit import lattice_core, search, subalgebra_posets
from omlkit.subalgebra_posets import _boolean_family, check_order_iso

BUDGET = 10**6


@contextmanager
def patched(owner, name, wrapper):
    """``owner.name`` replaced by ``wrapper(original)`` inside the block,
    and the original put back however the block ends."""
    original = getattr(owner, name)
    setattr(owner, name, wrapper(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def tally(counts, key, weight=lambda *args: 1):
    """A wrapper for ``patched`` that adds ``weight(*args)`` to
    ``counts[key]`` at each call."""
    def wrap(original):
        def counted(*args, **kwargs):
            counts[key] += weight(*args)
            return original(*args, **kwargs)
        return counted
    return wrap


def best_ms(call):
    """The least of 5 timings of ``call`` in ms a call, each timing as many
    calls as its first run says fit in about 10 ms."""
    number = max(1, int(0.01 / timeit.timeit(call, number=1)))
    return min(timeit.repeat(call, number=number, repeat=5)) / number * 1e3


def lattice(name):
    """A catalog lattice, or the product ``A x B`` of two."""
    return product(*map(catalog, name.split(" x "))) if " x " in name else catalog(name)


def poset_of(label):
    """The lattice of ``Sub(L)`` or ``BSub(L)``, and whether it is BSub."""
    kind, _, name = label[:-1].partition("(")
    return lattice(name), kind == "BSub"


def relabeled(L):
    """L with its inner elements shuffled."""
    inner = list(range(1, L.n - 1))
    random.Random(1).shuffle(inner)
    return relabel(L, [0, *inner, L.n - 1])


def code_lines(paths):
    """Lines and code lines of each module; a code line is any line that is
    not blank, a comment or part of a docstring."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    rows = []
    for path in paths:
        source = path.read_text(encoding="utf-8")
        docs = set()
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                docs.update(range(node.lineno, node.end_lineno + 1))
        code = set()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type not in skip:
                code.update(range(tok.start[0], tok.end[0] + 1))
        rows.append((path.name, source.count("\n"), len(code - docs)))
    return rows + [("total", sum(row[1] for row in rows), sum(row[2] for row in rows))]


TOKEN_STEP = 8192


def module_tokens(paths):
    """Parser tokens of each module (comments and non-logical line breaks
    dropped), and how far the count is below the next multiple of
    ``TOKEN_STEP``.  A process that compiles a module from source, as every
    process does without a bytecode cache, grows the parser's token array
    in such steps: a module past one raises the peak memory of each."""
    rows = []
    for path in paths:
        with path.open(encoding="utf-8") as source:
            count = sum(tok.type not in (tokenize.COMMENT, tokenize.NL)
                        for tok in tokenize.generate_tokens(source.readline))
        rows.append((path.name, count, TOKEN_STEP - count % TOKEN_STEP))
    return rows


def closure_counts(labels):
    """Nodes, the blocks whose partitions are read and the nodes read off
    them, and the meet closures (the bottom's own included) of each
    enumeration."""
    rows = []
    for label in labels:
        L, boolean_only = poset_of(label)
        counts = Counter()

        def read(family):
            def counted(L, blocks, budget):
                found = family(L, blocks, budget)
                counts["blocks"] += len(blocks)
                counts["partitions"] += len(found[0])
                return found
            return counted

        with (patched(subalgebra_posets, "_boolean_family", read),
              patched(FiniteOrtholattice, "_extend", tally(counts, "meet"))):
            nodes = enumerate_subalgebras(L, boolean_only=boolean_only).size
        rows.append((label, nodes, counts["blocks"], counts["partitions"], counts["meet"]))
    return rows


def row_building(labels):
    """Nodes and cover pairs walked of each family read off partitions (all
    the blocks of BSub; Sub(2^k) is one block of all the atoms), and the
    time of its rows from covers and by the key transpose they replaced."""
    rows = []
    for label in labels:
        L, boolean_only = poset_of(label)
        blocks = L._block_atoms if boolean_only else [L._atoms]
        counts = Counter()
        walked = tally(counts, "walked", lambda lower, upper, place: len(lower))
        with patched(subalgebra_posets, "_cover_rows", walked):
            masks, _, _ = _boolean_family(L, blocks, BUDGET)
        rows.append((label, len(masks), counts["walked"],
                     best_ms(partial(_boolean_family, L, blocks, BUDGET)),
                     best_ms(partial(legacy_boolean_family, L, blocks, BUDGET))))
    return rows


def two_way(product_order):
    """A wrapper for ``patched`` that swaps ``_product_order`` for the
    two-way build it replaced, each summand's masks its own keys."""
    return lambda parts: legacy_product_order([(list(found), list(found)) for found, _ in parts])


def product_rows(labels):
    """Nodes of each Sub of a horizontal sum and cover pairs walked to
    spread its summands' rows across the product, and the time of ``sub``
    with its summands spread through their covers, as the library does,
    and with the product built by ``two_way``."""
    rows = []
    for label in labels:
        L, _ = poset_of(label)
        counts = Counter()
        walked = tally(counts, "walked", lambda lower, upper, place: len(lower))
        with patched(subalgebra_posets, "_cover_rows", walked):
            nodes = sub(L).size
        covers = best_ms(partial(sub, L))
        with patched(subalgebra_posets, "_product_order", two_way):
            legacy = best_ms(partial(sub, L))
        rows.append((label, nodes, counts["walked"], covers, legacy))
    return rows


def classify_embedding():
    L, M = catalog("2^3"), catalog("2^5")
    # atoms 0 and 1 to themselves, atom 2 to the join of atoms 2, 3 and 4
    classify_recovery(morphism(L, M, [a & 3 | (a >> 2 & 1) * 28 for a in range(8)]))


def lift_identity():
    L = catalog("hsum(2^5,2^5)")
    P = bsub(L)
    lift_bsub_iso(L, L, tuple(range(P.size)), P, P)


def lattices_built(calls):
    """The lattices each call constructs, its inputs included."""
    rows = []
    for label, call in calls:
        counts = Counter()
        with patched(FiniteOrtholattice, "__init__", tally(counts, "built")):
            call()
        rows.append((label, counts["built"]))
    return rows


def construction(labels):
    """The constructor's time on each lattice's rows, and that of Sub of a
    fresh copy, its construction included: the lattice keeps no meet table,
    and Sub reads each meet it needs at an AND of two down rows."""
    rows = []
    for label in labels:
        L = lattice(label)
        rows.append((label, best_ms(partial(FiniteOrtholattice, L.up, L.ortho)),
                     best_ms(lambda: sub(FiniteOrtholattice(L.up, L.ortho)))))
    return rows


def frame_of(P):
    """The frame of a fresh copy of P, which keeps none of P's cached rows."""
    Q = P.as_abstract()
    return build_frame(Q, *classify_atoms(Q))


def reconstruction(labels):
    """Frame points and closed sets of each BSub's rebuild, and the time of
    its atom classification and frame, of ``orthoclosed_lattice``, and of
    the Close-by-One search and the validating constructor it replaced."""
    rows = []
    for label in labels:
        L, _ = poset_of(label)
        P = bsub(L).as_abstract()
        frame = frame_of(P)
        rows.append((label, frame.size, orthoclosed_lattice(frame).n,
                     best_ms(partial(frame_of, P)),
                     best_ms(partial(orthoclosed_lattice, frame)),
                     best_ms(lambda: FiniteOrtholattice(*legacy_orthoclosed(frame)[1:]))))
    return rows


def bit_walk(permuted):
    """A wrapper for ``patched`` that swaps ``_permuted`` for the walk over
    every set bit that it replaced."""
    return lambda rows, cols, perm: legacy_permuted(rows, perm)


def order_renaming(labels):
    """Rows and set bits of each order, and the time of a call that renames
    its rows by their spelled transpose, as the library does, and by
    ``bit_walk``."""
    rows = []
    for label in labels:
        call, _, what = label.partition(" on ")
        rng = random.Random(1)
        if call == "morphism":
            order = lattice(what)
            perm = [0, *rng.sample(range(1, order.n - 1), order.n - 2), order.n - 1]
            target = relabel(order, perm)
            run = partial(morphism, order, target, perm)
        else:
            L, boolean_only = poset_of(what)
            order = enumerate_subalgebras(L, boolean_only=boolean_only)
            perm = rng.sample(range(order.size), order.size)
            target = order.relabel(perm)
            run = partial(check_order_iso, perm, order, target)
        spelled = best_ms(run)
        with (patched(lattice_core, "_permuted", bit_walk),
              patched(subalgebra_posets, "_permuted", bit_walk)):
            walked = best_ms(run)
        rows.append((label, len(order.up), sum(row.bit_count() for row in order.up),
                     spelled, walked))
    return rows


def placements(counts):
    """A wrapper for ``patched`` around ``_backtrack`` that counts the
    placements it tries: each target left in a point's domain, and each
    forced partner left in its own."""
    def wrap(backtrack):
        def counted(*args, consistent=None, **kwargs):
            def tried(a, b):
                counts["placed"] += 1
                return consistent is None or consistent(a, b)
            return backtrack(*args, consistent=tried, **kwargs)
        return counted
    return wrap


def searches(labels):
    """The time of each search against an inner relabeling of its lattice,
    and the placements it tries."""
    rows = []
    for label in labels:
        call, _, what = label.partition(" on ")
        if call == "verify_determination":
            L = lattice(what)
            M = relabeled(L)
            run = partial(verify_determination, L, M)
        else:
            L, boolean_only = poset_of(what)
            P = enumerate_subalgebras(L, boolean_only=boolean_only)
            Q = enumerate_subalgebras(relabeled(L), boolean_only=boolean_only)
            run = {"boolean_nodes": partial(boolean_nodes, P),
                   "poset_isomorphic": partial(poset_isomorphic, P, Q)}[call]
        counts = Counter()
        with patched(search, "_backtrack", placements(counts)):
            run()
        rows.append((label, best_ms(run), counts["placed"]))
    return rows


# (title, columns, report, its inputs smallest first)
REPORTS = [
    ("Source lines", ("module", "lines", "code lines"), code_lines,
     sorted(pathlib.Path(omlkit.__file__).parent.glob("*.py"))),
    ("Parser tokens", ("module", "tokens", f"below the next {TOKEN_STEP:,} step"), module_tokens,
     sorted(pathlib.Path(omlkit.__file__).parent.glob("*.py"))),
    ("Closure counts",
     ("poset", "nodes", "blocks read", "nodes from partitions", "meet closures"),
     closure_counts,
     ["BSub(example22 x 2^1)", "Sub(example22 x 2^1)", "BSub(MO2 x MO2)", "BSub(hsum(2^5,2^5))",
      "Sub(2^6)", "BSub(2^6)", "Sub(hsum(2^4,2^4,2^4))"]),
    ("Row building",
     ("family", "nodes", "cover pairs walked", "best of 5, covers (ms)", "best of 5, keys (ms)"),
     row_building, ["BSub(hsum(2^5,2^5))", "BSub(MO3 x 2^3)", "BSub(2^6)", "Sub(2^6)"]),
    ("Product rows",
     ("poset", "nodes", "cover pairs walked", "best of 5, covers (ms)",
      "best of 5, two-way build (ms)"),
     product_rows, ["Sub(hsum(2^4,2^4))", "Sub(MO8)", "Sub(hsum(2^4,2^4,2^2))", "Sub(hsum(2^5,2^5))"]),
    ("Lattices built", ("call", "lattices built"), lattices_built,
     [("enumerate_homs on 2^3, 2^5", lambda: enumerate_homs(catalog("2^3"), catalog("2^5"))),
      ("classify_recovery on an embedding 2^3 -> 2^5", classify_embedding),
      ("bsub on 2^6", lambda: bsub(catalog("2^6"))),
      ("bsub on hsum(2^5,2^5)", lambda: bsub(catalog("hsum(2^5,2^5)"))),
      ("sub on hsum(2^4,2^4)", lambda: sub(catalog("hsum(2^4,2^4)"))),
      ("lift_bsub_iso on BSub(hsum(2^5,2^5)), identity", lift_identity),
      ("bsub on benzene x 2^3", lambda: bsub(lattice("benzene x 2^3")))]),
    ("Construction", ("lattice", "best of 5, constructor (ms)", "best of 5, constructor and sub (ms)"),
     construction, ["example22", "hsum(2^5,2^5)", "2^6", "MO3 x 2^3"]),
    ("Reconstruction",
     ("poset", "frame points", "closed sets", "best of 5, classify and frame (ms)",
      "best of 5, `orthoclosed_lattice` (ms)",
      "best of 5, `legacy_orthoclosed` and constructor (ms)"),
     reconstruction,
     ["BSub(hsum(2^3,2^3,2^3,2^2,2^2,2^2))", "BSub(MO31)",
      "BSub(hsum(2^3,2^3,2^3,2^3,2^3,2^3,2^3,2^3,2^3,2^3))"]),
    ("Order renaming",
     ("call", "rows", "set bits", "best of 5, spelled (ms)", "best of 5, bit walk (ms)"),
     order_renaming,
     ["morphism on hsum(2^5,2^5)", "check_order_iso on BSub(hsum(2^5,2^5))",
      "check_order_iso on Sub(hsum(2^4,2^4))", "check_order_iso on Sub(MO10)"]),
    ("Searches", ("call", "best of 5 (ms)", "placements tried"), searches,
     ["poset_isomorphic on Sub(2^5)", "poset_isomorphic on BSub(2^5)",
      "verify_determination on 2^5", "poset_isomorphic on BSub(MO3 x 2^3)",
      "poset_isomorphic on Sub(MO3 x 2^3)", "verify_determination on MO3 x 2^3",
      "poset_isomorphic on BSub(hsum(2^5,2^5))", "verify_determination on hsum(2^5,2^5)",
      "poset_isomorphic on Sub(hsum(2^5,2^5))", "boolean_nodes on Sub(2^6)"]),
]


def table(title, columns, rows):
    """A report as Markdown: a heading, then a table with ms to 3 places."""
    cells = [[f"{c:.3f}" if isinstance(c, float) else str(c) for c in row] for row in rows]
    lines = [f"### {title}", "", "| " + " | ".join(columns) + " |", "|" + " --- |" * len(columns)]
    return "\n".join(lines + ["| " + " | ".join(row) + " |" for row in cells]) + "\n"


def main():
    for title, columns, report, inputs in REPORTS:
        print(table(title, columns, report(inputs)))


if __name__ == "__main__":
    main()
