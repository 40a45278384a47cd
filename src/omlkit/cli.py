"""Command-line front end.

One verb per pipeline; lattice, poset and morphism files travel in the
canonical JSON formats, so verbs compose through pipes (`-` or no path
means stdin).  Usage errors exit 2, domain errors print to stderr and
exit 1, success is exit 0 with byte-deterministic output.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import fileio
from .errors import MalformedInput, OmlkitError
from .lattice_core import ORTHOMODULAR
from .subalgebra_posets import enumerate_subalgebras

# The layers above the core (reconstruction, lifting, the Sachs duality, the
# preimage functor), the constructions and the selftest are imported inside
# the verbs that run them, so a process pays only for what its verb uses.


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise MalformedInput(f"{'stdin' if path == '-' else path}: not UTF-8 text") from None


def _write(text: str, path: Optional[str]):
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_lattice(path: str):
    return fileio.parse_lattice(_read(path))


def _flavor_text(L) -> str:
    if L.flavor == ORTHOMODULAR:
        return "orthomodular"
    return "ortholattice (NOT orthomodular)"


def _add_poset_flags(p: argparse.ArgumentParser):
    p.add_argument("lattice", nargs="?", default="-", help="lattice file (default stdin)")
    p.add_argument("--dot", action="store_true", help="emit Graphviz dot instead of JSON")
    p.add_argument("-o", "--output", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omlkit",
        description="finite ortholattice toolkit: subalgebra posets, "
                    "reconstruction, isomorphism lifting")
    verbs = parser.add_subparsers(dest="verb", required=True)

    p = verbs.add_parser("validate", help="validate a lattice file, report its flavor")
    p.add_argument("lattice", nargs="?", default="-")
    p.set_defaults(func=_cmd_validate)

    p = verbs.add_parser("catalog", help="emit a named catalog lattice")
    p.add_argument("name")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_catalog)

    for verb, blurb, boolean_only in (("sub", "enumerate all subalgebras", False),
                                      ("bsub", "enumerate Boolean subalgebras", True)):
        p = verbs.add_parser(verb, help=blurb)
        _add_poset_flags(p)
        p.set_defaults(func=_cmd_enumerate, boolean_only=boolean_only)

    p = verbs.add_parser("blocks", help="list the maximal Boolean subalgebras")
    p.add_argument("lattice", nargs="?", default="-")
    p.set_defaults(func=_cmd_blocks)

    p = verbs.add_parser("reconstruct",
                         help="rebuild a lattice from a Boolean-subalgebra poset file")
    p.add_argument("poset", nargs="?", default="-")
    p.add_argument("--frame", action="store_true",
                   help="also print the intermediate orthogonality frame")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_reconstruct)

    for verb, blurb, boolean_only in (
            ("lift-bsub", "lift a Boolean-subalgebra poset isomorphism", True),
            ("lift-sub", "lift a full subalgebra lattice isomorphism", False)):
        p = verbs.add_parser(verb, help=blurb)
        p.set_defaults(func=_cmd_lift, boolean_only=boolean_only)
        p.add_argument("source")
        p.add_argument("target")
        p.add_argument("iso", help="node map file: pairs of subalgebra element lists")
        p.add_argument("--canonical", action="store_true",
                       help="emit only the canonical lift (default: every consistent lift)")
        p.add_argument("-o", "--output", default=None)

    p = verbs.add_parser("check-sachs",
                         help="order tests vs direct definitions on a Boolean lattice")
    p.add_argument("lattice", nargs="?", default="-")
    p.set_defaults(func=_cmd_check_sachs)

    p = verbs.add_parser("check-determination",
                         help="compare two lattices through their subalgebra posets")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(func=_cmd_check_determination)

    p = verbs.add_parser("classify-hom",
                         help="how much a homomorphism's preimage map determines it")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("morphism")
    p.set_defaults(func=_cmd_classify_hom)

    p = verbs.add_parser("selftest", help="run the full acceptance suite")
    p.set_defaults(func=_cmd_selftest)
    return parser


def _cmd_validate(args) -> int:
    L = _load_lattice(args.lattice)
    if L.name:
        print(f"name: {L.name}")
    print(f"size: {L.n}")
    print(f"flavor: {_flavor_text(L)}")
    return 0


def _cmd_catalog(args) -> int:
    from .constructions import catalog

    _write(fileio.dump_lattice(catalog(args.name)), args.output)
    return 0


def _cmd_enumerate(args) -> int:
    L = _load_lattice(args.lattice)
    poset = enumerate_subalgebras(L, boolean_only=args.boolean_only)
    if args.dot:
        _write(fileio.poset_to_dot(poset), args.output)
    else:
        _write(fileio.dump_poset(poset), args.output)
    return 0


def _cmd_blocks(args) -> int:
    L = _load_lattice(args.lattice)
    for blk in L.blocks():
        print("{" + ",".join(str(e) for e in blk.elements) + "}")
    return 0


def _cmd_reconstruct(args) -> int:
    from .reconstruction import build_frame, classify_atoms, reconstruct

    poset, _ = fileio.parse_poset(_read(args.poset))
    lines = []
    if args.frame:
        lines = fileio.frame_lines(build_frame(poset, *classify_atoms(poset)))
    out = reconstruct(poset)
    if lines:
        # the frame is informational; the output target gets a clean document
        print("\n".join(lines))
    _write(fileio.dump_lattice(out), args.output)
    return 0


def _cmd_lift(args) -> int:
    from .iso_lifting import lift_bsub_iso, lift_sub_iso

    L = _load_lattice(args.source)
    M = _load_lattice(args.target)
    sub_l = enumerate_subalgebras(L, boolean_only=args.boolean_only)
    sub_m = enumerate_subalgebras(M, boolean_only=args.boolean_only)
    phi = fileio.parse_node_map(_read(args.iso), sub_l, sub_m)
    lift = lift_bsub_iso if args.boolean_only else lift_sub_iso
    result = lift(L, M, phi, sub_l, sub_m, canonical_only=args.canonical)
    if args.canonical:
        _write(fileio.dump_morphism(result[0]), args.output)
    else:
        _write(fileio.dump_morphisms(result), args.output)
    return 0


def _cmd_check_sachs(args) -> int:
    from .sachs_boolean import (
        dual_decomposition,
        dual_order_test,
        partition_to_subalgebra,
        pd_order_test,
        principal_element,
        subalgebra_to_partition,
    )

    L = _load_lattice(args.lattice)
    s = enumerate_subalgebras(L)
    dual_ok = pd_ok = part_ok = 0
    for i, mask in enumerate(s.masks):
        if dual_order_test(s, i) == (dual_decomposition(L, mask) is not None):
            dual_ok += 1
        if pd_order_test(s, i) == (principal_element(L, mask) is not None):
            pd_ok += 1
        if partition_to_subalgebra(L, subalgebra_to_partition(L, mask)).members == mask:
            part_ok += 1
    n = s.size
    print(f"dual order test agrees: {dual_ok}/{n}")
    print(f"principal dual order test agrees: {pd_ok}/{n}")
    print(f"partition round trip: {part_ok}/{n}")
    return 0 if dual_ok == pd_ok == part_ok == n else 1


def _cmd_check_determination(args) -> int:
    from .iso_lifting import verify_determination

    report = verify_determination(_load_lattice(args.source), _load_lattice(args.target))
    for line in report.lines():
        print(line)
    return 0 if report.consistent else 1


def _cmd_classify_hom(args) -> int:
    from .functorial import classify_recovery

    L = _load_lattice(args.source)
    M = _load_lattice(args.target)
    f = fileio.parse_morphism(_read(args.morphism), L, M)
    for line in classify_recovery(f).lines():
        print(line)
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest

    return 0 if selftest.run(sys.stdout) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except OmlkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
