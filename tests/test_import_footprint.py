"""What ``import omlkit.cli`` and each verb load, and what ``import omlkit``
exports.

A command-line verb starts a fresh interpreter, so every module on the
import path of ``omlkit.cli`` is compiled and run once per verb.  The
layers above the core, the constructions and the search load on first use
of one of their names (the poset isomorphisms load the search when they
first run); these checks run in a child interpreter, where nothing has
touched them yet.
"""

import json
import subprocess
import sys

import pytest

from omlkit import bsub, catalog, fileio, identity_morphism, sub

# The package's public names, by the module that defines each.
PUBLIC = {
    "errors": [
        "BadOrthocomplement", "BlockMismatch", "ExplosionCap", "FlavorError",
        "FrameCap", "GlueConflict", "Inconsistent", "MalformedInput",
        "NoBoundedLattice", "NoLeastElement", "NotAMorphism", "NotAnIso",
        "NotAPartialOrder", "NotBoolean", "OmlkitError", "RestrictionMismatch",
        "SizeCap", "UnknownName", "Unsupported",
    ],
    "lattice_core": [
        "FiniteOrtholattice", "Morphism", "ORTHOLATTICE", "ORTHOMODULAR",
        "SubalgebraSet", "bits", "compose", "identity_morphism", "mask_of", "morphism",
    ],
    "subalgebra_posets": [
        "AbstractPoset", "SubalgebraPoset", "bsub", "enumerate_subalgebras",
        "poset_automorphisms", "poset_isomorphic", "poset_isomorphisms", "sub",
    ],
    "constructions": [
        "benzene", "boolean_algebra", "catalog", "example22", "horizontal_sum", "mo",
        "product", "relabel", "sublattice",
    ],
    "search": ["automorphisms", "find_isomorphism", "isomorphisms"],
    "sachs_boolean": [
        "DualDecomposition", "Partition", "dual_decomposition", "dual_order_test",
        "is_boolean_algebra", "partition_lattice", "partition_to_subalgebra",
        "pd_mask", "pd_order_test", "principal_element", "subalgebra_to_partition",
    ],
    "reconstruction": [
        "OrthoFrame", "build_frame", "classify_atoms", "orthoclosed_lattice",
        "reconstruct",
    ],
    "iso_lifting": [
        "DeterminationReport", "boolean_nodes", "induced_node_map", "lift_boolean_iso",
        "lift_bsub_iso", "lift_sub_iso", "recognize_boolean_node",
        "verify_determination",
    ],
    "functorial": [
        "MeetMapReport", "PreimageMap", "RecoveryKind", "RecoveryReport",
        "classify_recovery", "enumerate_homs", "image_subalgebra", "preimage_functor",
        "unrealized_meet_preserving_map",
    ],
}

LOADED_ON_FIRST_USE = ["dataclasses", "omlkit.constructions", "omlkit.functorial",
                       "omlkit.iso_lifting", "omlkit.reconstruction", "omlkit.sachs_boolean",
                       "omlkit.search", "omlkit.selftest"]


def _child(code: str, env: dict):
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_cli_import_loads_only_the_core(subprocess_env):
    code = ("import json, sys\n"
            "import omlkit.cli\n"
            f"print(json.dumps([m for m in {LOADED_ON_FIRST_USE!r} if m in sys.modules]))\n")
    assert _child(code, subprocess_env) == []


# Which of the modules split off the core each verb loads: the
# constructions only where a lattice is built by name, the search only
# where one is run, and the dual and partition tests only where they are
# checked.  The lifts check their node map and search nothing, and read
# the atoms' nodes with no principal-dual machinery.
SPLIT = ["omlkit.constructions", "omlkit.sachs_boolean", "omlkit.search"]
VERB_LOADS = {
    "validate": [], "sub": [], "bsub": [], "blocks": [], "reconstruct": [],
    "check-sachs": ["omlkit.sachs_boolean"], "lift-bsub": [], "lift-sub": [],
    "catalog": ["omlkit.constructions"],
    "check-determination": ["omlkit.search"], "classify-hom": ["omlkit.search"],
}


@pytest.fixture
def verb_files(tmp_path):
    """The argument list of each verb, on files of 2^3 written here."""
    L = catalog("2^3")
    b, s = bsub(L), sub(L)
    texts = {"lattice": fileio.dump_lattice(L), "bsub": fileio.dump_poset(b),
             "bsub-map": fileio.dump_node_map_labels(b, b, range(b.size)),
             "sub-map": fileio.dump_node_map_labels(s, s, range(s.size)),
             "hom": fileio.dump_morphism(identity_morphism(L))}
    path = {}
    for name, text in texts.items():
        path[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")
    lat = path["lattice"]
    return {
        "validate": [lat], "sub": [lat], "bsub": [lat], "blocks": [lat],
        "reconstruct": [path["bsub"]], "check-sachs": [lat],
        "lift-bsub": [lat, lat, path["bsub-map"]], "lift-sub": [lat, lat, path["sub-map"]],
        "catalog": ["2^3"], "check-determination": [lat, lat],
        "classify-hom": [lat, lat, path["hom"]],
    }


@pytest.mark.parametrize("verb", VERB_LOADS)
def test_each_verb_loads_only_the_modules_it_runs(verb, verb_files, subprocess_env):
    code = ("import contextlib, io, json, sys\n"
            "import omlkit.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = omlkit.cli.main({[verb, *verb_files[verb]]!r})\n"
            f"print(json.dumps([code, [m for m in {SPLIT!r} if m in sys.modules]]))\n")
    assert _child(code, subprocess_env) == [0, VERB_LOADS[verb]]


def test_public_names_are_pinned_and_each_is_its_modules_object(subprocess_env):
    code = ("import importlib, json\n"
            "import omlkit\n"
            "from omlkit import reconstruct\n"
            "cached = vars(omlkit).get('reconstruct') is reconstruct\n"
            f"public = {PUBLIC!r}\n"
            "same = {n: getattr(omlkit, n) is getattr(importlib.import_module('omlkit.' + m), n)\n"
            "        for m, names in public.items() for n in names}\n"
            "try:\n"
            "    omlkit.no_such_name\n"
            "    missing = None\n"
            "except AttributeError as exc:\n"
            "    missing = str(exc)\n"
            "print(json.dumps({'all': sorted(omlkit.__all__), 'same': same,\n"
            "                  'cached': cached,\n"
            "                  'listed': set(omlkit.__all__) <= set(dir(omlkit)),\n"
            "                  'missing': missing}))\n")
    out = _child(code, subprocess_env)
    assert out["all"] == sorted(n for names in PUBLIC.values() for n in names)
    assert [n for n, same in out["same"].items() if not same] == []
    assert out["cached"] and out["listed"]
    assert out["missing"] == "module 'omlkit' has no attribute 'no_such_name'"
