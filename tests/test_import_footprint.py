"""What ``import omlkit.cli`` loads, and what ``import omlkit`` exports.

A command-line verb starts a fresh interpreter, so every module on the
import path of ``omlkit.cli`` is compiled and run once per verb.  The
layers above the core load on first use of one of their names; these
checks run in a child interpreter, where nothing has touched them yet.
"""

import json
import subprocess
import sys

# The package's public names before its layers loaded lazily, by module.
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
        "SubalgebraSet", "automorphisms", "benzene", "bits", "boolean_algebra",
        "catalog", "compose", "example22", "find_isomorphism", "horizontal_sum",
        "identity_morphism", "isomorphisms", "mask_of", "mo", "morphism", "product",
        "relabel", "sublattice",
    ],
    "subalgebra_posets": [
        "AbstractPoset", "SubalgebraPoset", "bsub", "enumerate_subalgebras",
        "poset_automorphisms", "poset_isomorphic", "poset_isomorphisms", "sub",
    ],
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

LOADED_ON_FIRST_USE = ["dataclasses", "omlkit.functorial", "omlkit.iso_lifting",
                       "omlkit.reconstruction", "omlkit.sachs_boolean", "omlkit.selftest"]


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
