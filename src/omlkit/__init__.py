"""omlkit: finite ortholattices, their subalgebra posets, and what those determine.

The package builds Sub(L) and BSub(L) for finite (ortho)lattices, rebuilds
an orthomodular lattice from the bare order type of BSub(L), lifts
subalgebra-poset isomorphisms back to element isomorphisms, and carries the
preimage-functor analysis, all checked against brute-force oracles at desk
scale.
"""

from importlib import import_module

# Every public name and the module that defines it.
_HOME = {name: module for module, names in (
    ("errors", (
        "BadOrthocomplement", "BlockMismatch", "ExplosionCap", "FlavorError",
        "FrameCap", "GlueConflict", "Inconsistent", "MalformedInput",
        "NoBoundedLattice", "NoLeastElement", "NotAMorphism", "NotAnIso",
        "NotAPartialOrder", "NotBoolean", "OmlkitError", "RestrictionMismatch",
        "SizeCap", "UnknownName", "Unsupported",
    )),
    ("lattice_core", (
        "FiniteOrtholattice", "Morphism", "ORTHOLATTICE", "ORTHOMODULAR",
        "SubalgebraSet", "automorphisms", "benzene", "bits", "boolean_algebra",
        "catalog", "compose", "example22", "find_isomorphism", "horizontal_sum",
        "identity_morphism", "isomorphisms", "mask_of", "mo", "morphism", "product",
        "relabel", "sublattice",
    )),
    ("subalgebra_posets", (
        "AbstractPoset", "SubalgebraPoset", "bsub", "enumerate_subalgebras",
        "poset_automorphisms", "poset_isomorphic", "poset_isomorphisms", "sub",
    )),
    ("sachs_boolean", (
        "DualDecomposition", "Partition", "dual_decomposition", "dual_order_test",
        "is_boolean_algebra", "partition_lattice", "partition_to_subalgebra",
        "pd_mask", "pd_order_test", "principal_element", "subalgebra_to_partition",
    )),
    ("reconstruction", (
        "OrthoFrame", "build_frame", "classify_atoms", "orthoclosed_lattice",
        "reconstruct",
    )),
    ("iso_lifting", (
        "DeterminationReport", "boolean_nodes", "induced_node_map", "lift_boolean_iso",
        "lift_bsub_iso", "lift_sub_iso", "recognize_boolean_node",
        "verify_determination",
    )),
    ("functorial", (
        "MeetMapReport", "PreimageMap", "RecoveryKind", "RecoveryReport",
        "classify_recovery", "enumerate_homs", "image_subalgebra", "preimage_functor",
        "unrealized_meet_preserving_map",
    )),
) for name in names}

__all__ = list(_HOME)

# The core loads with the package: every verb needs it.  The layers above it
# load on first use of one of their names (PEP 562), so a command-line verb
# compiles only the layers it runs.
_EAGER = ("errors", "lattice_core", "subalgebra_posets")
globals().update((name, getattr(import_module(f"{__name__}.{module}"), name))
                 for name, module in _HOME.items() if module in _EAGER)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value   # cached: later lookups are plain dict reads
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))


__version__ = "0.1.0"
