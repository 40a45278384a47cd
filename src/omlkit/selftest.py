"""The acceptance suite: every check is exact, no tolerances.

Each check function returns a one-line detail string on success and raises
CheckFailed on failure.  The checks never use ``assert``, which
``python -O`` strips.  The same list backs the pytest acceptance
module and the ``omlkit selftest`` subcommand, so the two can never
disagree about what "green" means.
"""

from __future__ import annotations

import itertools
from typing import Callable, TextIO

from .functorial import (
    RecoveryKind,
    classify_recovery,
    enumerate_homs,
    preimage_functor,
    unrealized_meet_preserving_map,
)
from .constructions import boolean_algebra, catalog
from .iso_lifting import induced_node_map, lift_boolean_iso, lift_bsub_iso
from .lattice_core import (
    ORTHOMODULAR,
    bits,
    compose,
    identity_morphism,
    mask_of,
    morphism,
)
from .reconstruction import reconstruct
from .sachs_boolean import (
    dual_decomposition,
    dual_order_test,
    partition_lattice,
    pd_order_test,
    principal_element,
    subalgebra_to_partition,
)
from .search import automorphisms, find_isomorphism
from .subalgebra_posets import (
    bsub,
    poset_automorphisms,
    poset_isomorphic,
    sub,
)

ROUND_TRIP_ROSTER = ["2^2", "2^3", "2^4", "MO2", "MO3", "MO4",
                     "MO2x2", "example22", "hsum(2^3,2^3)"]
NO_FOUR_BLOCK_ROSTER = ["2^3", "2^4", "MO2x2", "example22", "hsum(2^3,2^3)"]
BELL = (1, 1, 2, 5, 15, 52, 203)   # Bell numbers B_0..B_6, OEIS A000110


class CheckFailed(Exception):
    """An acceptance check found a wrong result."""


def _check(ok: bool, message: str = "check failed"):
    if not ok:
        raise CheckFailed(message)


def check_two_block_bsub_shape() -> str:
    L = catalog("example22")
    p = bsub(L)
    _check(p.size == 8, f"expected 8 nodes, got {p.size}")
    _check(p.nodes[p.bottom()].members == mask_of((0, 11)))
    atoms = p.atoms()
    _check(len(atoms) == 5, f"expected 5 atoms, got {len(atoms)}")
    maximal = p.maximal_elements()
    _check(len(maximal) == 2)
    _check(all(len(p.nodes[x]) == 8 for x in maximal))
    shared = p.nodes[maximal[0]].members & p.nodes[maximal[1]].members
    _check(shared == mask_of((0, 3, 8, 11)), "blocks must share the c atom pair")
    _check(p.node_index(shared) in atoms)
    return "8 nodes: bottom + 5 atoms + 2 eight-element blocks sharing one atom pair"


def check_reconstruction_round_trip() -> str:
    for name in ROUND_TRIP_ROSTER:
        L = catalog(name)
        rebuilt = reconstruct(bsub(L).as_abstract())
        _check(rebuilt.n == L.n, f"{name}: size {rebuilt.n} != {L.n}")
        _check(find_isomorphism(rebuilt, L) is not None, f"{name}: no isomorphism")
    return f"{len(ROUND_TRIP_ROSTER)}/{len(ROUND_TRIP_ROSTER)} catalog round trips"


def check_dual_subalgebra_order_tests() -> str:
    checked = 0
    for k in (2, 3, 4):
        B = boolean_algebra(k)
        s = sub(B)
        for i, node in enumerate(s.nodes):
            dual = dual_decomposition(B, node) is not None
            _check(dual_order_test(s, i) == dual, f"2^{k} node {node.elements}")
            pd = principal_element(B, node) is not None
            _check(pd_order_test(s, i) == pd, f"2^{k} node {node.elements}")
            checked += 1
    B = boolean_algebra(4)
    s = sub(B)
    witness = B.subalgebra([0, 0b0011, 0b1100, 15])
    i = s.node_index(witness)
    _check(dual_decomposition(B, witness) is None and not dual_order_test(s, i))
    _check(principal_element(B, witness) is None and not pd_order_test(s, i))
    return f"both order tests match their direct definitions on {checked} subalgebras"


def check_dual_extension_symmetry() -> str:
    checked = 0
    for k in (3, 4):
        B = boolean_algebra(k)
        for node in sub(B).nodes:
            if dual_decomposition(B, node) is None:
                continue
            outside = [a for a in range(B.n) if a not in node]
            for a, b in itertools.combinations(outside, 2):
                with_a = B.closure_mask(node.members | 1 << a)
                with_b = B.closure_mask(node.members | 1 << b)
                _check(bool(with_a >> b & 1) == bool(with_b >> a & 1),
                       f"2^{k}: x={node.elements}, a={a}, b={b}")
                checked += 1
    return f"generation symmetry holds for all {checked} (x, a, b) triples"


def check_boolean_lift() -> str:
    B = boolean_algebra(3)
    s = sub(B)
    poset_autos = set(poset_automorphisms(s))
    _check(len(poset_autos) == 6)
    induced = {}
    for perm in itertools.permutations(range(3)):
        mapping = [sum(1 << perm[t] for t in bits(e)) for e in range(8)]
        psi = morphism(B, B, mapping)
        phi = induced_node_map(psi, s, s)
        induced[phi] = psi
    _check(set(induced) == poset_autos, "poset automorphisms != induced maps")
    for phi, psi in induced.items():
        lifts = lift_boolean_iso(B, B, phi, s, s)
        _check(len(lifts) == 1 and lifts[0].mapping == psi.mapping)
        for i, node in enumerate(s.nodes):
            _check(lifts[0].apply_mask(node.members) == s.nodes[phi[i]].members)
    B2 = boolean_algebra(2)
    s2 = sub(B2)
    lifts = lift_boolean_iso(B2, B2, tuple(range(s2.size)), s2, s2)
    _check(len(lifts) == 2, "identity on Sub(2^2) must lift two ways")
    _check({f.mapping for f in lifts} == {(0, 1, 2, 3), (0, 2, 1, 3)})
    return "all 6 Sub(2^3) automorphisms lift uniquely; Sub(2^2) identity lifts twice"


def check_atom_counts() -> str:
    counts = []
    _check(len(sub(catalog("MO2")).atoms()) == 2)
    _check(len(sub(catalog("MO2x2")).atoms()) == 5)
    for k in (2, 3, 4):
        got = len(sub(boolean_algebra(k)).atoms())
        _check(got == 2 ** (k - 1) - 1, f"Sub(2^{k}) has {got} atoms")
        counts.append(got)
    return f"Sub atom counts: MO2=2, MO2x2=5, Boolean={counts}"


def check_partition_duality() -> str:
    sizes = []
    for k in (2, 3, 4):
        B = boolean_algebra(k)
        s = sub(B)
        _check(s.size == BELL[k], f"|Sub(2^{k})| != Bell({k})")
        lattice, parts = partition_lattice(k)
        _check(lattice.size == s.size)
        witness = poset_isomorphic(s.as_abstract(), lattice.dual())
        _check(witness is not None, f"Sub(2^{k}) not dual to the partition lattice")
        # the canonical atom-partition map is itself an order-reversing bijection
        part_index = {p.blocks: i for i, p in enumerate(parts)}
        canon = [part_index[subalgebra_to_partition(B, node).blocks]
                 for node in s.nodes]
        _check(sorted(canon) == list(range(s.size)))
        for i in range(s.size):
            for j in range(s.size):
                _check(s.leq(i, j) == lattice.leq(canon[j], canon[i]))
        sizes.append(s.size)
    return f"|Sub(2^n)| = {sizes} = Bell(2..4), dualities witnessed both ways"


def check_oml_lift() -> str:
    lifted = 0
    for name in NO_FOUR_BLOCK_ROSTER:
        L = catalog(name)
        _check(all(len(b) > 4 for b in L.blocks()))
        p = bsub(L)
        autos = automorphisms(L)
        for psi in autos:
            phi = induced_node_map(psi, p, p)
            result = lift_bsub_iso(L, L, phi, p, p)
            _check(len(result) == 1 and result[0].mapping == psi.mapping,
                   f"{name}: non-unique or wrong lift")
            agreeing = [a.mapping for a in autos if induced_node_map(a, p, p) == phi]
            _check(agreeing == [result[0].mapping],
                   f"{name}: independent enumeration disagrees")
            lifted += 1
    M = catalog("MO2")
    p = bsub(M)
    result = lift_bsub_iso(M, M, tuple(range(p.size)), p, p)
    _check(len(result) == 4, f"MO2 identity must lift 4 ways, got {len(result)}")
    fixing = [a for a in automorphisms(M)
              if induced_node_map(a, p, p) == tuple(range(p.size))]
    _check({f.mapping for f in result} == {a.mapping for a in fixing})
    return f"{lifted} automorphisms lifted uniquely; MO2 identity lifts 4 ways"


def check_benzene_counterexample() -> str:
    hexagon = catalog("benzene")
    M = catalog("MO2")
    _check(hexagon.flavor != ORTHOMODULAR, "the hexagon must fail orthomodularity")
    _check(poset_isomorphic(bsub(hexagon), bsub(M)) is not None)
    _check(poset_isomorphic(sub(hexagon), sub(M)) is not None)
    _check(find_isomorphism(hexagon, M) is None)
    return "matching subalgebra posets, no lattice isomorphism, not orthomodular"


def check_preimage_functor_suite() -> str:
    report = unrealized_meet_preserving_map()
    _check(report.meets_preserved and not report.realized_by_hom)
    _check(report.hom_count == 27)

    B2 = boolean_algebra(2)
    s2 = sub(B2)
    alpha = morphism(B2, B2, (0, 2, 1, 3))
    _check(preimage_functor(alpha, s2, s2).mapping ==
           preimage_functor(identity_morphism(B2), s2, s2).mapping)

    r = classify_recovery(identity_morphism(catalog("MO2")))
    _check(r.kind == RecoveryKind.FOUR_BLOCK_IMAGE and r.witness is not None)
    _check(r.witness.mapping != tuple(range(6)))

    B3 = boolean_algebra(3)
    r = classify_recovery(identity_morphism(B3))
    _check(r.kind == RecoveryKind.DETERMINED and r.unique)

    s3 = sub(B3)
    homs = enumerate_homs(B3, B3)
    pre = {f.mapping: preimage_functor(f, s3, s3).mapping for f in homs}
    pairs = 0
    for f in homs:
        for g in homs:
            gf = compose(g, f)
            expect = tuple(pre[f.mapping][v] for v in pre[g.mapping])
            _check(pre[gf.mapping] == expect, "contravariant functoriality broken")
            pairs += 1
    return f"non-full witness, equal preimages, recovery trichotomy, {pairs} compositions"


CHECKS: list[tuple[str, Callable[[], str]]] = [
    ("two-block-bsub-shape", check_two_block_bsub_shape),
    ("reconstruction-round-trip", check_reconstruction_round_trip),
    ("dual-subalgebra-order-tests", check_dual_subalgebra_order_tests),
    ("dual-extension-symmetry", check_dual_extension_symmetry),
    ("boolean-lift", check_boolean_lift),
    ("subalgebra-atom-counts", check_atom_counts),
    ("partition-duality", check_partition_duality),
    ("oml-lift", check_oml_lift),
    ("benzene-counterexample", check_benzene_counterexample),
    ("preimage-functor-suite", check_preimage_functor_suite),
]


def run(stream: TextIO) -> bool:
    """Run every acceptance check, one PASS/FAIL line each; True if all pass."""
    all_ok = True
    for name, check in CHECKS:
        try:
            detail = check()
        except CheckFailed as exc:
            all_ok = False
            print(f"FAIL {name}: {exc}", file=stream)
        else:
            print(f"PASS {name}: {detail}", file=stream)
    return all_ok
