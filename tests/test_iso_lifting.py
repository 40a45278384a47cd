"""Lifting poset isomorphisms to lattice isomorphisms, and determination."""

import itertools
import random

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from omlkit import (
    BlockMismatch,
    GlueConflict,
    Inconsistent,
    MalformedInput,
    NotAnIso,
    NotBoolean,
    OmlkitError,
    automorphisms,
    boolean_algebra,
    boolean_nodes,
    bsub,
    catalog,
    find_isomorphism,
    horizontal_sum,
    induced_node_map,
    lift_boolean_iso,
    lift_bsub_iso,
    lift_sub_iso,
    mo,
    morphism,
    partition_lattice,
    poset_isomorphic,
    poset_isomorphisms,
    product,
    recognize_boolean_node,
    relabel,
    sub,
    sublattice,
    verify_determination,
)
from omlkit import iso_lifting, sachs_boolean
from omlkit.errors import NoLeastElement
from omlkit.iso_lifting import (
    _boolean_rank,
    _realization_test,
    _sachs_certificate,
)
from omlkit.lattice_core import Morphism, SubalgebraSet, _induced, bits
from omlkit.subalgebra_posets import AbstractPoset, SubalgebraPoset, check_order_iso

from legacy_oracles import (
    legacy_boolean_nodes,
    legacy_certify_boolean_node,
    legacy_checked_lift_bsub_iso,
    legacy_checked_lift_sub_iso,
    legacy_class_row_equivalence,
    legacy_covers,
    legacy_is_equivalence,
    legacy_lift_boolean_iso,
    legacy_lift_bsub_iso,
    legacy_realization_test,
    legacy_recognize_boolean_node,
)

NO_FOUR_BLOCKS = ["2^3", "MO2x2", "example22", "hsum(2^3,2^3)"]


def test_identity_lift_on_two_block_example():
    L = catalog("example22")
    p = bsub(L)
    result = lift_bsub_iso(L, L, tuple(range(p.size)), p, p)
    assert [f.mapping for f in result] == [tuple(range(12))]


def test_block_swap_automorphism_lifts():
    L = catalog("example22")
    p = bsub(L)
    swaps = [a for a in automorphisms(L)
             if a.mapping != tuple(range(12)) and a(3) == 3 and a(1) in (4, 5)]
    assert swaps, "expected automorphisms exchanging the two blocks"
    for psi in swaps:
        phi = induced_node_map(psi, p, p)
        result = lift_bsub_iso(L, L, phi, p, p)
        assert [f.mapping for f in result] == [psi.mapping]


def test_every_automorphism_round_trips_uniquely():
    for name in NO_FOUR_BLOCKS:
        L = catalog(name)
        p = bsub(L)
        for psi in automorphisms(L):
            phi = induced_node_map(psi, p, p)
            result = lift_bsub_iso(L, L, phi, p, p)
            assert len(result) == 1
            assert result[0].mapping == psi.mapping


def test_identity_lift_on_mo2_gives_four():
    L = mo(2)
    p = bsub(L)
    result = lift_bsub_iso(L, L, tuple(range(p.size)), p, p)
    assert len(result) == 4
    expected = {a.mapping for a in automorphisms(L)
                if induced_node_map(a, p, p) == tuple(range(p.size))}
    assert {f.mapping for f in result} == expected
    canonical = lift_bsub_iso(L, L, tuple(range(p.size)), p, p, canonical_only=True)
    assert [f.mapping for f in canonical] == [tuple(range(6))]


def test_lift_order_where_four_element_blocks_cross():
    # MO2 with the complement pairs (1, 4) and (2, 3): the swaps follow the
    # poset's node order, where {0,2,3,5} comes before {0,1,4,5}, not the
    # order of the blocks' lower atoms, 1 before 2
    L = relabel(mo(2), [0, 1, 4, 2, 3, 5])
    for P, lift in ((bsub(L), lift_bsub_iso), (sub(L), lift_sub_iso)):
        assert [f.mapping for f in lift(L, L, tuple(range(P.size)), P, P)] == [
            (0, 1, 2, 3, 4, 5), (0, 4, 2, 3, 1, 5), (0, 1, 3, 2, 4, 5), (0, 4, 3, 2, 1, 5)]


def test_mo4_identity_lift_count():
    L = mo(4)
    p = bsub(L)
    result = lift_bsub_iso(L, L, tuple(range(p.size)), p, p)
    assert len(result) == 16  # one independent swap per four-element block


def test_many_four_blocks_need_the_canonical_flag():
    from omlkit import Unsupported, boolean_algebra, horizontal_sum
    L = horizontal_sum([boolean_algebra(2)] * 7)  # seven 4-element blocks
    p = bsub(L)
    identity = tuple(range(p.size))
    with pytest.raises(Unsupported):
        lift_bsub_iso(L, L, identity, p, p)
    canonical = lift_bsub_iso(L, L, identity, p, p, canonical_only=True)
    assert [f.mapping for f in canonical] == [tuple(range(L.n))]


def test_lift_between_relabeled_copies():
    L = catalog("hsum(2^3,2^3)")
    perm = list(range(14))
    perm[1], perm[4] = perm[4], perm[1]
    perm[8], perm[11] = perm[11], perm[8]
    M = relabel(L, perm)
    pl, pm = bsub(L), bsub(M)
    witness = poset_isomorphic(pl, pm)
    assert witness is not None
    result = lift_bsub_iso(L, M, witness, pl, pm)
    assert len(result) == 1
    f = result[0]
    for i, node in enumerate(pl.nodes):
        assert f.apply_mask(node.members) == pm.nodes[witness[i]].members


def test_lift_rejects_bad_node_maps():
    L = mo(2)
    p = bsub(L)
    with pytest.raises(NotAnIso, match="not a bijection"):
        lift_bsub_iso(L, L, (0, 0, 1), p, p)
    with pytest.raises(NotAnIso, match=r"does not preserve node order at 0 <= 1$"):
        lift_bsub_iso(L, L, (1, 0, 2), p, p)  # moves the bottom
    # maps that are no sequence raised a bare TypeError
    s = sub(L)
    for call in (lambda: lift_sub_iso(L, L, None, s, s), lambda: lift_bsub_iso(L, L, 5, p, p),
                 lambda: lift_boolean_iso(boolean_algebra(2), boolean_algebra(2), None),
                 lambda: check_order_iso(None, p, p)):
        with pytest.raises(NotAnIso, match="^node map is not a bijection between the posets$"):
            call()
    # a bijection from a 2-antichain onto a 2-chain preserves order, not back
    antichain, chain = AbstractPoset([0b01, 0b10]), AbstractPoset([0b11, 0b10])
    with pytest.raises(NotAnIso, match="does not reflect node order"):
        check_order_iso((0, 1), antichain, chain)


def test_lifts_refuse_posets_of_another_lattice():
    # BSub(MO2) and Sub(MO2) handed in for 2^3: the BSub lift raised a bare
    # ValueError, and the Sub lift a GlueConflict that named another cause
    B, M = boolean_algebra(3), mo(2)
    text = "^source poset belongs to another lattice$"
    with pytest.raises(MalformedInput, match=text):
        lift_bsub_iso(B, B, range(3), bsub(M), bsub(M))
    with pytest.raises(MalformedInput, match=text):
        lift_sub_iso(B, B, range(4), sub(M), sub(M))
    # a target of an equal but distinct lattice, and a bare poset, as well
    copy = relabel(B, range(B.n))
    with pytest.raises(MalformedInput, match="^target poset belongs to another lattice$"):
        lift_bsub_iso(B, copy, range(5), bsub(B), bsub(B))
    with pytest.raises(MalformedInput, match=text):
        lift_sub_iso(B, B, range(5), sub(B).as_abstract(), sub(B))


def test_lift_requires_orthomodular():
    hexagon = catalog("benzene")
    p = bsub(hexagon)
    with pytest.raises(NotAnIso):
        lift_bsub_iso(hexagon, hexagon, tuple(range(p.size)), p, p)


@pytest.mark.parametrize("name", ["MO2", "example22", "hsum(2^3,2^3)", "MO2x2"])
def test_lift_of_a_sub_poset_still_needs_boolean_blocks(name):
    # the non-Boolean top node is caught in Sub(L) and in a checked copy of it
    L = catalog(name)
    s = sub(L)
    for poset in (s, SubalgebraPoset(s.up, L, s.nodes)):
        for canonical in (False, True):
            with pytest.raises(NotBoolean):
                lift_bsub_iso(L, L, tuple(range(s.size)), poset, poset,
                              canonical_only=canonical)


def test_lift_of_a_block_that_is_not_closed():
    # {0, atoms, 1} of 2^3 commutes pairwise but holds no complement of its
    # atoms: the poset constructor refuses it before a lift can read it
    B = boolean_algebra(3)
    nodes = [SubalgebraSet(B, 1 | 1 << 7), SubalgebraSet(B, 1 | 0b10110 | 1 << 7)]
    with pytest.raises(MalformedInput) as exc:
        SubalgebraPoset([0b11, 0b10], B, nodes)
    assert str(exc.value) == "a node is not a closed subalgebra"


def test_lift_of_four_element_nodes_that_are_not_blocks():
    # BSub(MO3)'s shape on 2^3: {0, a, a', 1} for each atom a, though each a
    # commutes with all of 2^3; swapping a and a' is then no automorphism
    B = boolean_algebra(3)
    masks = [1 | 1 << 7] + sorted(1 | 1 << a | 1 << (7 - a) | 1 << 7 for a in (1, 2, 4))
    poset = SubalgebraPoset([0b1111, 0b10, 0b100, 0b1000], B,
                            [SubalgebraSet(B, m) for m in masks])
    for canonical in (False, True):
        with pytest.raises(GlueConflict, match=r"^four-element block \{0,3,4,7\} overlaps"):
            lift_bsub_iso(B, B, (0, 1, 2, 3), poset, poset, canonical_only=canonical)


def test_lift_of_a_four_element_node_without_both_bounds():
    # {1,2,3,7} of 2^3 lacks 0, {0,1,2,3} lacks 7: neither is closed, so
    # no poset holds them, and every four-element node a lift reads has
    # both bounds
    B = boolean_algebra(3)
    for mask in (0b10001110, 0b1111):
        nodes = [SubalgebraSet(B, 1 | 1 << 7), SubalgebraSet(B, mask)]
        with pytest.raises(MalformedInput) as exc:
            SubalgebraPoset([0b11, 0b10], B, nodes)
        assert str(exc.value) == "a node is not a closed subalgebra"


def _realizes_node_by_node(f, phi, P, Q):
    return all(f.apply_mask(node.members) == Q.nodes[phi[i]].members
               for i, node in enumerate(P.nodes))


def _bijections(L, rng):
    """Automorphisms, each also with two inner elements swapped, and random
    bijections fixing the bounds."""
    out = []
    for g in automorphisms(L)[:6]:
        out.append(g.mapping)
        a, b = rng.sample(range(1, L.n - 1), 2)
        swapped = list(g.mapping)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        out.append(tuple(swapped))
    for _ in range(4):
        inner = list(range(1, L.n - 1))
        rng.shuffle(inner)
        out.append((0, *inner, L.n - 1))
    return out


@pytest.mark.parametrize("name", ["2^4", "MO3", "MO2x2", "example22", "hsum(2^3,2^3)"])
def test_realization_test_matches_the_node_by_node_check(name):
    # and, for the order isomorphisms induced here, the element-node test
    # it replaced
    L = catalog(name)
    rng = random.Random(name)
    for P in (sub(L), bsub(L)):
        for psi in automorphisms(L)[:4]:
            phi = induced_node_map(psi, P, P)
            legacy = legacy_realization_test(phi, P, P)
            verdicts = []
            for mapping in _bijections(L, rng):
                f = Morphism(L, L, mapping, "iso")
                verdicts.append(_realization_test(f, phi, P, P))
                assert verdicts[-1] == _realizes_node_by_node(f, phi, P, P) == legacy(f)
            assert True in verdicts and False in verdicts


def test_realization_test_on_a_poset_without_element_nodes():
    # nodes {0, 7} and 2^3 itself: no {0, e, e', 1} to read a row from
    B = boolean_algebra(3)
    nodes = [SubalgebraSet(B, 1 | 1 << 7), SubalgebraSet(B, B.universe)]
    poset = SubalgebraPoset([0b11, 0b10], B, nodes)
    for mapping in [tuple(range(8)), (0, 2, 1, 3, 4, 5, 6, 7), (3, 1, 2, 0, 4, 5, 6, 7)]:
        f = Morphism(B, B, mapping, "iso")
        assert _realization_test(f, (0, 1), poset, poset) \
            == _realizes_node_by_node(f, (0, 1), poset, poset) == (mapping[0] == 0)


def test_lift_through_a_poset_without_element_nodes():
    # the trivial node, 2^4 and the principal duals the block lift reads:
    # no node {0, b, b', 1} for the six elements b of height 2
    B = boolean_algebra(4)
    masks = sorted({1 | 1 << 15, B.universe} | {
        sachs_boolean.pd_mask(B, b) for b in range(15) if b not in B.coatoms()})
    nodes = [SubalgebraSet(B, m) for m in masks]
    up = [sum(1 << j for j, n in enumerate(masks) if not m & ~n) for m in masks]
    poset = SubalgebraPoset(up, B, nodes)
    assert poset.size == 12
    for psi in automorphisms(B)[::5]:
        phi = induced_node_map(psi, poset, poset)
        assert [f.mapping for f in lift_bsub_iso(B, B, phi, poset, poset)] == [psi.mapping]


def test_lift_of_sub_of_a_boolean_algebra():
    B = boolean_algebra(3)
    s = sub(B)
    assert [f.mapping for f in lift_bsub_iso(B, B, tuple(range(s.size)), s, s)] == \
        [tuple(range(8))]


LIFT_CASES = ["2^1", "2^2", "2^3", "2^4", "2^5", "MO1", "MO2", "MO3", "MO4", "MO6", "MO2x2",
              "example22", "hsum(2^3,2^3)", "hsum(2^2,2^3,2^4)", "hsum(2^4,2^4)",
              "hsum(2^2,2^2,2^3)"]


def _lattice(name):
    """A catalog lattice, or ``Ax2^k``, the product of one with 2^k.  MO2 x
    2^2 has 16-element blocks in which an element that is not a coatom,
    such as (1, 0), has elements of other blocks below it."""
    base, _, k = name.partition("x2^")
    return product(catalog(base), boolean_algebra(int(k)), name=name) if k else catalog(name)


@pytest.mark.parametrize("name", LIFT_CASES)
def test_cover_rows_match_legacy_covers(name):
    L = _lattice(name)
    for P in (L, sub(L), bsub(L)):
        assert P.cover_up == legacy_covers(P.up, P.down)


def _automorphisms(L, count):
    """The identity of L and ``count`` seeded automorphisms: an isomorphism
    onto a relabeled copy, composed with the relabeling's inverse."""
    out = [tuple(range(L.n))]
    rng = random.Random(L.name)
    for _ in range(count):
        perm = [0, *rng.sample(range(1, L.n - 1), L.n - 2), L.n - 1]
        back = {v: a for a, v in enumerate(perm)}
        g = find_isomorphism(L, relabel(L, perm))
        out.append(tuple(back[v] for v in g.mapping))
    return [morphism(L, L, mapping) for mapping in out]


@pytest.mark.parametrize("name", ["MO2", "MO3", "MO4", "MO5", "MO6", "hsum(2^2,2^2,2^3)"])
def test_every_lift_is_a_realizing_iso(name):
    # only the first lift is checked inside; the others are it after swaps
    # of four-element blocks' atom pairs, which the proof says are free
    L = _lattice(name)
    four_blocks = sum(1 for blk in L.blocks() if len(blk) == 4)
    for P, lift in ((bsub(L), lift_bsub_iso), (sub(L), lift_sub_iso)):
        for psi in _automorphisms(L, 4):
            phi = induced_node_map(psi, P, P)
            lifts = lift(L, L, phi, P, P)
            assert len({f.mapping for f in lifts}) == len(lifts) == 2 ** four_blocks
            assert psi.mapping in {f.mapping for f in lifts}
            for f in lifts:
                assert morphism(L, L, f.mapping).kind == "iso"
                assert _realizes_node_by_node(f, phi, P, P)


def test_one_glued_map_is_checked(monkeypatch):
    # MO6 has six four-element blocks: 64 lifts from one morphism() check
    # and one realization test, through BSub and through Sub alike, and the
    # node order is checked only for a refused node map
    L = mo(6)
    bl, sl = bsub(L), sub(L)
    calls = {"morphism": 0, "_realization_test": 0, "check_order_iso": 0}

    def counted(name):
        real = getattr(iso_lifting, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(iso_lifting, name, counted(name))
    for lift, P in ((lift_bsub_iso, bl), (lift_sub_iso, sl)):
        calls.update(morphism=0, _realization_test=0, check_order_iso=0)
        assert len(lift(L, L, tuple(range(P.size)), P, P)) == 64
        assert calls == {"morphism": 1, "_realization_test": 1, "check_order_iso": 0}
        # the bottom and a four-element block swapped: no order isomorphism
        phi = list(range(P.size))
        phi[0], phi[1] = phi[1], phi[0]
        calls.update(morphism=0, _realization_test=0, check_order_iso=0)
        with pytest.raises(NotAnIso, match="^node map does not preserve node order at 0 <= 1$"):
            lift(L, L, phi, P, P)
        assert calls["check_order_iso"] == 1


def _same_lifts(L, M, phi, bl, bm):
    for canonical in (False, True):
        new = [f.mapping for f in lift_bsub_iso(L, M, phi, bl, bm, canonical_only=canonical)]
        old = [f.mapping for f in legacy_lift_bsub_iso(L, M, phi, bl, bm,
                                                       canonical_only=canonical)]
        assert new == old


@pytest.mark.parametrize("name", LIFT_CASES + ["MO2x2^2", "MO2x2^3", "MO3x2^3", "example22x2^2",
                                  "hsum(2^5,2^5)"])
def test_lift_bsub_matches_the_sublattice_lift(name):
    # and the lift of the induced Sub node map, map for map, matches the
    # legacy lift of its restriction to BSub
    L = _lattice(name)
    count = 1 if name == "hsum(2^5,2^5)" else 3
    bl, sl = bsub(L), sub(L)
    for psi in _relabeling_morphisms(L, count, seed=11):
        M = psi.target
        bm, sm = (bl, sl) if M is L else (bsub(M), sub(M))
        _same_lifts(L, M, induced_node_map(psi, bl, bm), bl, bm)
        phi = induced_node_map(psi, sl, sm)
        restricted = tuple(bm.node_index(sm.masks[phi[sl.node_index(m)]]) for m in bl.masks)
        for canonical in (False, True):
            new = lift_sub_iso(L, M, phi, sl, sm, canonical_only=canonical)
            old = legacy_lift_bsub_iso(L, M, restricted, bl, bm, canonical_only=canonical)
            assert [f.mapping for f in new] == [f.mapping for f in old]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_boolean_lifts_match_on_every_automorphism(k):
    B = boolean_algebra(k)
    s = sub(B)
    for psi in automorphisms(B):
        phi = induced_node_map(psi, s, s)
        _same_lifts(B, B, phi, s, s)
        new = [f.mapping for f in lift_boolean_iso(B, B, phi, s, s)]
        assert new == [f.mapping for f in legacy_lift_boolean_iso(B, B, phi, s, s)]
        assert new == [f.mapping for f in lift_boolean_iso(B, B, phi)]  # posets omitted
        assert psi.mapping in new


def test_boolean_lift_matches_on_a_relabeled_2_5():
    B = boolean_algebra(5)
    psi = list(_relabeling_morphisms(B, 1, seed=3))[1]
    C = psi.target
    sb, sc = sub(B), sub(C)
    phi = induced_node_map(psi, sb, sc)
    _same_lifts(B, C, phi, sb, sc)
    new = [f.mapping for f in lift_boolean_iso(B, C, phi, sb, sc)]
    assert new == [f.mapping for f in legacy_lift_boolean_iso(B, C, phi, sb, sc)]
    assert new == [psi.mapping]


def test_blockwise_lifts_agree_on_overlaps():
    # recompute the per-block lifts independently and compare on intersections
    L = catalog("example22")
    p = bsub(L)
    for psi in automorphisms(L):
        phi = induced_node_map(psi, p, p)
        per_block = {}
        for x in p.maximal_elements():
            xmask = p.nodes[x].members
            ymask = p.nodes[phi[x]].members
            bx, bmap = sublattice(L, xmask)
            cy, cmap = sublattice(L, ymask)
            cinv = {g: i for i, g in enumerate(cmap)}
            sb, sc = sub(bx), sub(cy)
            phix = []
            for node in sb.nodes:
                gmask = 0
                for e in bits(node.members):
                    gmask |= 1 << bmap[e]
                hmask = p.nodes[phi[p.node_index(gmask)]].members
                local = 0
                for h in bits(hmask):
                    local |= 1 << cinv[h]
                phix.append(sc.node_index(local))
            fx = lift_boolean_iso(bx, cy, phix, sb, sc)[0]
            per_block[xmask] = {g: cmap[fx.mapping[i]] for i, g in enumerate(bmap)}
        (m1, f1), (m2, f2) = per_block.items()
        for shared in bits(m1 & m2):
            assert f1[shared] == f2[shared]


def _relabeled_nodes(P, owner, masks):
    """P's order with its nodes labeled ``masks``, subalgebras of ``owner``:
    a hand-built poset, which the constructor refuses unless the order is
    their inclusion."""
    return SubalgebraPoset(P.up, owner, [owner.subalgebra(m) for m in masks])


def _swapped(P, a, b):
    """P with the labels of the nodes ``a`` and ``b`` (bit sets) exchanged."""
    masks = list(P.masks)
    i, j = P.node_index(a), P.node_index(b)
    masks[i], masks[j] = masks[j], masks[i]
    return _relabeled_nodes(P, P.owner, masks)


def test_a_four_element_block_mapped_to_a_larger_block():
    L, M = boolean_algebra(2), boolean_algebra(3)
    p = bsub(L)
    q = _relabeled_nodes(p, M, [1 | 1 << 7, M.universe])  # 2^3 posing as a chain
    for lift in (lift_bsub_iso, lift_sub_iso):  # p is Sub(2^2) too
        with pytest.raises(BlockMismatch) as exc:
            lift(L, M, (0, 1), p, q)
        assert str(exc.value) == "four-element block mapped to a larger block"


def test_a_block_left_out_of_the_poset_leaves_elements_unassigned():
    # MO2's BSub without the block {0, 3, 4, 5}: nothing lifts 3 and 4
    L, M = mo(2), boolean_algebra(2)
    p = _relabeled_nodes(bsub(M), L, [0b100001, 0b100111])
    with pytest.raises(GlueConflict) as exc:
        lift_bsub_iso(L, M, (0, 1), p, bsub(M))
    assert str(exc.value) == "blockwise lifts leave element 3 unassigned"


def test_a_principal_dual_node_mapped_to_a_node_that_is_not_dual():
    # in 2^4, {0, a, a', 1} is principal dual and {0, ab, cd, 1} not dual:
    # two chains through the four atom nodes, the second with {0, 1, 14, 15}
    # replaced by {0, 3, 12, 15}, each ordered by inclusion
    B = boolean_algebra(4)
    middle = [1 | 1 << a | 1 << 15 - a | 1 << 15 for a in (1, 2, 4, 8)]
    up = [0b111111, 0b100010, 0b100100, 0b101000, 0b110000, 0b100000]

    def chain(masks):
        nodes = [SubalgebraSet(B, m) for m in (1 | 1 << 15, *masks, B.universe)]
        return SubalgebraPoset(up, B, nodes)

    P, Q = chain(middle), chain([0b1001000000001001, *middle[1:]])
    with pytest.raises(Inconsistent) as exc:
        lift_boolean_iso(B, B, range(P.size), P, Q)
    assert str(exc.value) == "image of a principal dual node is not dual"


def test_a_principal_dual_node_mapped_out_of_its_block():
    # {0, 7, 12, 13} lies in the other block of hsum(2^3,2^3): swapped with
    # a node of the first, the labels leave the order, which the poset
    # constructor refuses before a lift can map one into the other block
    L = catalog("hsum(2^3,2^3)")
    p = bsub(L)
    with pytest.raises(MalformedInput) as exc:
        _swapped(p, 0b10000001000011, 0b11000010000001)
    assert str(exc.value) == "the order is not the nodes' inclusion"


SUBFAMILY_CASES = ["2^3", "2^4", "2^5", "MO2", "MO3", "MO4", "MO6", "MO2x2", "MO2x2^2",
                   "example22", "hsum(2^3,2^3)", "hsum(2^4,2^4)", "hsum(2^2,2^3,2^4)"]


def _subfamily(P, owner, keep, rename=lambda m: m):
    """The nodes of P in the bit set ``keep``, their masks renamed by
    ``rename`` into subalgebras of ``owner``: a hand-built poset, ordered
    as in P, which the constructor accepts as the order is inclusion."""
    return SubalgebraPoset(_induced(P.up, keep), owner,
                           [owner.subalgebra(rename(P.masks[i])) for i in bits(keep)])


def _subfamily_lifts(name):
    """Seeded subfamilies of BSub(L), for lift_bsub_iso, and of Sub(L), for
    lift_sub_iso, that hold the bottom, each against its image under a
    relabeling and against a subfamily of the same size, with up to six
    order isomorphisms between them: (lift, L, M, P, Q, phi) tuples."""
    L = _lattice(name)
    rng = random.Random(name)
    for family, lift in ((bsub, lift_bsub_iso), (sub, lift_sub_iso)):
        bl = family(L)
        for psi in list(_relabeling_morphisms(L, 2, seed=29))[1:]:
            M = psi.target
            bm = family(M)
            for _ in range(12):
                keep = 1 << bl.bottom() | sum(1 << i for i in range(bl.size)
                                              if rng.random() < 0.8)
                other = 1 << bm.bottom() | sum(1 << i for i in rng.sample(
                    [i for i in range(bm.size) if i != bm.bottom()], keep.bit_count() - 1))
                P = _subfamily(bl, L, keep)
                for Q in (_subfamily(bl, M, keep, psi.apply_mask), _subfamily(bm, M, other)):
                    for phi in itertools.islice(poset_isomorphisms(P, Q), 6):
                        yield lift, L, M, P, Q, phi


@pytest.mark.parametrize("name", SUBFAMILY_CASES)
def test_lifts_between_subfamilies_realize_or_refuse_with_a_typed_error(name):
    # every order isomorphism between the subfamilies either lifts to
    # isomorphisms that realize it node by node or raises an OmlkitError,
    # whichever of the atoms' nodes, blocks and maximal nodes the subfamily
    # leaves out
    outcomes = {lift_bsub_iso: set(), lift_sub_iso: set()}
    for lift, L, M, P, Q, phi in _subfamily_lifts(name):
        for canonical in (False, True):
            try:
                lifts = lift(L, M, phi, P, Q, canonical_only=canonical)
            except OmlkitError as exc:
                outcomes[lift].add(type(exc).__name__)
                continue
            outcomes[lift].add("lifted")
            assert lifts
            for f in lifts:
                assert f.kind == "iso" and _realizes_node_by_node(f, phi, P, Q)
    for lift, seen in outcomes.items():
        assert "lifted" in seen and len(seen) > 1, (lift.__name__, seen)


# -- the refusal order, against the lifts that checked the node order first ----

LEGACY_CHECKED = {lift_bsub_iso: legacy_checked_lift_bsub_iso,
                  lift_sub_iso: legacy_checked_lift_sub_iso}
REFUSAL_CASES = ["2^2", "2^3", "2^4", "2^5", "MO1", "MO2", "MO3", "MO4", "MO6", "MO7", "MO2x2",
                 "example22", "hsum(2^3,2^3)", "benzene", "hsum(2^2,2^3,2^4)", "hsum(2^4,2^4)",
                 "MO2x2^2", "MO3x2^3"]


def _outcome(lift, *args, **kwargs):
    """The lifts' maps, or the type and text of the OmlkitError raised;
    any other exception fails the test."""
    try:
        return [f.mapping for f in lift(*args, **kwargs)]
    except OmlkitError as exc:
        return type(exc), str(exc)


def _assert_same_outcomes(lift, L, M, phi, P, Q):
    """lift and the lift that checked the node order first agree, canonical
    and full; returns the outcomes."""
    seen = []
    for canonical in (False, True):
        seen.append(_outcome(lift, L, M, phi, P, Q, canonical_only=canonical))
        assert seen[-1] == _outcome(LEGACY_CHECKED[lift], L, M, phi, P, Q,
                                    canonical_only=canonical), (lift.__name__, phi)
    return seen


def _two_swapped(phi, rng):
    """phi with the images of two seeded nodes exchanged."""
    phi = list(phi)
    if len(phi) > 1:
        a, b = rng.sample(range(len(phi)), 2)
        phi[a], phi[b] = phi[b], phi[a]
    return tuple(phi)


@pytest.mark.parametrize("name", REFUSAL_CASES)
def test_lifts_refuse_as_when_the_node_order_was_checked_first(name):
    # both lifts on BSub and on Sub of L against L and three relabelings M:
    # induced maps of found isomorphisms, each also with two nodes swapped,
    # seeded random bijections, and the posets or the lattices swapped
    L = _lattice(name)
    rng = random.Random(name)
    seen = set()
    for psi in _relabeling_morphisms(L, 3, seed=7):
        M = psi.target
        found = find_isomorphism(L, M)
        for family in (bsub, sub):
            P, Q = family(L), family(M)
            maps = [induced_node_map(h, P, Q) for h in (psi, found)]
            maps += [_two_swapped(phi, rng) for phi in maps]
            maps += [tuple(rng.sample(range(P.size), P.size)) for _ in range(4)]
            for lift in LEGACY_CHECKED:
                for phi in maps:
                    seen.update(map(repr, _assert_same_outcomes(lift, L, M, phi, P, Q)))
                _assert_same_outcomes(lift, L, M, maps[0], Q, P)
                _assert_same_outcomes(lift, M, L, maps[0], P, Q)
    assert len(seen) > 1


@pytest.mark.parametrize("name", SUBFAMILY_CASES)
def test_lifts_between_subfamilies_refuse_as_when_the_node_order_was_checked_first(name):
    rng = random.Random(name)
    for lift, L, M, P, Q, phi in _subfamily_lifts(name):
        for phi in (phi, _two_swapped(phi, rng)):
            _assert_same_outcomes(lift, L, M, phi, P, Q)


def test_recognize_boolean_node_examples():
    sm = sub(mo(2))
    assert not recognize_boolean_node(sm, sm.top())        # 2 atoms below
    smx = sub(catalog("MO2x2"))
    assert not recognize_boolean_node(smx, smx.top())      # 5 atoms below
    s3 = sub(boolean_algebra(3))
    assert recognize_boolean_node(s3, s3.top())            # 3 atoms, dual to P_3


def test_a_tall_chain_is_refused_before_its_bell_number(monkeypatch):
    # the top of a 300-node chain would ask for Bell(300); an interval of
    # fewer than 2^(k-1) nodes is refused first, so only small k are asked
    asked = []
    bell = iso_lifting._bell
    monkeypatch.setattr(iso_lifting, "_bell", lambda k: asked.append(k) or bell(k))
    chain = AbstractPoset([(1 << 300) - (1 << i) for i in range(300)])
    assert not recognize_boolean_node(chain, 299)
    assert boolean_nodes(chain) == [0, 1]
    assert max(asked) <= 2


RECOGNITION_CASES = [
    "2^1", "2^2", "2^3", "2^4", "MO1", "MO2", "MO3", "MO4", "MO2x2", "example22",
    "benzene", "hsum(2^3,2^3)", "hsum(2^4,2^4)", "hsum(2^3,2^3,2^3)", "hsum(2^4,2^2)",
    "hsum(2^2,2^2,2^2,2^2,2^2,2^2)",
]


def _relabeling_morphisms(L, count, seed):
    """The identity of L, then ``count`` seeded relabelings psi: L -> M of its
    inner elements."""
    yield morphism(L, L, range(L.n))
    rng = random.Random(f"{L.name}/{seed}")
    for _ in range(count):
        inner = list(range(1, L.n - 1))
        rng.shuffle(inner)
        yield _relabeled(L, inner)[1]


def _relabelings(L, count, seed):
    """L as given, then ``count`` seeded relabelings of its inner elements."""
    return [psi.target for psi in _relabeling_morphisms(L, count, seed)]


def test_recognize_boolean_node_matches_is_boolean():
    # the bottom-up walk, the per-node recognizer and the recognizer it
    # replaced all find exactly the Boolean nodes
    for name in RECOGNITION_CASES:
        for L in _relabelings(catalog(name), 3, seed=5):
            s = sub(L)
            truth = [i for i in range(s.size) if L.is_boolean(s.nodes[i].members)]
            assert boolean_nodes(s) == truth
            assert [i for i in range(s.size) if recognize_boolean_node(s, i)] == truth
            assert [i for i in range(s.size) if legacy_recognize_boolean_node(s, i)] == truth


def _decisions(P, recognize):
    """Each node's answer from ``recognize``, then the bottom-up walk's
    answer with ``recognize`` as its recognizer; a NoLeastElement is its
    text."""
    def outcome(decide, *args):
        try:
            return decide(*args)
        except NoLeastElement as exc:
            return str(exc)

    return [outcome(recognize, P, x) for x in range(P.size)], \
        outcome(legacy_boolean_nodes, P, recognize)


def _assert_replaced_recognizers_agree(P, search=True):
    """The recognizer and the walk decide as the certificate they replaced
    and, if ``search``, as the isomorphism search, raising NoLeastElement
    at the same nodes; ``boolean_nodes`` returns the walk's list where P
    has a least element and raises NoLeastElement where it has none.
    Returns the accepted nodes."""
    nodes, walk = _decisions(P, recognize_boolean_node)
    assert (nodes, walk) == _decisions(P, legacy_certify_boolean_node)
    if search:
        assert (nodes, walk) == _decisions(P, legacy_recognize_boolean_node)
    if P.bottom() is None:
        with pytest.raises(NoLeastElement, match="poset has no least element"):
            boolean_nodes(P)
    else:
        assert boolean_nodes(P) == walk
    return [x for x, answer in enumerate(nodes) if answer is True]


def _poset_from_covers(size, covers):
    """The order generated by (lower, upper) cover pairs, as up rows."""
    up = [1 << i for i in range(size)]
    for _ in range(size):
        for lo, hi in covers:
            up[lo] |= up[hi]
    return AbstractPoset(up)


def test_invariants_filter_and_certificate_decides():
    # bottom 0; atoms A..D = 1..4 and X, Y, Z = 5..7; rank-2 nodes 8..13; top 14.
    # As in the dual of the partition lattice on four points, each rank-2 node
    # covers two of A..D (each pair once) and one of X, Y, Z (each twice), so
    # the rank profile (1, 7, 6, 1) and every node's cone sizes and cover
    # degrees match.  Unlike there, the two rank-2 nodes over X share a point
    # of A..D (AB and AC), so the posets are not isomorphic.
    rank2 = [(1, 2, 5), (1, 3, 5), (3, 4, 6), (2, 4, 6), (1, 4, 7), (2, 3, 7)]
    covers = [(0, a) for a in range(1, 8)] + [(x, 14) for x in range(8, 14)]
    covers += [(a, 8 + j) for j, trio in enumerate(rank2) for a in trio]
    fake = _poset_from_covers(15, covers)
    assert [sum(1 for y in range(15) if fake.heights[y] == h) for h in range(4)] == [1, 7, 6, 1]
    assert _boolean_rank(fake, 14) == 4
    assert not _sachs_certificate(fake, 14, 4)    # X is below the coatoms for CD, BD only
    assert not recognize_boolean_node(fake, 14)
    assert not legacy_recognize_boolean_node(fake, 14)
    assert boolean_nodes(fake) == [y for y in range(15) if y != 14]

    genuine = partition_lattice(4)[0].dual()
    top = genuine.top()
    assert _boolean_rank(genuine, top) == 4
    assert _sachs_certificate(genuine, top, 4)
    assert recognize_boolean_node(genuine, top)
    assert boolean_nodes(genuine) == list(range(genuine.size))


def test_certificate_rejects_the_dual_partition_lattice_without_a_coatom():
    # the missing pair: only five of the six pairs of points label a coatom
    genuine = partition_lattice(4)[0].dual()
    for c in bits(genuine.cover_down[genuine.top()]):
        lame = AbstractPoset(_induced(genuine.up, (1 << genuine.size) - 1 & ~(1 << c)))
        top = lame.top()
        assert not _sachs_certificate(lame, top, 4)
        assert not recognize_boolean_node(lame, top)
        assert not legacy_recognize_boolean_node(lame, top)


@pytest.mark.parametrize("k", [4, 5])
def test_certificate_rejects_the_dual_partition_lattice_without_a_cover(k):
    # dropping a cover y < z keeps a partial order (nothing lies between);
    # every such order with y above the bottom is refused.  From k = 5 on,
    # an atom can lose a cover to a node that is no coatom: every coatom
    # set stays as it was, and only the order check sees the difference.
    genuine = partition_lattice(k)[0].dual()
    top, bottom = genuine.top(), genuine.bottom()
    passed_rank = 0
    for y in range(genuine.size):
        for z in bits(genuine.cover_up[y]):
            up = list(genuine.up)
            up[y] &= ~(1 << z)
            lame = AbstractPoset(up)
            if y == bottom:
                with pytest.raises(NoLeastElement):
                    recognize_boolean_node(lame, top)
                continue
            passed_rank += _boolean_rank(lame, top) == k
            assert not _sachs_certificate(lame, top, k)
            assert not recognize_boolean_node(lame, top)
            if k == 4:
                assert not legacy_recognize_boolean_node(lame, top)
    assert passed_rank  # some of these pass every invariant: the certificate decides


def _fake_and_lame_posets():
    """The fake of the dual partition lattice on four points, then the dual
    partition lattices on three to five points, each as it is, with one
    node dropped and with one cover dropped, as (poset, points)."""
    rank2 = [(1, 2, 5), (1, 3, 5), (3, 4, 6), (2, 4, 6), (1, 4, 7), (2, 3, 7)]
    covers = [(0, a) for a in range(1, 8)] + [(x, 14) for x in range(8, 14)]
    covers += [(a, 8 + j) for j, trio in enumerate(rank2) for a in trio]
    yield _poset_from_covers(15, covers), 4
    for k in (3, 4, 5):
        genuine = partition_lattice(k)[0].dual()
        everything = (1 << genuine.size) - 1
        yield genuine, k
        for y in range(genuine.size):
            yield AbstractPoset(_induced(genuine.up, everything & ~(1 << y))), k
            for z in bits(genuine.cover_up[y]):
                up = list(genuine.up)
                up[y] &= ~(1 << z)
                yield AbstractPoset(up), k


def test_recognition_matches_the_replaced_certificate_on_fake_and_lame_posets():
    # the isomorphism search joins in up to four points, where it is quick
    tops = 0
    for P, k in _fake_and_lame_posets():
        found = _assert_replaced_recognizers_agree(P, search=k <= 4)
        tops += P.top() in found
    assert tops == 3  # the genuine ones: any drop costs the top its certificate


def _random_poset(rng, size, with_bottom):
    """A seeded random order on ``size`` nodes: relations along a shuffled
    linear order at a random density, closed transitively; with a least
    element if ``with_bottom``."""
    line = list(range(size))
    rng.shuffle(line)
    density = rng.random()
    up = [1 << x for x in range(size)]
    for a in reversed(range(size)):
        for b in range(a + 1, size):
            if rng.random() < density:
                up[line[a]] |= up[line[b]]
    if with_bottom:
        up[line[0]] = (1 << size) - 1
    return AbstractPoset(up)


def test_recognition_matches_the_replaced_certificate_on_random_posets():
    rng = random.Random(29)
    accepted = raised = 0
    for trial in range(2000):
        P = _random_poset(rng, 1 + trial % 12, with_bottom=trial % 2 == 0)
        nodes, walk = _decisions(P, recognize_boolean_node)
        _assert_replaced_recognizers_agree(P)
        accepted += sum(1 for x in range(P.size) if nodes[x] is True and P.heights[x] >= 2)
        raised += walk.__class__ is str
    assert accepted and raised  # some certificates pass at k = 3, some walks raise


def test_boolean_nodes_matches_the_bottom_up_walk_on_random_posets_with_a_bottom():
    rng = random.Random(33)
    certified = 0
    for trial in range(2000):
        P = _random_poset(rng, 1 + trial % 12, with_bottom=True)
        got = boolean_nodes(P)
        assert got == legacy_boolean_nodes(P)
        certified += any(P.heights[x] >= 2 for x in got)
    assert certified  # some certificates pass at k = 3


SUB_WALK_CASES = {
    **{name: lambda name=name: catalog(name)
       for name in RECOGNITION_CASES + ["2^5", "2^6", "hsum(2^2,2^3,2^4)", "hsum(2^5,2^5)"]},
    "MO3x2^3": lambda: product(mo(3), boolean_algebra(3)),
}


@pytest.mark.parametrize("name", SUB_WALK_CASES)
def test_boolean_nodes_matches_the_bottom_up_walk_on_sub_posets(name):
    s = sub(SUB_WALK_CASES[name]())
    assert boolean_nodes(s) == legacy_boolean_nodes(s)


@pytest.mark.parametrize("name, certificates", [("2^6", 1), ("hsum(2^4,2^4)", 2)])
def test_boolean_nodes_certifies_only_the_maximal_boolean_nodes(name, certificates, monkeypatch):
    # the top of Sub(2^6), and the two blocks 2^4 of hsum(2^4,2^4): every
    # other Boolean node lies below one of them
    s = sub(catalog(name))
    walk = legacy_boolean_nodes(s)
    calls = []
    certify = iso_lifting._sachs_certificate
    monkeypatch.setattr(iso_lifting, "_sachs_certificate",
                        lambda *args: calls.append(args[1]) or certify(*args))
    assert boolean_nodes(s) == walk
    assert len(calls) == certificates


def test_boolean_nodes_refuses_a_poset_with_no_least_element_before_its_walk(monkeypatch):
    # the old walk accepted every node of an antichain (one-node intervals)
    # and of two chains side by side; now both are refused at the boundary
    antichain = AbstractPoset([1 << x for x in range(4)])
    two_chains = AbstractPoset([0b0011, 0b0010, 0b1100, 0b1000])
    assert legacy_boolean_nodes(antichain) == [0, 1, 2, 3]
    assert legacy_boolean_nodes(two_chains) == [0, 1, 2, 3]
    assert recognize_boolean_node(antichain, 0)  # the per-interval check stays
    read = []
    monkeypatch.setattr(iso_lifting, "_boolean_rank", lambda *args: read.append(args) or None)
    for P in (antichain, two_chains):
        with pytest.raises(NoLeastElement, match="poset has no least element"):
            boolean_nodes(P)
    assert read == []


def _equivalence_by_definition(k, pairs):
    """Whether the reflexive, symmetric closure of ``pairs`` is transitive."""
    rel = {(i, i) for i in range(k)} | set(pairs) | {(j, i) for i, j in pairs}
    return all((i, l) in rel for i, j in rel for j2, l in rel if j == j2)


@pytest.mark.parametrize("k", range(1, 6))
def test_equivalence_test_matches_the_definition_and_union_find(k):
    # every set of pairs i < j on k points, as the certificate hands them in
    all_pairs = list(itertools.combinations(range(k), 2))
    for chosen in range(1 << len(all_pairs)):
        pairs = [p for b, p in enumerate(all_pairs) if chosen >> b & 1]
        want = _equivalence_by_definition(k, pairs)
        assert legacy_class_row_equivalence(k, pairs) == want, pairs
        assert legacy_is_equivalence(k, pairs) == want, pairs


def test_equivalence_pair_sets():
    assert legacy_class_row_equivalence(4, [])
    assert legacy_class_row_equivalence(4, [(0, 1), (2, 3)])
    assert legacy_class_row_equivalence(4, [(0, 1), (0, 2), (1, 2)])
    assert not legacy_class_row_equivalence(4, [(0, 1), (0, 2)])  # 1 ~ 2 missing
    assert not legacy_class_row_equivalence(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert legacy_class_row_equivalence(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


@pytest.mark.parametrize("name", RECOGNITION_CASES + ["hsum(2^4,2^4,2^3)"])
def test_certificate_matches_the_search_on_relabeled_sub_posets(name):
    # node orders shuffled, so neither the walk nor the points follow
    # the enumeration order; hsum(2^4,2^4,2^3) has 1,125 nodes.  The
    # recognizer, the walk, the certificate they replaced and the search
    # all agree
    s = sub(catalog(name))
    rng = random.Random(name)
    for _ in range(1 if s.size > 500 else 3):
        perm = list(range(s.size))
        rng.shuffle(perm)
        P = s.relabel(perm)
        truth = _assert_replaced_recognizers_agree(P)
        assert boolean_nodes(P) == truth == sorted(perm[i] for i in boolean_nodes(s))


def test_boolean_nodes_of_sub_2_6_are_all_its_nodes():
    s = sub(boolean_algebra(6))
    assert s.size == 203
    assert boolean_nodes(s) == list(range(203))
    perm = list(range(203))
    random.Random(6).shuffle(perm)
    assert boolean_nodes(s.relabel(perm)) == list(range(203))


def _atom_permutation(k, sigma):
    """The automorphism of 2^k that permutes its atoms by sigma."""
    B = boolean_algebra(k)
    return morphism(B, B, [sum(1 << sigma[j] for j in bits(e)) for e in range(B.n)])


@pytest.mark.parametrize("k", [5, 6])
def test_lift_sub_iso_on_2_5_and_2_6(k):
    B = boolean_algebra(k)
    s = sub(B)
    assert [f.mapping for f in lift_sub_iso(B, B, tuple(range(s.size)), s, s)] == \
        [tuple(range(B.n))]
    sigma = list(range(k))
    random.Random(k).shuffle(sigma)
    psi = _atom_permutation(k, sigma)
    lifted = lift_sub_iso(B, B, induced_node_map(psi, s, s), s, s)
    assert [f.mapping for f in lifted] == [psi.mapping]


def test_lift_sub_identity_examples():
    B = boolean_algebra(3)
    s = sub(B)
    result = lift_sub_iso(B, B, tuple(range(s.size)), s, s)
    assert [f.mapping for f in result] == [tuple(range(8))]

    L = mo(2)
    sm = sub(L)
    result = lift_sub_iso(L, L, tuple(range(sm.size)), sm, sm)
    assert len(result) == 4
    p = bsub(L)
    expected = {a.mapping for a in automorphisms(L)
                if induced_node_map(a, sm, sm) == tuple(range(sm.size))}
    assert {f.mapping for f in result} == expected


def test_lift_sub_block_swap():
    L = catalog("example22")
    s = sub(L)
    for psi in automorphisms(L):
        phi = induced_node_map(psi, s, s)
        result = lift_sub_iso(L, L, phi, s, s)
        assert [f.mapping for f in result] == [psi.mapping]
        # restricted to any block, the lift is a Boolean isomorphism
        for blk in L.blocks():
            img = result[0].apply_mask(blk.members)
            assert L.is_boolean(img)


def test_verify_determination_reports():
    L = catalog("example22")
    M = relabel(L, [0, 2, 1, 3, 5, 4, 7, 6, 8, 10, 9, 11])
    r = verify_determination(L, M)
    assert r.posets_isomorphic and r.lattices_isomorphic
    assert r.both_orthomodular and r.consistent
    assert r.lifted_count == 1

    r = verify_determination(boolean_algebra(3), mo(2))
    assert not r.posets_isomorphic and not r.lattices_isomorphic
    assert r.consistent

    r = verify_determination(mo(2), catalog("benzene"))
    assert r.posets_isomorphic and not r.lattices_isomorphic
    assert not r.both_orthomodular and r.consistent
    assert "outside OML hypothesis" in r.note
    assert any("note" in line for line in r.lines())


# -- generated horizontal sums ------------------------------------------------

BELL = (1, 1, 2, 5, 15)
MAX_SUB_NODES = 225


def _fits(atom_counts):
    size, nodes = 2, 1
    for k in atom_counts:
        size += 2 ** k - 2
        nodes *= BELL[k]
    return size <= 64 and nodes <= MAX_SUB_NODES


def _relabeled(L, inner):
    perm = (0, *inner, L.n - 1)
    return L, morphism(L, relabel(L, perm), perm)


@st.composite
def relabeled_hsums(draw):
    """(L, psi): a horizontal sum of 2^1..2^4 and a relabeling psi: L -> M."""
    atom_counts = []
    for _ in range(draw(st.integers(1, 8))):
        k = draw(st.integers(1, 4))
        if _fits(atom_counts + [k]):
            atom_counts.append(k)
    # a 2^1 summand glues nothing on; with no larger summand L is 2^1 itself
    summands = [boolean_algebra(k) for k in atom_counts if k > 1]
    L = horizontal_sum(summands) if summands else boolean_algebra(1)
    return _relabeled(L, draw(st.permutations(range(1, L.n - 1))))


# seven four-element blocks take the canonical path
SEVEN_FOURS = horizontal_sum([boolean_algebra(2)] * 7)


@settings(max_examples=30, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(relabeled_hsums())
@example(_relabeled(SEVEN_FOURS, random.Random(7).sample(range(1, 15), 14)))
def test_generated_hsums_recognize_and_lift(case):
    L, psi = case
    M = psi.target
    sub_l, sub_m = sub(L), sub(M)
    for X, s in ((L, sub_l), (M, sub_m)):
        assert boolean_nodes(s) == [i for i in range(s.size) if X.is_boolean(s.nodes[i].members)]

    four_blocks = sum(1 for blk in L.blocks() if len(blk) == 4)
    canonical = four_blocks > 6
    phi = induced_node_map(psi, sub_l, sub_m)
    lifts = lift_sub_iso(L, M, phi, sub_l, sub_m, canonical_only=canonical)
    if canonical:
        assert len(lifts) == 1
        # the canonical lift agrees with psi off the four-element blocks
        loose = 0
        for blk in L.blocks():
            if len(blk) == 4:
                loose |= blk.members & ~(1 | 1 << (L.n - 1))
        assert all(lifts[0].mapping[e] == psi.mapping[e]
                   for e in range(L.n) if not loose >> e & 1)
    else:
        assert len(lifts) == 2 ** four_blocks
        assert psi.mapping in {f.mapping for f in lifts}
