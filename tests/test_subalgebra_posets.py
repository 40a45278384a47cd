"""Subalgebra enumeration completeness and the poset utilities."""

import itertools
import random

import pytest

from omlkit import (
    AbstractPoset,
    ExplosionCap,
    MalformedInput,
    NoLeastElement,
    NotAPartialOrder,
    SubalgebraPoset,
    SubalgebraSet,
    Unsupported,
    benzene,
    boolean_algebra,
    bsub,
    catalog,
    enumerate_subalgebras,
    mo,
    partition_lattice,
    poset_automorphisms,
    poset_isomorphic,
    poset_isomorphisms,
    product,
    relabel,
    sub,
)
from omlkit.lattice_core import _induced, _order_down, bits, mask_of

from legacy_oracles import legacy_permuted

SMALL = ["2^2", "2^3", "MO2", "MO3", "benzene", "example22"]


def brute_force_subalgebras(L, boolean_only=False):
    # closure always adds the bounds, so closure(mask) == mask means closed
    out = set()
    for mask in range(1 << L.n):
        if L.closure_mask(mask) != mask:
            continue
        if boolean_only and not L.is_boolean(mask):
            continue
        out.add(mask)
    return out


@pytest.mark.parametrize("name", SMALL)
def test_enumeration_matches_brute_force(name):
    L = catalog(name)
    for boolean_only in (False, True):
        poset = enumerate_subalgebras(L, boolean_only=boolean_only)
        assert {n.members for n in poset.nodes} == \
            brute_force_subalgebras(L, boolean_only)
        # canonical order and no duplicates
        masks = [n.members for n in poset.nodes]
        assert masks == sorted(set(masks))

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}   # OEIS A000110


def test_node_counts():
    assert sub(boolean_algebra(3)).size == 5
    assert bsub(catalog("example22")).size == 8
    assert bsub(benzene()).size == 3
    assert sub(benzene()).size == 4
    # every subalgebra of a Boolean algebra is Boolean
    for k in (2, 3, 4):
        B = boolean_algebra(k)
        assert sub(B).size == bsub(B).size == BELL[k]


def test_bottom_node_is_the_least_subalgebra():
    for name in SMALL:
        L = catalog(name)
        p = sub(L)
        assert p.bottom() == 0
        assert p.nodes[0].members == mask_of((0, L.n - 1))


def test_atoms_maximal_covers_against_definitions():
    for name in ("MO2", "example22", "2^3"):
        p = bsub(catalog(name))
        bottom = p.bottom()
        atoms = set(p.atoms())
        for x in range(p.size):
            is_atom = x != bottom and all(
                not (p.leq(bottom, z) and p.leq(z, x) and z not in (bottom, x))
                for z in range(p.size)) and p.leq(bottom, x)
            assert (x in atoms) == is_atom
        maximal = set(p.maximal_elements())
        for x in range(p.size):
            assert (x in maximal) == all(
                not p.leq(x, y) for y in range(p.size) if y != x)
        for x in range(p.size):
            for y in p.covers(x):
                assert p.leq(x, y) and x != y
                assert not any(p.leq(x, z) and p.leq(z, y)
                               for z in range(p.size) if z not in (x, y))


def test_example_atom_counts():
    assert len(bsub(catalog("example22")).atoms()) == 5
    assert len(sub(catalog("MO2")).atoms()) == 2
    assert len(sub(catalog("MO2x2")).atoms()) == 5


def test_joins_and_meets():
    p = bsub(mo(2))
    a1, a2 = p.atoms()
    assert p.join(a1, a2) is None
    assert p.meet(a1, a2) == p.bottom()
    q = bsub(catalog("example22"))
    node_a = q.node_index(mask_of((0, 1, 6, 11)))
    node_b = q.node_index(mask_of((0, 2, 7, 11)))
    left_block = q.node_index(mask_of((0, 1, 2, 3, 6, 7, 8, 11)))
    assert q.join(node_a, node_b) == left_block


def test_meets_are_intersections():
    for name in ("MO2", "example22", "2^3", "MO2x2"):
        p = bsub(catalog(name))
        for x in range(p.size):
            for y in range(p.size):
                m = p.meet(x, y)
                assert m is not None, "Boolean subalgebra meets must exist"
                assert p.nodes[m].members == p.nodes[x].members & p.nodes[y].members


def test_every_node_is_generated_by_its_atoms():
    for name in ("MO2", "example22", "2^3", "MO2x2", "hsum(2^3,2^3)"):
        L = catalog(name)
        p = bsub(L)
        atoms = p.atoms()
        for x in range(p.size):
            seed = 0
            for a in atoms:
                if p.leq(a, x):
                    seed |= p.nodes[a].members
            assert L.closure_mask(seed) == p.nodes[x].members


def test_commutation_matches_atom_joins():
    for name in ("MO2", "example22", "2^3"):
        L = catalog(name)
        p = bsub(L)
        for a in range(1, L.n - 1):
            for b in range(1, L.n - 1):
                x = p.node_index(L.generated_subalgebra([a]).members)
                y = p.node_index(L.generated_subalgebra([b]).members)
                join = p.join(x, y)
                assert L.commutes(a, b) == (join is not None)
                comparable = L.leq(a, b) or L.leq(b, a) or \
                    L.leq(a, L.ortho[b]) or L.leq(L.ortho[b], a)
                assert comparable == (join is not None and p.height(join) <= 2)


def test_heights():
    p = bsub(catalog("example22"))
    assert p.height(p.bottom()) == 0
    for a in p.atoms():
        assert p.height(a) == 1
    for m in p.maximal_elements():
        assert p.height(m) == 2


def test_interval_below():
    p = bsub(catalog("example22"))
    block = p.maximal_elements()[0]
    interval, support = p.interval_below(block)
    assert interval.size == 5
    assert poset_isomorphic(interval, sub(boolean_algebra(3)).as_abstract()) is not None
    assert all(p.leq(s, block) for s in support)
    bottom_iv, _ = p.interval_below(p.bottom())
    assert bottom_iv.size == 1
    s4 = sub(boolean_algebra(4))
    top_iv, _ = s4.interval_below(s4.top())
    assert top_iv.size == 15


NODE_QUERIES = {
    "covers": lambda P, x: P.covers(x),
    "height": lambda P, x: P.height(x),
    "join": lambda P, x: P.join(0, x),
    "join-first": lambda P, x: P.join(x, 0),
    "meet": lambda P, x: P.meet(1, x),
    "meet-first": lambda P, x: P.meet(x, 1),
    "interval_below": lambda P, x: P.interval_below(x),
}


@pytest.mark.parametrize("query", NODE_QUERIES)
@pytest.mark.parametrize("bad", [-1, 4, 1.5, True], ids=["negative", "past-end", "float", "bool"])
def test_node_queries_refuse_an_index_out_of_range(query, bad):
    # unchecked, -1 wraps to the last node, 4 and 1.5 raise a bare
    # IndexError or TypeError, and True reads node 1
    P = sub(mo(2))
    assert P.size == 4
    with pytest.raises(MalformedInput) as exc:
        NODE_QUERIES[query](P, bad)
    assert str(exc.value) == f"node {bad!r} out of range"


NOT_A_NODE = "element set is not a node of this poset"


@pytest.mark.parametrize("members, text", [
    ([0, 7], NOT_A_NODE),
    ({0, 7}, NOT_A_NODE),
    (129.0, NOT_A_NODE),
    (True, NOT_A_NODE),
    ("129", NOT_A_NODE),
    (0b10010001, NOT_A_NODE),
    (lambda: SubalgebraSet(mo(3), 0b10000001), "element set belongs to another lattice")],
    ids=["list", "set", "float", "bool", "str", "not-closed", "another-lattice"])
def test_node_index_refuses_what_is_not_a_node_of_this_lattice(members, text):
    # a list or set is unhashable, a float equal to a node's mask would find
    # it, and MO3's {0, 7} has the bits of 2^3's bottom
    P = sub(boolean_algebra(3))
    with pytest.raises(MalformedInput) as exc:
        P.node_index(members() if callable(members) else members)
    assert str(exc.value) == text
    assert P.node_index(0b10000001) == P.node_index(P.nodes[0]) == 0


# the catalog, hsum(2^5,2^5), and two products whose summands are searched
NODE_LATTICES = ["2^1", "2^2", "2^3", "2^4", "2^5", "MO1", "MO2", "MO3", "MO4", "MO2x2",
                 "example22", "benzene", "hsum(2^3,2^3)", "hsum(2^2,2^3,2^4)",
                 "hsum(2^5,2^5)", "MO2xMO2", "example22x2^1"]


def _node_lattice(name):
    products = {"MO2xMO2": lambda: product(mo(2), mo(2)),
                "example22x2^1": lambda: product(catalog("example22"), boolean_algebra(1))}
    return products[name]() if name in products else catalog(name)


@pytest.mark.parametrize("name", NODE_LATTICES + ["2^6", "hsum(2^4,2^4,2^4)"])
def test_enumeration_builds_no_node_objects(name, monkeypatch):
    L = _node_lattice(name)
    built = []
    init = SubalgebraSet.__init__

    def counted(self, owner, members):
        built.append(members)
        init(self, owner, members)

    monkeypatch.setattr(SubalgebraSet, "__init__", counted)
    posets = [sub(L), bsub(L)]
    assert built == []
    # the spy sees the nodes built on first read, once
    for P in posets:
        assert P.nodes is P.nodes
    assert built == [*posets[0].masks, *posets[1].masks]


@pytest.mark.parametrize("name", NODE_LATTICES)
def test_masks_nodes_labels_and_node_index_agree(name):
    base = _node_lattice(name)
    for seed in (1, 2, 3):
        inner = list(range(1, base.n - 1))
        random.Random(seed).shuffle(inner)
        L = relabel(base, [0, *inner, base.n - 1])
        for P in (sub(L), bsub(L)):
            assert [n.members for n in P.nodes] == list(P.masks)
            assert all(n.owner is L for n in P.nodes)
            assert P.labels() == [n.elements for n in P.nodes]
            assert [P.node_index(m) for m in P.masks] == list(range(P.size))
            assert [P.node_index(n) for n in P.nodes] == list(range(P.size))


def test_poset_isomorphic_examples():
    assert poset_isomorphic(bsub(benzene()), bsub(mo(2))) is not None
    assert poset_isomorphic(sub(benzene()), sub(mo(2))) is not None
    assert poset_isomorphic(bsub(boolean_algebra(3)), bsub(mo(2))) is None


def test_poset_isomorphism_witness_is_checked_both_ways():
    p = bsub(catalog("example22"))
    perm = [0, 2, 1, 3, 4, 6, 5, 7]
    q = p.as_abstract().relabel(perm)
    w = poset_isomorphic(p, q)
    assert w is not None
    for x in range(p.size):
        for y in range(p.size):
            assert p.leq(x, y) == q.leq(w[x], w[y])


def test_poset_automorphisms_count():
    assert len(poset_automorphisms(sub(boolean_algebra(3)))) == 6


def test_poset_iso_cap():
    # an antichain of 5,000 nodes is searched, one of 5,001 refused
    at_cap = AbstractPoset([1 << i for i in range(5000)])
    assert next(poset_isomorphisms(at_cap, at_cap)) == tuple(range(5000))
    big = AbstractPoset([1 << i for i in range(5001)])
    with pytest.raises(Unsupported, match="capped at 5000 nodes"):
        poset_isomorphic(big, big)


def test_poset_isomorphisms_go_deeper_than_the_recursion_limit():
    # one search level per node: a 1200-chain overflowed the old recursive search
    n = 1200
    chain = AbstractPoset([((1 << n) - 1) >> i << i for i in range(n)])
    assert poset_automorphisms(chain) == [tuple(range(n))]


def test_explosion_cap():
    # the message names the cap, the nodes reached and the override variable
    with pytest.raises(ExplosionCap, match=r"more than 3 subalgebras \(stopped at 4 nodes\)"
                                           r".*OMLKIT_NODE_CAP"):
        enumerate_subalgebras(boolean_algebra(4), cap=3)


def test_node_cap_env(monkeypatch):
    monkeypatch.setenv("OMLKIT_NODE_CAP", "2")
    with pytest.raises(ExplosionCap, match=r"more than 2 subalgebras \(stopped at 3 nodes\)"):
        enumerate_subalgebras(boolean_algebra(3))
    monkeypatch.setenv("OMLKIT_NODE_CAP", "junk")
    with pytest.raises(MalformedInput, match="OMLKIT_NODE_CAP must be an integer, got 'junk'"):
        enumerate_subalgebras(boolean_algebra(3))
    # a cap below one node could only end in a meaningless ExplosionCap
    for raw in ("0", "-3"):
        monkeypatch.setenv("OMLKIT_NODE_CAP", raw)
        with pytest.raises(MalformedInput, match=rf"OMLKIT_NODE_CAP must be a positive "
                                                 rf"integer, got '{raw}'"):
            enumerate_subalgebras(boolean_algebra(3))


@pytest.mark.parametrize("cap, text", [
    (0, "cap must be a positive integer, got 0"),
    (-1, "cap must be a positive integer, got -1"),
    (1.5, "cap must be an integer, got 1.5"),
    (True, "cap must be an integer, got True"),
    ("3", "cap must be an integer, got '3'"),
], ids=["zero", "negative", "float", "bool", "string"])
def test_node_cap_argument_is_a_positive_integer(cap, text, monkeypatch):
    # in the words of the OMLKIT_NODE_CAP path, which a given cap overrides
    monkeypatch.setenv("OMLKIT_NODE_CAP", "100")
    for boolean_only in (False, True):
        with pytest.raises(MalformedInput) as exc:
            enumerate_subalgebras(boolean_algebra(3), boolean_only=boolean_only, cap=cap)
        assert str(exc.value) == text


def test_subalgebra_poset_needs_the_trivial_subalgebra_first():
    L = boolean_algebra(2)
    nodes = [SubalgebraSet(L, 0b1111), SubalgebraSet(L, 0b1001)]
    with pytest.raises(MalformedInput, match="trivial subalgebra"):
        SubalgebraPoset([0b01, 0b11], L, nodes)


@pytest.mark.parametrize("nodes, text", [
    (lambda L: [SubalgebraSet(L, 0b1001), SubalgebraSet(L, 0b1111), SubalgebraSet(L, 0b1011)],
     "expected 2 nodes, got 3"),
    (lambda L: [SubalgebraSet(L, 0b1001)], "expected 2 nodes, got 1"),
    (lambda L: [SubalgebraSet(L, 0b1001)] * 2, "a node is listed twice"),
    (lambda L: [SubalgebraSet(mo(1), 0b1001), SubalgebraSet(mo(1), 0b1111)],
     "a node is not an element set of this lattice"),
    (lambda L: [0b1001, 0b1111], "a node is not an element set of this lattice")],
    ids=["too-many", "too-few", "repeated", "another-lattice", "not-a-set"])
def test_subalgebra_poset_nodes_must_fit_the_rows(nodes, text):
    # each would mislabel the order: a node index past the rows, a row with
    # no node, a node dropped from the index, or another lattice's elements
    L = boolean_algebra(2)
    with pytest.raises(MalformedInput) as exc:
        SubalgebraPoset([0b11, 0b10], L, nodes(L))
    assert str(exc.value) == text
    poset = SubalgebraPoset([0b11, 0b10], L, [SubalgebraSet(L, 0b1001), SubalgebraSet(L, 0b1111)])
    assert poset.node_index(0b1111) == 1


def _inclusion(masks):
    return [sum(1 << j for j, n in enumerate(masks) if not m & ~n) for m in masks]


def test_subalgebra_poset_nodes_must_be_closed():
    # {0, 1, 2, 4, 7} of 2^3 holds the atoms but none of their complements
    B = boolean_algebra(3)
    masks = [0b10000001, 0b10010111, B.universe]
    nodes = [SubalgebraSet(B, m) for m in masks]
    with pytest.raises(MalformedInput) as exc:
        SubalgebraPoset(_inclusion(masks), B, nodes)
    assert str(exc.value) == "a node is not a closed subalgebra"
    # and only after every earlier refusal, in its order
    for up, given, error, text in (
            ([0b011, 0b110, 0b100], nodes, NotAPartialOrder, None),
            (_inclusion(masks), nodes[:2], MalformedInput, "expected 3 nodes, got 2"),
            (_inclusion(masks), nodes[:2] + [SubalgebraSet(mo(3), 0b11111111)],
             MalformedInput, "a node is not an element set of this lattice"),
            (_inclusion(masks), [nodes[0], nodes[1], nodes[1]], MalformedInput,
             "a node is listed twice"),
            ([0b111, 0b010, 0b110], [nodes[1], nodes[0], nodes[2]], MalformedInput,
             "the first node must be the trivial subalgebra {0, n-1}")):
        with pytest.raises(error) as exc:
            SubalgebraPoset(up, B, given)
        assert text is None or str(exc.value) == text
    # a node that is not closed is named before an order that is not
    # inclusion: here {0, 7} is not below the middle node
    with pytest.raises(MalformedInput) as exc:
        SubalgebraPoset([0b101, 0b110, 0b100], B, nodes)
    assert str(exc.value) == "a node is not a closed subalgebra"


def test_subalgebra_poset_order_must_be_the_nodes_inclusion():
    # Sub(2^4) with the labels {0, 1, 14, 15} and {0, 3, 12, 15} swapped:
    # an order and closed distinct nodes, but {0, 3, 12, 15} now lies below
    # {0, 1, 4, 5, 10, 11, 14, 15} in the order, though not as a set
    B = boolean_algebra(4)
    s = sub(B)
    masks = list(s.masks)
    i, j = s.node_index(0b1100000000000011), s.node_index(0b1001000000001001)
    masks[i], masks[j] = masks[j], masks[i]
    nodes = [SubalgebraSet(B, m) for m in masks]
    with pytest.raises(MalformedInput) as exc:
        SubalgebraPoset(s.up, B, nodes)
    assert str(exc.value) == "the order is not the nodes' inclusion"
    # the same labels under their own inclusion order are a poset
    assert SubalgebraPoset(_inclusion(masks), B, nodes).masks == tuple(masks)


@pytest.mark.parametrize("name", ["2^4", "MO3", "MO2x2", "example22", "benzene",
                                  "hsum(2^3,2^3)", "hsum(2^2,2^3,2^4)", "hsum(2^4,2^4)"])
def test_enumerated_posets_equal_their_validated_copies(name):
    # enumerate_subalgebras skips re-validating the inclusion order it built
    L = catalog(name)
    for boolean_only in (False, True):
        poset = enumerate_subalgebras(L, boolean_only=boolean_only)
        checked = AbstractPoset(poset.up)
        assert SubalgebraPoset(poset.up, L, poset.nodes).masks == poset.masks
        assert poset.down == _order_down(poset.up) == checked.down
        assert poset.cover_up == checked.cover_up
        assert poset.heights == checked.heights


def test_public_subalgebra_poset_still_validates_the_order():
    L = boolean_algebra(2)
    nodes = [SubalgebraSet(L, 0b1001), SubalgebraSet(L, 0b1111), SubalgebraSet(L, 0b1111)]
    with pytest.raises(NotAPartialOrder, match="transitivity"):
        SubalgebraPoset([0b011, 0b110, 0b100], L, nodes)  # 0 <= 1 <= 2, not 0 <= 2


def test_abstract_poset_validation():
    with pytest.raises(NotAPartialOrder):
        AbstractPoset([0b10, 0b11])  # not reflexive at 0
    with pytest.raises(NotAPartialOrder):
        AbstractPoset.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])
    with pytest.raises(MalformedInput):
        AbstractPoset.from_pairs(2, [(0, 0), (0, 0), (1, 1)])
    # rows that are no sequence raised a bare TypeError
    with pytest.raises(MalformedInput, match="^rows are not a sequence of integer bit sets$"):
        AbstractPoset(None)
    chain = AbstractPoset.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)])
    assert chain.bottom() == 0 and chain.top() == 2
    assert chain.height(2) == 2
    no_bottom = AbstractPoset([0b01, 0b10])
    assert no_bottom.bottom() is None
    with pytest.raises(NoLeastElement):
        no_bottom.atoms()


def test_dual_and_relabel():
    p = sub(boolean_algebra(3)).as_abstract()
    d = p.dual()
    for x in range(p.size):
        for y in range(p.size):
            assert p.leq(x, y) == d.leq(y, x)
    r = p.relabel([4, 3, 2, 1, 0])
    assert poset_isomorphic(p, r) is not None


def _same_order(derived, checked):
    assert type(derived) is AbstractPoset
    assert (derived.up, derived.down) == (checked.up, checked.down)
    assert (derived.cover_up, derived.cover_down) == (checked.cover_up, checked.cover_down)
    assert (derived.heights, derived.depths) == (checked.heights, checked.depths)


@pytest.mark.parametrize("name", ["2^1", "2^4", "MO3", "MO2x2", "example22", "benzene",
                                  "hsum(2^3,2^3)", "hsum(2^2,2^3,2^4)", "hsum(2^4,2^4)"])
def test_derived_posets_equal_their_checked_builds(name):
    # as_abstract, dual, relabel and interval_below derive their rows from
    # an order without re-checking them: each must be the order the
    # validating constructor builds from the same up rows, under three
    # relabelings of the lattice
    base = catalog(name)
    for seed, boolean_only in itertools.product((1, 2, 3), (False, True)):
        inner = list(range(1, base.n - 1))
        random.Random(seed).shuffle(inner)
        P = enumerate_subalgebras(relabel(base, [0, *inner, base.n - 1]),
                                  boolean_only=boolean_only)
        perm = list(range(P.size))
        random.Random(P.size).shuffle(perm)
        _same_order(P.as_abstract(), AbstractPoset(P.up))
        _same_order(P.dual(), AbstractPoset(P.down))
        _same_order(P.as_abstract().dual().dual(), AbstractPoset(P.up))
        _same_order(P.relabel(perm), AbstractPoset(legacy_permuted(P.up, perm)))
        for x in range(P.size):
            below, support = P.interval_below(x)
            assert support == tuple(bits(P.down[x]))
            _same_order(below, AbstractPoset(_induced(P.up, P.down[x])))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_partition_lattice_equals_its_checked_build(n):
    lattice, parts = partition_lattice(n)
    _same_order(lattice, AbstractPoset(lattice.up))
    assert lattice.size == BELL[n]
