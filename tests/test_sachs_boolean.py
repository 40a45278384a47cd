"""Dual/principal-dual machinery, partitions, and Boolean lifting."""

import itertools

import pytest

from omlkit import (
    FiniteOrtholattice,
    MalformedInput,
    NotAnIso,
    NotBoolean,
    Partition,
    boolean_algebra,
    catalog,
    dual_decomposition,
    dual_order_test,
    is_boolean_algebra,
    lift_boolean_iso,
    mo,
    morphism,
    partition_lattice,
    partition_to_subalgebra,
    pd_mask,
    pd_order_test,
    poset_isomorphic,
    principal_element,
    sub,
    subalgebra_to_partition,
)
from omlkit.constructions import sublattice
from omlkit.lattice_core import SubalgebraSet, bits, mask_of

from legacy_oracles import legacy_partition_lattice, legacy_partition_to_subalgebra


def test_is_boolean_algebra():
    assert is_boolean_algebra(boolean_algebra(3))
    assert not is_boolean_algebra(mo(2))
    assert not is_boolean_algebra(catalog("benzene"))


def test_operations_reject_non_boolean():
    # on the first call and on repeated ones, though Booleanness is cached
    for name in ("MO2", "MO2x2", "benzene", "hsum(2^2,2^2)"):
        L = catalog(name)
        bottom = L.generated_subalgebra()
        s = sub(L)
        calls = [
            lambda: dual_decomposition(L, bottom),
            lambda: principal_element(L, bottom),
            lambda: subalgebra_to_partition(L, bottom),
            lambda: partition_to_subalgebra(L, Partition.of([[1]])),
            lambda: lift_boolean_iso(L, L, tuple(range(s.size)), s, s),
            # a non-Boolean target alone, caught before the node map is read
            lambda: lift_boolean_iso(boolean_algebra(2), L, (0, 1)),
        ]
        for _ in range(2):
            for call in calls:
                with pytest.raises(NotBoolean, match="^operation needs a Boolean algebra$"):
                    call()


def test_booleanness_is_checked_once_per_lattice(monkeypatch):
    B = boolean_algebra(5)
    s = sub(B)
    real = FiniteOrtholattice.is_boolean
    calls = []

    def counting(self, mask):
        if self is B:
            calls.append(mask)
        return real(self, mask)

    monkeypatch.setattr(FiniteOrtholattice, "is_boolean", counting)
    assert s.size == 52
    for node in s.nodes:
        dual_decomposition(B, node)
    assert len(calls) <= 1


def test_dual_decomposition_examples():
    B = boolean_algebra(3)
    dd = dual_decomposition(B, B.subalgebra([0, 7]))
    assert dd.ideal == 0b1 and dd.filter == 0b10000000
    a = B.atoms()[0]
    dd = dual_decomposition(B, B.subalgebra([0, a, B.ortho[a], 7]))
    assert dd.ideal == mask_of((0, a)) == B.down[a]
    # two rank-2 elements of 2^4: the ideal is {0} so I u F misses the middles
    B4 = boolean_algebra(4)
    none = dual_decomposition(B4, B4.subalgebra([0, 0b0011, 0b1100, 15]))
    assert none is None


def test_dual_order_test_examples():
    B = boolean_algebra(3)
    s = sub(B)
    assert dual_order_test(s, s.top())  # vacuous: no incomparable atoms
    for i in range(s.size):
        assert dual_order_test(s, i)  # all 5 subalgebras of 2^3 are dual
    B4 = boolean_algebra(4)
    s4 = sub(B4)
    bad = s4.node_index(mask_of((0, 0b0011, 0b1100, 15)))
    assert not dual_order_test(s4, bad)


def test_pd_order_test_examples():
    B4 = boolean_algebra(4)
    s4 = sub(B4)
    assert pd_order_test(s4, s4.bottom())
    assert pd_order_test(s4, s4.top())
    # the 8-element principal dual node [0,{12}] u [{34},1]
    x = s4.node_index(pd_mask(B4, 0b0011))
    assert s4.nodes[x].members.bit_count() == 8
    assert pd_order_test(s4, x)
    # its partner [0,{34}] u [{12},1] is dual too, and they meet in the
    # non-dual atom {0, {12}, {34}, 1}
    y = s4.node_index(pd_mask(B4, 0b1100))
    assert dual_order_test(s4, y)
    meet = s4.meet(x, y)
    assert meet == s4.node_index(mask_of((0, 0b0011, 0b1100, 15)))
    assert not dual_order_test(s4, meet)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_order_tests_match_direct_definitions(k):
    B = boolean_algebra(k)
    s = sub(B)
    for i, node in enumerate(s.nodes):
        assert dual_order_test(s, i) == (dual_decomposition(B, node) is not None)
        assert pd_order_test(s, i) == (principal_element(B, node) is not None)


def test_generation_symmetry_for_dual_subalgebras():
    B = boolean_algebra(3)
    for node in sub(B).nodes:
        if dual_decomposition(B, node) is None:
            continue
        outside = [a for a in range(B.n) if a not in node]
        for a, b in itertools.combinations(outside, 2):
            with_a = B.closure_mask(node.members | 1 << a)
            with_b = B.closure_mask(node.members | 1 << b)
            assert bool(with_a >> b & 1) == bool(with_b >> a & 1)


def test_partition_type():
    p = Partition.of([[3], [1, 2]])
    assert str(p) == "12|3"
    assert len(p) == 2
    with pytest.raises(MalformedInput):
        Partition(((1, 2), (2, 3)))
    with pytest.raises(MalformedInput):
        Partition(((2, 1),))
    q = Partition.of([[1], [2], [3]])
    assert q.refines(p) and not p.refines(q)


def test_partition_round_trip():
    for k in (2, 3, 4):
        B = boolean_algebra(k)
        for node in sub(B).nodes:
            p = subalgebra_to_partition(B, node)
            assert partition_to_subalgebra(B, p).members == node.members
    B = boolean_algebra(3)
    assert str(subalgebra_to_partition(B, B.subalgebra(B.universe))) == "1|2|3"
    assert str(subalgebra_to_partition(B, B.subalgebra([0, 7]))) == "123"
    assert str(subalgebra_to_partition(B, B.subalgebra([0, 3, 4, 7]))) == "12|3"


@pytest.mark.parametrize("k", range(1, 6))
def test_partition_to_subalgebra_matches_the_subset_loop(k):
    # every partition of the k atom positions, joins by doubling against
    # the join of every subset of block joins
    B = boolean_algebra(k)
    for p in partition_lattice(k)[1]:
        assert partition_to_subalgebra(B, p) == legacy_partition_to_subalgebra(B, p)


def _element_set_readers(B):
    return {
        "sublattice": lambda x: (lambda L, back: (L.up, L.ortho, back))(*sublattice(B, x)),
        "dual_decomposition": lambda x: dual_decomposition(B, x),
        "principal_element": lambda x: principal_element(B, x),
        "subalgebra_to_partition": lambda x: subalgebra_to_partition(B, x),
    }


@pytest.mark.parametrize("k", [2, 3, 4])
def test_a_subalgebra_reads_alike_as_set_mask_and_element_list(k):
    B = boolean_algebra(k)
    for name, read in _element_set_readers(B).items():
        for node in sub(B).nodes:
            want = read(node)
            assert read(node.members) == want, name
            assert read(list(node.elements)) == want, name


@pytest.mark.parametrize("elements", [[0, 1, 7], [0, 1, 2, 7], [1, 6], [0, 3, 5, 7]])
def test_a_set_that_is_not_closed_is_refused_alike_in_every_form(elements):
    B = boolean_algebra(3)
    mask = mask_of(elements)
    assert B.closure_mask(mask) != mask
    for name, read in _element_set_readers(B).items():
        for form in (SubalgebraSet(B, mask), mask, elements):
            with pytest.raises(MalformedInput) as exc:
                read(form)
            assert str(exc.value) == "element set is not a closed subalgebra", name


def test_a_subalgebra_set_of_another_lattice_is_refused():
    # {0,3,4,7} is closed in MO3 and in 2^3, but 3 and 4 are other elements there
    B = boolean_algebra(3)
    node = next(n for n in sub(mo(3)).nodes if n.members == mask_of((0, 3, 4, 7)))
    entry_points = {"subalgebra": B.subalgebra, **_element_set_readers(B)}
    for name, read in entry_points.items():
        with pytest.raises(MalformedInput) as exc:
            read(node)
        assert str(exc.value) == "element set belongs to another lattice", name
        # the same set as a bare mask or an element list still reads on 2^3
        assert read(node.members) == read(list(node.elements)), name
    # a set of an equal but separately built lattice is another lattice's too
    with pytest.raises(MalformedInput):
        B.subalgebra(SubalgebraSet(boolean_algebra(3), B.universe))


@pytest.mark.parametrize("test", [dual_order_test, pd_order_test])
@pytest.mark.parametrize("x", [-1, 5, 1.5, True, "0", None])
def test_order_tests_refuse_a_node_out_of_range(test, x):
    s = sub(boolean_algebra(3))
    assert s.size == 5
    with pytest.raises(MalformedInput) as exc:
        test(s, x)
    assert str(exc.value) == f"node {x!r} out of range"


def test_partition_map_is_order_reversing():
    B = boolean_algebra(3)
    nodes = sub(B).nodes
    for x in nodes:
        for y in nodes:
            finer = subalgebra_to_partition(B, y).refines(subalgebra_to_partition(B, x))
            assert finer == (x.members & ~y.members == 0)


# Bell numbers (OEIS A000110) and Stirling numbers of the second kind
# S(n, k) for k = 1..n (OEIS A008277)
BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
STIRLING2 = {
    1: (1,),
    2: (1, 1),
    3: (1, 3, 1),
    4: (1, 7, 6, 1),
    5: (1, 15, 25, 10, 1),
    6: (1, 31, 90, 65, 15, 1),
}


def test_partition_lattice_sizes():
    for k in (1, 2, 3, 4, 5, 6):
        lattice, parts = partition_lattice(k)
        assert lattice.size == len(parts) == BELL[k]
    lattice, parts = partition_lattice(3)
    assert str(parts[0]) == "1|2|3"          # singletons at the bottom
    assert lattice.bottom() == 0
    assert str(parts[lattice.top()]) == "123"


@pytest.mark.parametrize("n", range(1, 7))
def test_partition_lattice_rank_profile_is_stirling(n):
    lattice, parts = partition_lattice(n)
    assert len(set(parts)) == len(parts)
    for p in parts:
        members = [i for blk in p.blocks for i in blk]
        assert sorted(members) == list(range(1, n + 1))
        assert p == Partition.of(p.blocks)
    # a partition with k blocks sits at height n - k, finest at the bottom
    assert [lattice.heights[i] for i in range(lattice.size)] == [n - len(p) for p in parts]
    by_blocks = [sum(1 for p in parts if len(p) == k) for k in range(1, n + 1)]
    assert tuple(by_blocks) == STIRLING2[n]
    for i, p in enumerate(parts):
        for j, q in enumerate(parts):
            assert lattice.leq(i, j) == p.refines(q)


@pytest.mark.parametrize("n", range(1, 7))
def test_partition_lattice_matches_the_pairwise_refinement_build(n):
    # the rows transposed from the together pairs are the refinement order
    # tested pair by pair, on the same partitions in the same node order
    lattice, parts = partition_lattice(n)
    up, down, legacy_parts = legacy_partition_lattice(n)
    assert parts == legacy_parts
    assert list(lattice.up) == up and list(lattice.down) == down


def test_sub_dually_isomorphic_to_partition_lattice():
    for k in (2, 3, 4):
        s = sub(boolean_algebra(k)).as_abstract()
        lattice, _ = partition_lattice(k)
        assert poset_isomorphic(s, lattice.dual()) is not None


def test_atom_count_formula():
    for k in (2, 3, 4, 5):
        assert len(sub(boolean_algebra(k)).atoms()) == 2 ** (k - 1) - 1


def test_lift_identity_is_unique():
    B = boolean_algebra(3)
    s = sub(B)
    lifts = lift_boolean_iso(B, B, tuple(range(s.size)), s, s)
    assert [f.mapping for f in lifts] == [tuple(range(8))]


def test_lift_recovers_atom_permutations():
    B = boolean_algebra(3)
    s = sub(B)
    for perm in itertools.permutations(range(3)):
        mapping = [sum(1 << perm[t] for t in bits(e)) for e in range(8)]
        psi = morphism(B, B, mapping)
        phi = tuple(s.node_index(psi.apply_mask(n.members)) for n in s.nodes)
        lifts = lift_boolean_iso(B, B, phi, s, s)
        assert len(lifts) == 1
        assert lifts[0].mapping == psi.mapping
        for i, node in enumerate(s.nodes):
            assert lifts[0].apply_mask(node.members) == s.nodes[phi[i]].members


def test_lift_four_element_case_gives_two():
    B = boolean_algebra(2)
    s = sub(B)
    lifts = lift_boolean_iso(B, B, (0, 1), s, s)
    assert {f.mapping for f in lifts} == {(0, 1, 2, 3), (0, 2, 1, 3)}


def test_lift_two_element_case():
    two = boolean_algebra(1)
    s = sub(two)
    lifts = lift_boolean_iso(two, two, (0,), s, s)
    assert [f.mapping for f in lifts] == [(0, 1)]


def test_lift_rejects_non_isomorphisms():
    B = boolean_algebra(3)
    s = sub(B)
    with pytest.raises(NotAnIso):
        lift_boolean_iso(B, B, (0, 1, 2, 3, 3), s, s)
    with pytest.raises(NotAnIso):
        # bijective but order-breaking: swaps the bottom with an atom
        lift_boolean_iso(B, B, (1, 0, 2, 3, 4), s, s)


def test_lift_between_different_boolean_algebras():
    B = boolean_algebra(3)
    C = catalog("B2^3")
    relabeled = morphism(B, C, [e ^ 0 for e in range(8)])  # identity works
    s_b, s_c = sub(B), sub(C)
    phi = tuple(s_c.node_index(relabeled.apply_mask(n.members)) for n in s_b.nodes)
    lifts = lift_boolean_iso(B, C, phi, s_b, s_c)
    assert len(lifts) == 1 and lifts[0].mapping == relabeled.mapping
