"""The shared backtracking search against the searches it replaced.

``isomorphisms``, ``poset_isomorphisms`` and ``enumerate_homs`` now call
one search; the old hand-written ones live on in ``legacy_oracles`` and
must produce the same maps in the same order.  That search now owns the
bit-set domains, narrowing the targets left to each unmapped point as
points are placed, and tries only the targets left; the forward-checking
search that did so through its caller's hooks, trying every member of a
signature class, and the VF2 search before it, which tested each
candidate against bit sets of the images placed so far, must list the
same maps, map for map.  The hom search, which now reads monotonicity off
the narrowed domains, must list the homs the old search listed, also past
the cap of ``enumerate_homs``.  Where a legacy search does not finish in
time, every map found is checked with ``check_order_iso``.  The lattice
search yields its isos without re-checking them, so every iso is checked
here instead; the heights their signatures read are checked against the
cover walk they replaced, and the lattice signatures, which dropped the
complement's counts and read depths and lower covers off the complement,
against the old candidate lists and the signatures read off the order.
"""

import itertools
import random

import pytest
from legacy_oracles import (
    legacy_candidates,
    legacy_depth_signatures,
    legacy_enumerate_homs,
    legacy_forward_order_isos,
    legacy_heights,
    legacy_iso_signatures,
    legacy_isomorphisms,
    legacy_poset_isomorphisms,
    legacy_vf2_isomorphisms,
    legacy_vf2_poset_isomorphisms,
)

from omlkit import (
    AbstractPoset,
    automorphisms,
    boolean_algebra,
    bsub,
    catalog,
    enumerate_homs,
    find_isomorphism,
    isomorphisms,
    mo,
    morphism,
    partition_lattice,
    poset_automorphisms,
    poset_isomorphisms,
    product,
    relabel,
    sub,
    verify_determination,
)
from omlkit import iso_lifting
from omlkit.functorial import _homs
from omlkit.lattice_core import ISO, _backtrack, _classes, _iso_signatures, mask_of
from omlkit.subalgebra_posets import check_order_iso

CATALOG = ["2^1", "2^2", "2^3", "2^4", "2^5", "MO1", "MO2", "MO3", "MO4",
           "MO2x2", "example22", "benzene", "hsum(2^3,2^3)", "hsum(2^2,2^3,2^4)"]
SEEDS = (1, 2, 3)
# enough maps to cover backtracking past the first witness, few enough that
# highly symmetric posets stay fast
PREFIX = 40


def _inner_relabeling(L, seed):
    inner = list(range(1, L.n - 1))
    random.Random(seed).shuffle(inner)
    return relabel(L, [0, *inner, L.n - 1])


def _prefix(maps, count=PREFIX):
    return list(itertools.islice(maps, count))


def _forward_isos(L, M):
    return [tuple(m) for m in legacy_forward_order_isos(
        L, M, _iso_signatures(L), _iso_signatures(M), (L.ortho, M.ortho))]


def _forward_poset_isos(P, Q):
    return [tuple(m) for m in legacy_forward_order_isos(
        P, Q, P._order_signatures(), Q._order_signatures())]


@pytest.mark.parametrize("name", CATALOG)
def test_isomorphisms_match_the_old_search(name):
    L = catalog(name)
    assert [f.mapping for f in automorphisms(L)] == \
        [f.mapping for f in legacy_isomorphisms(L, L)]
    for seed in SEEDS:
        M = _inner_relabeling(L, seed)
        got = [f.mapping for f in isomorphisms(L, M)]
        assert got and got == [f.mapping for f in legacy_isomorphisms(L, M)]


@pytest.mark.parametrize("name", CATALOG)
def test_the_signatures_read_off_the_complement_are_those_read_off_the_order(name):
    # ' reverses the order, so the depth of a is the height of a', and a has
    # as many lower covers as a' has upper covers: the signatures are equal
    # element for element, so the maps and their order stay the same, and
    # the lattice search neither transposes cover rows nor walks depths
    L = catalog(name)
    for M in (L, *(_inner_relabeling(L, seed) for seed in SEEDS)):
        assert find_isomorphism(L, M) is not None
        assert "cover_down" not in vars(M) and "depths" not in vars(M)
        assert _iso_signatures(M) == legacy_depth_signatures(M)


@pytest.mark.parametrize("name", CATALOG)
def test_the_signatures_give_the_old_candidate_lists(name):
    # the complement's cone and cover counts, which the signatures dropped,
    # repeat the element's own, so every element keeps its candidates;
    # the search, which groups the targets by signature in one pass, builds
    # as bit sets the lists the pairwise comparison of signatures built,
    # and the lists the search grouped into before it held bit sets
    L = catalog(name)
    for M in (L, *(_inner_relabeling(L, seed) for seed in SEEDS)):
        lists = [[[b for b in range(M.n) if t[b] == s[a]] for a in range(L.n)]
                 for s, t in ((_iso_signatures(L), _iso_signatures(M)),
                              (legacy_iso_signatures(L), legacy_iso_signatures(M)))]
        s, t = _iso_signatures(L), _iso_signatures(M)
        assert lists[0] == lists[1] == legacy_candidates(s, t)
        assert _classes(s, t) == [mask_of(c) for c in lists[0]]
    for P in (sub(L), bsub(L)):
        Q = P.relabel(random.Random(name).sample(range(P.size), P.size))
        s, t = P._order_signatures(), Q._order_signatures()
        assert _classes(s, t) == [mask_of(y for y in range(Q.size) if t[y] == s[x])
                                  for x in range(P.size)]


@pytest.mark.parametrize("name", CATALOG)
def test_every_iso_the_search_yields_passes_the_morphism_check(name):
    L = catalog(name)
    for M in (L, *(_inner_relabeling(L, seed) for seed in SEEDS)):
        maps = automorphisms(L) if M is L else list(isomorphisms(L, M))
        assert maps
        for f in maps:
            assert f.kind == ISO and morphism(L, M, f.mapping) == f


def test_all_automorphisms_of_mo5_match_the_old_search():
    L = mo(5)
    got = [f.mapping for f in automorphisms(L)]
    assert len(got) == 3840  # 5! * 2^5
    assert got == [f.mapping for f in legacy_isomorphisms(L, L)]
    assert got == legacy_vf2_isomorphisms(L, L)
    assert got == _forward_isos(L, L)


@pytest.mark.parametrize("name", CATALOG)
def test_isomorphisms_match_the_vf2_search_map_for_map(name):
    # and the forward-checking search that ran on the engine's hooks
    L = catalog(name)
    assert [f.mapping for f in automorphisms(L)] == legacy_vf2_isomorphisms(L, L) == \
        _forward_isos(L, L)
    for seed in SEEDS:
        M = _inner_relabeling(L, seed)
        got = [f.mapping for f in isomorphisms(L, M)]
        assert got and got == legacy_vf2_isomorphisms(L, M) == _forward_isos(L, M)


def _node_relabeling(P, seed):
    perm = list(range(P.size))
    random.Random(seed).shuffle(perm)
    return P.relabel(perm)


@pytest.mark.parametrize("P", [sub(boolean_algebra(4)), bsub(catalog("hsum(2^4,2^4)"))],
                         ids=["Sub(2^4)", "BSub(hsum(2^4,2^4))"])
def test_poset_isomorphisms_onto_relabeled_nodes_match_the_old_search(P):
    # every node renamed, the bottom and top included, unlike a relabeled lattice
    for seed in SEEDS:
        Q = _node_relabeling(P, seed)
        got = _prefix(poset_isomorphisms(P, Q))
        assert got and got == _prefix(legacy_poset_isomorphisms(P, Q))


@pytest.mark.parametrize("name", [n for n in CATALOG if n != "2^5"])
def test_poset_isomorphisms_match_the_vf2_search_map_for_map(name):
    # every map, on Sub and BSub, each against three renamings of its nodes;
    # the VF2 search takes about 20 s per map of Sub(2^5) past the first
    L = catalog(name)
    for P in (sub(L), bsub(L)):
        for seed in SEEDS:
            Q = _node_relabeling(P, seed)
            got = list(poset_isomorphisms(P, Q))
            assert got and got == list(legacy_vf2_poset_isomorphisms(P, Q))


@pytest.mark.parametrize("name", CATALOG)
def test_poset_isomorphisms_match_the_hook_driven_forward_search_map_for_map(name):
    # every map, on Sub and BSub, each against three renamings of its nodes,
    # 2^5 included, which the VF2 search above cannot finish
    L = catalog(name)
    for P in (sub(L), bsub(L)):
        for seed in SEEDS:
            Q = _node_relabeling(P, seed)
            got = list(poset_isomorphisms(P, Q))
            assert got and got == _forward_poset_isos(P, Q)


def test_poset_automorphisms_of_bsub_hsum_2_4_2_4_match_the_vf2_search():
    P = bsub(catalog("hsum(2^4,2^4)"))
    got = poset_automorphisms(P)
    assert len(got) == 2 * 24 ** 2
    assert got == list(legacy_vf2_poset_isomorphisms(P, P))
    assert got == _forward_poset_isos(P, P)


def test_every_poset_automorphism_of_sub_2_5_is_found_against_a_relabeling():
    # the atom permutations of 2^5 act on Sub(2^5) as 120 automorphisms
    P = sub(boolean_algebra(5))
    for seed in SEEDS:
        Q = _node_relabeling(P, seed)
        got = list(poset_isomorphisms(P, Q))
        assert len(set(got)) == len(got) == 120
        for phi in got:
            check_order_iso(phi, P, Q)


SYMMETRIC = {
    "Sub(2^5)": (boolean_algebra(5), sub),
    "BSub(hsum(2^5,2^5))": (catalog("hsum(2^5,2^5)"), bsub),
    "BSub(MO3x2^3)": (product(mo(3), boolean_algebra(3)), bsub),
    "Sub(2^6)": (boolean_algebra(6), sub),
    "BSub(2^5)": (boolean_algebra(5), bsub),
    "Sub(MO3x2^3)": (product(mo(3), boolean_algebra(3)), sub),
}


@pytest.mark.parametrize("name", SYMMETRIC)
def test_the_first_maps_onto_a_relabeled_symmetric_poset_are_order_isomorphisms(name):
    # the VF2 search found no first map here in tier-1 time: 7 s on Sub(2^5),
    # 19 s on BSub(hsum(2^5,2^5)) and none in 30 s on BSub(MO3x2^3)
    L, build = SYMMETRIC[name]
    P = build(L)
    for seed in SEEDS:
        Q = build(_inner_relabeling(L, seed))
        got = _prefix(poset_isomorphisms(P, Q), 3)
        assert len(got) == 3
        for phi in got:
            check_order_iso(phi, P, Q)


@pytest.mark.parametrize("name", [name for name in SYMMETRIC if name.startswith("BSub")])
def test_verify_determination_lifts_an_order_isomorphism(name, monkeypatch):
    # its witness is the first map between the two BSub posets
    L, _ = SYMMETRIC[name]
    found = []
    search = iso_lifting.poset_isomorphic
    monkeypatch.setattr(iso_lifting, "poset_isomorphic",
                        lambda P, Q: found.append((search(P, Q), P, Q)) or found[-1][0])
    for seed in SEEDS:
        found.clear()
        report = verify_determination(L, _inner_relabeling(L, seed))
        [(phi, P, Q)] = found
        check_order_iso(phi, P, Q)
        assert report.consistent and report.lifted_count


@pytest.mark.parametrize("name", CATALOG)
def test_heights_and_depths_match_the_cover_walk(name):
    L = catalog(name)
    for base in (L, sub(L), bsub(L)):
        rename = _inner_relabeling if base is L else _node_relabeling
        for P in (base, *(rename(base, seed) for seed in SEEDS)):
            assert P.heights == legacy_heights(P.down, P.cover_down)
            assert P.depths == legacy_heights(P.up, P.cover_up)


def test_heights_of_a_chain_beside_an_antichain_match_the_cover_walk():
    # a 200-point chain and 50 isolated points, interleaved
    chain = random.Random(1).sample(range(250), 200)
    up = [1 << x for x in range(250)]
    for i, x in enumerate(chain):
        for y in chain[i:]:
            up[x] |= 1 << y
    P = AbstractPoset(up)
    assert P.heights == legacy_heights(P.down, P.cover_down)
    assert sorted(P.heights) == [0] * 51 + list(range(1, 200))


def test_isomorphisms_between_different_lattices_match_the_old_search():
    # same size, different structure: the search must come up empty both ways
    for a, b in (("2^3", "MO3"), ("MO2x2", "hsum(2^3,2^3)"), ("benzene", "MO2")):
        L, M = catalog(a), catalog(b)
        assert list(isomorphisms(L, M)) == list(legacy_isomorphisms(L, M)) == []


@pytest.mark.parametrize("name", [n for n in CATALOG if n != "2^5"])
def test_poset_isomorphisms_match_the_old_search_on_sub_and_bsub(name):
    # Sub(2^5) against a relabeling takes the pairwise search minutes; its
    # Boolean-node intervals are covered by the partition test below
    L = catalog(name)
    for seed in SEEDS:
        M = _inner_relabeling(L, seed)
        for P, Q in ((sub(L), sub(M)), (bsub(L), bsub(M))):
            got = _prefix(poset_isomorphisms(P, Q))
            assert got and got == _prefix(legacy_poset_isomorphisms(P, Q))


def test_poset_isomorphisms_match_the_old_search_across_lattices():
    # the benzene hexagon and MO2 have isomorphic posets but are not isomorphic
    for a, b in (("benzene", "MO2"), ("2^3", "MO3"), ("MO2x2", "example22")):
        for P, Q in ((sub(catalog(a)), sub(catalog(b))), (bsub(catalog(a)), bsub(catalog(b)))):
            assert _prefix(poset_isomorphisms(P, Q)) == _prefix(legacy_poset_isomorphisms(P, Q))


@pytest.mark.parametrize("name", ["2^3", "2^4", "MO3", "MO2x2", "example22"])
def test_poset_isomorphisms_match_the_old_search_on_partition_duals(name):
    # the (interval, dual partition lattice) pairs recognize_boolean_node builds,
    # for Boolean and non-Boolean nodes alike
    s = sub(catalog(name))
    for x in range(s.size):
        interval, _ = s.interval_below(x)
        a = len(interval.atoms())
        if (a + 1) & a:
            continue
        dual = partition_lattice((a + 1).bit_length())[0].dual()
        assert _prefix(poset_isomorphisms(interval, dual), 10) == \
            _prefix(legacy_poset_isomorphisms(interval, dual), 10)


def test_poset_isomorphisms_match_the_old_search_on_the_pi5_dual():
    # only the first witness: the next two take the pairwise search minutes
    s = sub(boolean_algebra(5))
    interval, _ = s.interval_below(s.top())
    dual = partition_lattice(5)[0].dual()
    got = _prefix(poset_isomorphisms(interval, dual), 1)
    assert len(got) == 1 and got == _prefix(legacy_poset_isomorphisms(interval, dual), 1)


# every pair of these catalog lattices within the hom search's cap
HOM_LATTICES = ["2^1", "2^2", "2^3", "2^4", "MO1", "MO2", "MO3", "MO4", "MO2x2",
                "example22", "benzene", "hsum(2^3,2^3)"]
HOM_PAIRS = [(a, b) for a in HOM_LATTICES for b in HOM_LATTICES
             if catalog(a).n * catalog(b).n <= 256]


@pytest.mark.parametrize("pair", HOM_PAIRS, ids=["->".join(p) for p in HOM_PAIRS])
def test_enumerate_homs_matches_the_old_search(pair):
    L, M = (catalog(name) for name in pair)
    assert [f.mapping for f in enumerate_homs(L, M)] == \
        [f.mapping for f in legacy_enumerate_homs(L, M)]


# past the cap of enumerate_homs: (source, target, number of homs)
UNCAPPED_HOM_PAIRS = [("2^4", "2^5", 1024), ("2^5", "hsum(2^3,2^3)", 245),
                      ("2^4", "hsum(2^4,2^4)", 508), ("hsum(2^3,2^3)", "2^5", 0)]


@pytest.mark.parametrize("pair", UNCAPPED_HOM_PAIRS, ids=[f"{a}->{b}" for a, b, _ in UNCAPPED_HOM_PAIRS])
def test_the_hom_search_past_the_cap_matches_the_old_search(pair):
    a, b, count = pair
    L, M = catalog(a), catalog(b)
    got = [f.mapping for f in _homs(L, M, [range(M.n)] * L.n)]
    assert len(got) == count
    assert got == [f.mapping for f in legacy_enumerate_homs(L, M)]


def test_the_search_tries_only_the_targets_left_in_a_domain():
    # the search that tried every member of a signature class made 265,430
    # placements for the 2,704 its forward check kept before this first map
    P = sub(catalog("hsum(2^5,2^5)"))
    Q = sub(_inner_relabeling(catalog("hsum(2^5,2^5)"), 1))
    s, t = P._order_signatures(), Q._order_signatures()
    domain = _classes(s, t)
    order = sorted(range(P.size), key=lambda x: (domain[x].bit_count(), x))
    tried = 0

    def counted(a, b):
        nonlocal tried
        tried += 1
        return True

    first = next(_backtrack(order, domain, P, Q, [-1] * P.size, distinct=True, consistent=counted))
    assert tried < 2 * 2704
    check_order_iso(tuple(first), P, Q)
    assert tuple(first) == next(poset_isomorphisms(P, Q))
