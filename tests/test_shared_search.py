"""The shared backtracking search against the three searches it replaced.

``isomorphisms``, ``poset_isomorphisms`` and ``enumerate_homs`` now call
one search; the old hand-written ones live on in ``legacy_oracles`` and
must produce the same maps in the same order.
"""

import itertools
import random

import pytest
from legacy_oracles import (
    legacy_enumerate_homs,
    legacy_isomorphisms,
    legacy_poset_isomorphisms,
)

from omlkit import (
    automorphisms,
    boolean_algebra,
    bsub,
    catalog,
    enumerate_homs,
    isomorphisms,
    partition_lattice,
    poset_isomorphisms,
    relabel,
    sub,
)

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


@pytest.mark.parametrize("name", CATALOG)
def test_isomorphisms_match_the_old_search(name):
    L = catalog(name)
    assert [f.mapping for f in automorphisms(L)] == \
        [f.mapping for f in legacy_isomorphisms(L, L)]
    for seed in SEEDS:
        M = _inner_relabeling(L, seed)
        got = [f.mapping for f in isomorphisms(L, M)]
        assert got and got == [f.mapping for f in legacy_isomorphisms(L, M)]


def test_isomorphisms_between_different_lattices_match_the_old_search():
    # same size, different structure: the search must come up empty both ways
    for a, b in (("2^3", "MO3"), ("MO2x2", "hsum(2^3,2^3)"), ("benzene", "MO2")):
        L, M = catalog(a), catalog(b)
        assert list(isomorphisms(L, M)) == list(legacy_isomorphisms(L, M)) == []


@pytest.mark.parametrize("name", [n for n in CATALOG if n != "2^5"])
def test_poset_isomorphisms_match_the_old_search_on_sub_and_bsub(name):
    # Sub(2^5) against a relabeling takes minutes in either search; its
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
    # only the first witness: the next two take the two searches minutes
    s = sub(boolean_algebra(5))
    interval, _ = s.interval_below(s.top())
    dual = partition_lattice(5)[0].dual()
    got = _prefix(poset_isomorphisms(interval, dual), 1)
    assert len(got) == 1 and got == _prefix(legacy_poset_isomorphisms(interval, dual), 1)


HOM_PAIRS = [("2^2", "2^2"), ("2^3", "2^1"), ("MO2", "2^1"), ("2^3", "2^3"),
             ("2^3", "2^2"), ("MO2", "MO2"), ("example22", "example22"),
             ("2^1", "2^3"), ("2^2", "MO2"), ("MO3", "2^2")]


@pytest.mark.parametrize("pair", HOM_PAIRS, ids=["->".join(p) for p in HOM_PAIRS])
def test_enumerate_homs_matches_the_old_search(pair):
    L, M = (catalog(name) for name in pair)
    assert [f.mapping for f in enumerate_homs(L, M)] == \
        [f.mapping for f in legacy_enumerate_homs(L, M)]
