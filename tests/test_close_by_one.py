"""Close-by-One enumeration against the frontier search and the subset scan.

The oracles in ``legacy_oracles`` are the algorithms Close-by-One replaced,
and Close-by-One itself as it was before failed closures left witnesses;
the enumerator must reproduce their node masks, inclusion rows and
orthocomplement tables exactly, on catalog lattices and under relabeling,
and must close at most half as many sets as the plain Close-by-One.
"""

import random

import pytest
from legacy_oracles import (
    frontier_subalgebras,
    legacy_close_by_one,
    legacy_enumerate_subalgebras,
    legacy_orthoclosed,
    subset_scan_orthoclosed,
)

from omlkit import (
    ExplosionCap,
    FrameCap,
    OrthoFrame,
    boolean_algebra,
    bsub,
    build_frame,
    catalog,
    classify_atoms,
    enumerate_subalgebras,
    find_isomorphism,
    horizontal_sum,
    mo,
    orthoclosed_lattice,
    product,
    reconstruct,
    relabel,
)
from omlkit.lattice_core import bits
from omlkit.subalgebra_posets import close_by_one

CATALOG = ["2^1", "2^2", "2^3", "2^4", "2^5", "MO1", "MO2", "MO3", "MO4",
           "MO2x2", "example22", "benzene", "hsum(2^3,2^3)", "hsum(2^2,2^3,2^4)"]
SEEDS = (1, 2, 3)


def _lattice(name):
    # the catalog stops at 2^5 and MO4
    beyond = {"2^6": lambda: boolean_algebra(6), "MO8": lambda: mo(8),
              "hsum(2^4,2^4,2^3)": lambda: horizontal_sum(
                  [boolean_algebra(4), boolean_algebra(4), boolean_algebra(3)])}
    return beyond[name]() if name in beyond else catalog(name)


def _inner_relabeling(L, seed):
    inner = list(range(1, L.n - 1))
    random.Random(seed).shuffle(inner)
    return relabel(L, [0, *inner, L.n - 1])


def _assert_matches_frontier(L, boolean_only):
    poset = enumerate_subalgebras(L, boolean_only=boolean_only)
    masks, rows = frontier_subalgebras(L, boolean_only=boolean_only)
    assert [node.members for node in poset.nodes] == masks
    assert poset.up == rows


@pytest.mark.parametrize("boolean_only", [False, True], ids=["sub", "bsub"])
@pytest.mark.parametrize("name", CATALOG + ["2^6", "MO8"])
def test_enumeration_matches_frontier_search(name, boolean_only):
    L = _lattice(name)
    for seed in SEEDS:
        _assert_matches_frontier(_inner_relabeling(L, seed), boolean_only)


def test_bsub_of_large_horizontal_sum_matches_frontier_search():
    L = catalog("hsum(2^5,2^5)")
    for seed in SEEDS:
        _assert_matches_frontier(_inner_relabeling(L, seed), True)


def _assert_matches_legacy(L, boolean_only):
    poset = enumerate_subalgebras(L, boolean_only=boolean_only)
    masks, up, down = legacy_enumerate_subalgebras(L, boolean_only)
    assert [node.members for node in poset.nodes] == masks
    assert poset.up == up and poset.down == down


@pytest.mark.parametrize("boolean_only", [False, True], ids=["sub", "bsub"])
@pytest.mark.parametrize("name", CATALOG)
def test_enumeration_matches_legacy_close_by_one(name, boolean_only):
    L = _lattice(name)
    _assert_matches_legacy(L, boolean_only)
    for seed in SEEDS:
        _assert_matches_legacy(_inner_relabeling(L, seed), boolean_only)


@pytest.mark.parametrize("name", ["hsum(2^4,2^4,2^3)", "2^6", "hsum(2^5,2^5)"])
def test_sub_of_large_lattices_matches_legacy_close_by_one(name):
    L = _lattice(name)
    _assert_matches_legacy(L, False)
    for seed in SEEDS[:2]:
        _assert_matches_legacy(_inner_relabeling(L, seed), False)


def test_bsub_of_a_non_orthomodular_lattice_meets_witnesses_and_rejections():
    # not orthomodular, so each BSub closure is tested with is_boolean: the
    # search sees children, witnesses and rejections (benzene alone, with
    # every complement pair tried from its lower element, sees no witness)
    L = product(catalog("benzene"), boolean_algebra(2))
    seen = {"witness": 0, "rejected": 0}
    closure, is_boolean = L._extend, L.is_boolean

    def extend(*args):
        child = closure(*args)
        seen["witness"] += isinstance(child, int)
        return child

    def boolean(s):
        ok = is_boolean(s)
        seen["rejected"] += not ok
        return ok

    L._extend, L.is_boolean = extend, boolean
    poset = enumerate_subalgebras(L, boolean_only=True)
    del L._extend, L.is_boolean
    assert seen["witness"] > 0 and seen["rejected"] > 0
    masks, up, down = legacy_enumerate_subalgebras(L, True)
    assert [node.members for node in poset.nodes] == masks
    assert poset.up == up and poset.down == down


def test_cap_stops_at_the_same_count_as_legacy_close_by_one():
    L = boolean_algebra(4)
    for boolean_only in (False, True):
        for cap in (1, 5, 14):
            found = legacy_enumerate_subalgebras(L, boolean_only, cap=cap)
            with pytest.raises(ExplosionCap, match=rf"\(stopped at {len(found)} nodes\)"):
                enumerate_subalgebras(L, boolean_only=boolean_only, cap=cap)


def _counting_extend(L, run):
    """What ``run()`` returns, and the elements of each L._extend call."""
    calls = []
    closure = L._extend

    def counted(mask, members, new, floor=0):
        calls.append(tuple(new))
        return closure(mask, members, new, floor)

    L._extend = counted
    try:
        return run(), calls
    finally:
        del L._extend


PRUNED = [("hsum(2^4,2^4)", False), ("2^6", True)]


@pytest.mark.parametrize("name, boolean_only", PRUNED, ids=["sub", "bsub"])
def test_enumeration_closes_at_most_half_as_often_as_legacy(name, boolean_only):
    L = _lattice(name)
    poset, calls = _counting_extend(
        L, lambda: enumerate_subalgebras(L, boolean_only=boolean_only))
    (masks, _, _), legacy_calls = _counting_extend(
        L, lambda: legacy_enumerate_subalgebras(L, boolean_only))
    assert [node.members for node in poset.nodes] == masks
    assert len(calls) <= len(legacy_calls) // 2
    # past the closure of the bottom, no element above its complement is tried
    assert calls[0] == (0, L.n - 1)
    assert all(L.ortho[e] > e for e, in calls[1:])


@pytest.mark.parametrize("name, boolean_only", PRUNED, ids=["sub", "bsub"])
def test_witnesses_alone_halve_the_closures(name, boolean_only):
    # every element a candidate, so only the witnesses can skip a closure
    L = _lattice(name)
    calls = {}

    def extend(s, members, e):
        calls[key] += 1
        if boolean_only and s & ~L.commuting[e]:
            return None
        child = L._extend(s, members, (e,), e)
        return child if key == "new" or isinstance(child, tuple) else None

    bottom = L.closure_mask(0)
    found = {}
    for key, search, elements in (("new", close_by_one, range(L.n)),
                                  ("legacy", legacy_close_by_one, L.n)):
        calls[key] = 0
        found[key] = sorted(search(elements, bottom, list(bits(bottom)), extend, 10**6))
    assert found["new"] == found["legacy"]
    assert calls["new"] <= calls["legacy"] // 2


def _assert_matches_scan(frame):
    closed, up, ortho = subset_scan_orthoclosed(frame)
    if len(closed) > 64:
        with pytest.raises(FrameCap, match=f"{frame.size} points"):
            orthoclosed_lattice(frame)
        return
    out = orthoclosed_lattice(frame)
    assert out.up == up and out.ortho == ortho


def _random_frame(size, density, seed):
    rng = random.Random(seed)
    perp = [0] * size
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < density:
                perp[i] |= 1 << j
                perp[j] |= 1 << i
    return OrthoFrame(size, tuple(perp), tuple(f"p{i}" for i in range(size)))


@pytest.mark.parametrize("name", ["2^2", "2^3", "2^4", "MO2", "MO3", "MO4",
                                  "MO2x2", "example22", "hsum(2^3,2^3)"])
def test_orthoclosed_matches_subset_scan_on_bsub_frames(name):
    p = bsub(catalog(name))
    _assert_matches_scan(build_frame(p, *classify_atoms(p)))


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 11, 13, 16])
def test_orthoclosed_matches_subset_scan_on_random_frames(size):
    for density in (0.0, 0.2, 0.5, 0.9):
        _assert_matches_scan(_random_frame(size, density, seed=size * 100 + int(density * 10)))


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 11, 13, 16])
def test_orthoclosed_matches_legacy_close_by_one_on_random_frames(size):
    for density in (0.0, 0.2, 0.5, 0.9):
        frame = _random_frame(size, density, seed=size * 100 + int(density * 10))
        legacy = legacy_orthoclosed(frame)
        if isinstance(legacy, list):
            with pytest.raises(FrameCap, match=rf"\(stopped at {len(legacy)}, "):
                orthoclosed_lattice(frame)
            continue
        closed, up, ortho = legacy
        out = orthoclosed_lattice(frame)
        assert out.up == up and out.ortho == ortho


def test_reconstruct_mo10():
    L = mo(10)
    rebuilt = reconstruct(bsub(L).as_abstract())
    assert rebuilt.n == 22
    assert find_isomorphism(rebuilt, L) is not None


def test_reconstruct_largest_horizontal_sum():
    # ten 2^3 summands: 62 elements and a 30-point frame, 2^30 subsets if scanned
    L = horizontal_sum([boolean_algebra(3)] * 10)
    p = bsub(L)
    assert len(build_frame(p, *classify_atoms(p)).labels) == 30
    rebuilt = reconstruct(p.as_abstract())
    assert rebuilt.n == 62
    assert find_isomorphism(rebuilt, L) is not None
