"""Close-by-One enumeration against the frontier search and the subset scan.

The oracles in ``legacy_oracles`` are the algorithms Close-by-One replaced;
the new enumerator must reproduce their node masks, inclusion rows and
orthocomplement tables exactly, on catalog lattices and under relabeling.
"""

import random

import pytest
from legacy_oracles import frontier_subalgebras, subset_scan_orthoclosed

from omlkit import (
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
    reconstruct,
    relabel,
)

CATALOG = ["2^1", "2^2", "2^3", "2^4", "2^5", "MO1", "MO2", "MO3", "MO4",
           "MO2x2", "example22", "benzene", "hsum(2^3,2^3)", "hsum(2^2,2^3,2^4)"]
SEEDS = (1, 2, 3)


def _lattice(name):
    # the catalog stops at 2^5 and MO4
    beyond = {"2^6": lambda: boolean_algebra(6), "MO8": lambda: mo(8)}
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
