"""Close-by-One enumeration against the frontier search and the subset scan.

The oracles in ``legacy_oracles`` are the algorithms Close-by-One replaced,
and Close-by-One itself as it was before failed closures left witnesses;
the enumerator must reproduce their node masks, inclusion rows and
orthocomplement tables exactly, on catalog lattices and under relabeling,
and must close at most half as many sets as the plain Close-by-One.  BSub
of an orthomodular lattice closes on atoms: each such closure must be the
closure operator's or leave a valid witness, the search must find its nodes
in the order the meet closure did, and the commutation rows it filters by
must match the pairwise test.  Sub of a horizontal sum is the product of its
summands' Sub: the summands must be the components of the pairwise
relation, and the cap must stop the product with the legacy text.  Its
rows are composed from the summands' rows: they must equal the transpose of
the multiplied-out masks, and no product above the cut-off may be
transposed whole.
"""

import random

import pytest
from legacy_oracles import (
    frontier_subalgebras,
    legacy_bsub_close_by_one,
    legacy_close_by_one,
    legacy_commuting,
    legacy_enumerate_subalgebras,
    legacy_orthoclosed,
    legacy_summands,
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
    sub,
)
from omlkit import subalgebra_posets
from omlkit.lattice_core import bits
from omlkit.subalgebra_posets import (
    _COMPOSE_ABOVE,
    _split_closure,
    _summands,
    close_by_one,
    inclusion_rows,
)

CATALOG = ["2^1", "2^2", "2^3", "2^4", "2^5", "MO1", "MO2", "MO3", "MO4",
           "MO2x2", "example22", "benzene", "hsum(2^3,2^3)", "hsum(2^2,2^3,2^4)"]
SEEDS = (1, 2, 3)


def _lattice(name):
    # the catalog stops at 2^5 and MO4; in the products blocks share atoms
    beyond = {"2^6": lambda: boolean_algebra(6), "MO8": lambda: mo(8), "MO10": lambda: mo(10),
              "hsum(2^4,2^4,2^3)": lambda: horizontal_sum(
                  [boolean_algebra(4), boolean_algebra(4), boolean_algebra(3)]),
              "hsum(2^4,2^4,2^4)": lambda: horizontal_sum([boolean_algebra(4)] * 3),
              "hsum(2^3,2^3,2^3,2^3,2^3)": lambda: horizontal_sum([boolean_algebra(3)] * 5),
              "hsum(2^3,2^3,2^3,2^3,2^2,2^2,2^2)": lambda: horizontal_sum(
                  [boolean_algebra(3)] * 4 + [boolean_algebra(2)] * 3),
              "MO2x2^2": lambda: product(mo(2), boolean_algebra(2)),
              "MO2xMO2": lambda: product(mo(2), mo(2)),
              "example22x2^1": lambda: product(catalog("example22"), boolean_algebra(1)),
              "hsum(benzene,2^2,benzene)": lambda: horizontal_sum(
                  [catalog("benzene"), boolean_algebra(2), catalog("benzene")])}
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


OMLS = [name for name in CATALOG if name != "benzene"]


@pytest.mark.parametrize("name", OMLS + ["MO2x2^2", "2^6", "MO10", "hsum(2^5,2^5)"])
def test_commuting_rows_match_the_pairwise_test(name):
    L = _lattice(name)
    assert L.commuting == legacy_commuting(L)
    for seed in SEEDS:
        M = _inner_relabeling(L, seed)
        assert M.commuting == legacy_commuting(M)


@pytest.mark.parametrize("name", ["MO2x2^2", "MO2xMO2", "example22x2^1", "MO10",
                                  "2^6", "hsum(2^5,2^5)"])
def test_bsub_matches_legacy_where_blocks_share_atoms(name):
    L = _lattice(name)
    _assert_matches_legacy(L, True)
    for seed in SEEDS[:2]:
        _assert_matches_legacy(_inner_relabeling(L, seed), True)


@pytest.mark.parametrize("name", OMLS + ["MO2x2^2", "MO2xMO2", "example22x2^1", "2^6"])
def test_atom_splitting_finds_nodes_in_the_order_of_the_meet_closure(name, monkeypatch):
    # witnesses only skip closures that fail, so the depth-first order of
    # the nodes found is the same whichever closure runs
    found = []

    def recorded(*args):
        masks = close_by_one(*args)
        found.append(list(masks))
        return masks

    monkeypatch.setattr(subalgebra_posets, "close_by_one", recorded)
    base = _lattice(name)
    for L in (base, *(_inner_relabeling(base, seed) for seed in SEEDS)):
        enumerate_subalgebras(L, boolean_only=True)
        assert found.pop() == legacy_bsub_close_by_one(L)


def _atoms(L, s):
    return sorted(a for a in bits(s) if a and s & L.down[a] == 1 | 1 << a)


@pytest.mark.parametrize("name", ["2^4", "MO3", "MO2x2", "example22", "hsum(2^2,2^3,2^4)",
                                  "MO2x2^2", "MO2xMO2"])
def test_split_closure_is_the_closure_or_a_witness(name):
    # for every BSub node s and every e commuting with s: the closure of
    # s + e with its atoms if it adds nothing below e, else such an element
    base = _lattice(name)
    outcomes = set()
    for L in (base, _inner_relabeling(base, 1)):
        commuting = legacy_commuting(L)
        for s in legacy_enumerate_subalgebras(L, True)[0]:
            atoms = _atoms(L, s)
            for e in bits(L.universe & ~s):
                if s & ~commuting[e]:
                    continue
                closed = L.closure_mask(s | 1 << e)
                got = _split_closure(L, s, atoms, e)
                outcomes.add(got.__class__)
                if got.__class__ is tuple:
                    assert not closed & ~s & (1 << e) - 1
                    assert got[0] == closed and sorted(got[1]) == _atoms(L, closed)
                else:
                    assert got < e and not s >> got & 1 and closed >> got & 1
    assert outcomes == {tuple, int}


# beyond the catalog, whose Sub test_enumeration_matches_legacy_close_by_one
# checks: many summands, a non-orthomodular sum, and connected products
SUMMED = ["MO8", "hsum(2^4,2^4,2^2)", "hsum(benzene,2^2,benzene)", "MO2x2^2", "example22x2^1"]


@pytest.mark.parametrize("name", CATALOG + SUMMED)
def test_summands_are_the_components_of_the_pairwise_relation(name):
    L = _lattice(name)
    for M in (L, *(_inner_relabeling(L, seed) for seed in SEEDS)):
        assert sorted(_summands(M)) == legacy_summands(M)


@pytest.mark.parametrize("name", SUMMED)
def test_sub_as_a_product_of_summands_matches_legacy_close_by_one(name):
    L = _lattice(name)
    _assert_matches_legacy(L, False)
    for seed in SEEDS:
        _assert_matches_legacy(_inner_relabeling(L, seed), False)


@pytest.mark.parametrize("name, cap, searches", [("MO8", 100, 7), ("hsum(2^5,2^2)", 40, 1)],
                         ids=["product-over", "summand-over"])
def test_cap_on_a_product_stops_with_the_legacy_text(name, cap, searches, monkeypatch):
    # MO8 has 2^8 subalgebras but each summand only 2; Sub(2^5) alone has 52
    L = _lattice(name)
    assert len(legacy_enumerate_subalgebras(L, False, cap=cap)) == cap + 1
    text = (f"more than {cap} subalgebras (stopped at {cap + 1} nodes); "
            "raise the cap with OMLKIT_NODE_CAP")
    runs = []

    def recorded(candidates, bottom, state, extend, budget):
        masks = close_by_one(candidates, bottom, state, extend, budget)
        runs.append((budget, len(masks)))
        return masks

    monkeypatch.setattr(subalgebra_posets, "close_by_one", recorded)
    for kw in ({"cap": cap}, {}):
        if not kw:
            monkeypatch.setenv("OMLKIT_NODE_CAP", str(cap))
        runs.clear()
        with pytest.raises(ExplosionCap) as exc:
            sub(L, **kw)
        assert str(exc.value) == text
        # the searches stop at the first summand that takes the product past
        # the cap, and none lists more than cap + 1 masks
        assert len(runs) == searches
        done = 1
        for budget, count in runs[:-1]:
            assert count <= budget
            done *= count
        budget, count = runs[-1]
        assert done <= cap and count == budget + 1 and done * count > cap
        assert all(count <= cap + 1 for _, count in runs)


def _searched(monkeypatch):
    """Each close_by_one result as it was found, and each inclusion_rows input."""
    found, transposed = [], []

    def searched(*args):
        masks = close_by_one(*args)
        found.append((masks, list(masks)))
        return masks

    def transpose(masks):
        transposed.append(masks)
        return inclusion_rows(masks)

    monkeypatch.setattr(subalgebra_posets, "close_by_one", searched)
    monkeypatch.setattr(subalgebra_posets, "inclusion_rows", transpose)
    return found, transposed


COMPOSED = ["hsum(2^5,2^5)", "hsum(2^4,2^4,2^4)", "hsum(2^3,2^3,2^3,2^3,2^3)",
            "hsum(2^3,2^3,2^3,2^3,2^2,2^2,2^2)", "MO8", "MO10"]


@pytest.mark.parametrize("name", ["2^1", "MO1", "2^2"] + SUMMED + COMPOSED)
def test_composed_rows_are_the_transpose_of_the_multiplied_out_masks(name, monkeypatch):
    found, transposed = _searched(monkeypatch)
    base = _lattice(name)
    for L in (_inner_relabeling(base, seed) for seed in SEEDS):
        found.clear()
        transposed.clear()
        poset = sub(L)
        masks = [L.closure_mask(0)]
        for _, part in found:
            masks = [m | f for m in masks for f in part]
        masks.sort()
        assert [node.members for node in poset.nodes] == masks
        assert (list(poset.up), list(poset.down)) == inclusion_rows(masks)
        largest = max([len(part) for _, part in found], default=1)
        if len(masks) > _COMPOSE_ABOVE:
            # only groups up to the cut-off, or one summand, are transposed
            assert max(map(len, transposed)) <= max(_COMPOSE_ABOVE, largest) < len(masks)
        else:
            assert list(map(len, transposed)) == [len(masks)]


@pytest.mark.parametrize("name", ["2^5", "example22", "MO2x2^2", "example22x2^1"])
def test_a_connected_lattice_transposes_the_search_result_itself(name, monkeypatch):
    # one summand: the list close_by_one returns is sorted in place and
    # transposed, with no product, copy or composition on the way
    found, transposed = _searched(monkeypatch)
    for boolean_only in (False, True):
        found.clear()
        transposed.clear()
        enumerate_subalgebras(_lattice(name), boolean_only=boolean_only)
        [(masks, as_found)] = found
        assert transposed == [masks] and transposed[0] is masks
        assert masks == sorted(as_found)


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
def test_enumeration_closes_at_most_half_as_often_as_legacy(name, boolean_only, monkeypatch):
    L = _lattice(name)
    split_calls = []

    def split(L, s, atoms, e):
        split_calls.append((e,))
        return _split_closure(L, s, atoms, e)

    monkeypatch.setattr(subalgebra_posets, "_split_closure", split)
    poset, calls = _counting_extend(
        L, lambda: enumerate_subalgebras(L, boolean_only=boolean_only))
    (masks, _, _), legacy_calls = _counting_extend(
        L, lambda: legacy_enumerate_subalgebras(L, boolean_only))
    assert [node.members for node in poset.nodes] == masks
    assert calls[0] == (0, L.n - 1)
    if boolean_only:
        # past the bottom, an orthomodular L's BSub nodes close on their
        # atoms, never through L._extend
        assert calls == [(0, L.n - 1)] and split_calls
        calls += split_calls
    else:
        assert not split_calls
    assert len(calls) <= len(legacy_calls) // 2
    # past the closure of the bottom, no element above its complement is tried
    assert all(L.ortho[e] > e for e, in calls[1:])


def test_a_horizontal_sum_closes_once_per_summand():
    # past the bottom, Sub(hsum(2^4,2^4)) makes just the closures of two
    # searches of Sub(2^4); one search over the whole sum closes mixed sets
    L, B = _lattice("hsum(2^4,2^4)"), boolean_algebra(4)
    _, calls = _counting_extend(L, lambda: sub(L))
    _, one = _counting_extend(B, lambda: sub(B))
    assert calls[0] == (0, L.n - 1) and one[0] == (0, B.n - 1)
    assert len(calls) - 1 == 2 * (len(one) - 1)


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
