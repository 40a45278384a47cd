"""Close-by-One enumeration against the frontier search and the subset scan.

The oracles in ``legacy_oracles`` are the algorithms Close-by-One replaced,
and Close-by-One itself as it was before failed closures left witnesses;
the enumerator must reproduce their node masks, inclusion rows and
orthocomplement tables exactly, on catalog lattices and under relabeling,
and must close at most half as many sets as the plain Close-by-One.  The
search runs over a linear extension of L (by down-cone size, ties by
index): over index order it must find the same nodes.  Sub of a Boolean
summand of an orthomodular lattice is read off the set partitions of its
atoms, with no search: each such family must be the legacy nodes inside
that summand, and exactly the summands whose elements all commute must be
read that way.  BSub of an orthomodular lattice is read off the set
partitions of its blocks' atoms, all in one call: it must equal the
frontier search, the legacy meet-closure search and the split-closure
search it replaced, close nothing past the bottom, and never read the
commutation rows or the linear extension.  BSub of any other ortholattice
is one search over the whole lattice.  Sub of a horizontal sum is the
product of its summands' Sub: the summands must be the components of the
pairwise relation, and the cap must stop the product, and BSub, with the
legacy text, no call keeping more than cap + 1 masks.  Sub's rows are one
product of the summands' orders: they must equal the transpose of the
multiplied-out masks and the rows of the two-way build it replaced, each
searched summand's masks must be transposed once and no product list at
all.  A family read off partitions brings its rows, built from the covers
of its blocks' partition lattices: they must be the rows the legacy reader
transposed from its keys (the atom pairs a partition separates in each
block that holds it), and the transpose of the family's masks, with no
transpose at all.  The orthoclosed sets of a frame are no longer searched
(they are the intersections of its perp rows), and must still be those of
the subset scan and of the legacy Close-by-One.
"""

import random
from functools import reduce
from operator import or_
from types import SimpleNamespace

import pytest
from legacy_oracles import (
    frontier_subalgebras,
    legacy_boolean_family,
    legacy_boolean_keys,
    legacy_close_by_one,
    legacy_commuting,
    legacy_enumerate_subalgebras,
    legacy_inclusion_rows,
    legacy_orthoclosed,
    legacy_partition_masks,
    legacy_product_order,
    legacy_set_partitions,
    legacy_split_closure_bsub,
    legacy_summands,
    legacy_transpose,
    earlier_sets,
    rank_order,
    subset_scan_orthoclosed,
)

from omlkit import (
    ExplosionCap,
    FrameCap,
    OrthoFrame,
    Partition,
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
from omlkit.lattice_core import FiniteOrtholattice, bits, mask_of
from omlkit.subalgebra_posets import (
    _block_masks,
    _boolean_family,
    _cover_rows,
    _partition_covers,
    _partition_table,
    _summands,
    close_by_one,
    inclusion_rows,
)

CATALOG = ["2^1", "2^2", "2^3", "2^4", "2^5", "MO1", "MO2", "MO3", "MO4",
           "MO2x2", "example22", "benzene", "hsum(2^3,2^3)", "hsum(2^2,2^3,2^4)"]
SEEDS = (1, 2, 3)


def _lattice(name):
    # lattices the catalog does not name; in the products blocks share atoms
    beyond = {"hsum(2^4,2^4,2^3)": lambda: horizontal_sum(
                  [boolean_algebra(4), boolean_algebra(4), boolean_algebra(3)]),
              "hsum(2^4,2^4,2^4)": lambda: horizontal_sum([boolean_algebra(4)] * 3),
              "hsum(2^5,2^2)": lambda: horizontal_sum([boolean_algebra(5), boolean_algebra(2)]),
              "hsum(2^5,2^2,2^2)": lambda: horizontal_sum(
                  [boolean_algebra(5), boolean_algebra(2), boolean_algebra(2)]),
              "hsum(2^3,2^3,2^3,2^3,2^3)": lambda: horizontal_sum([boolean_algebra(3)] * 5),
              "hsum(2^3,2^3,2^3,2^3,2^2,2^2,2^2)": lambda: horizontal_sum(
                  [boolean_algebra(3)] * 4 + [boolean_algebra(2)] * 3),
              "MO2x2^2": lambda: product(mo(2), boolean_algebra(2)),
              "MO2xMO2": lambda: product(mo(2), mo(2)),
              "example22x2^1": lambda: product(catalog("example22"), boolean_algebra(1)),
              "hsum(example22,2^3,MO2)": lambda: horizontal_sum(
                  [catalog("example22"), boolean_algebra(3), mo(2)]),
              "hsum(2^2x6)": lambda: horizontal_sum([boolean_algebra(2)] * 6),
              "hsum(benzene,2^2,benzene)": lambda: horizontal_sum(
                  [catalog("benzene"), boolean_algebra(2), catalog("benzene")]),
              "MO3x2^3": lambda: product(mo(3), boolean_algebra(3)),
              "MO3xMO3": lambda: product(mo(3), mo(3)),
              "MO6x2^2": lambda: product(mo(6), boolean_algebra(2)),
              "example22x2^2": lambda: product(catalog("example22"), boolean_algebra(2)),
              "hsum(example22,MO2x2)": lambda: horizontal_sum(
                  [catalog("example22"), catalog("MO2x2")])}
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
    # every complement pair tried from its earlier element, sees no witness)
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


# connected OMLs whose blocks share atoms, a sum of two of them, and MO31's
# 31 blocks on 62 atoms
BLOCKS_SHARE_ATOMS = ["MO2xMO2", "MO3x2^3", "MO3xMO3", "MO6x2^2", "example22x2^2",
                      "hsum(example22,MO2x2)", "MO31"]


@pytest.mark.parametrize("name", ["MO2x2^2", "example22x2^1", "MO10", "2^6",
                                  "hsum(2^5,2^5)"] + BLOCKS_SHARE_ATOMS)
def test_bsub_matches_legacy_where_blocks_share_atoms(name):
    # BSub read off the blocks gives the nodes and rows of the meet-closure
    # search, and the nodes of the frontier search and of the split-closure
    # search it replaced
    L = _lattice(name)
    for M in (L, *(_inner_relabeling(L, seed) for seed in SEEDS[:2])):
        _assert_matches_legacy(M, True)
        masks = list(bsub(M).masks)
        assert masks == sorted(legacy_split_closure_bsub(M))
        if name != "2^6":
            assert masks == frontier_subalgebras(M, boolean_only=True)[0]


SEARCHED, PARTITIONS = "searched", "partitions"


def _families(monkeypatch):
    """Each family's enumeration as it returned: how (partitions or a
    search), the elements it read (the blocks' atoms, or candidates), its
    budget, the mask list returned and a copy of it as found, its up and
    down rows (None for a search, which returns its masks alone, for a
    Boolean summand of a product, which brings its Hasse diagram in their
    place, and for a family past its budget), that diagram (None for any
    other family), and the keys of the masks as found: the legacy
    partition reader's keys for a family read off partitions, the masks
    themselves for a search.  A family read off partitions is recorded
    once, by the reader enumeration called: ``_boolean_family``, or
    ``_block_masks`` for a summand of a product."""
    found, reading = [], []

    def record(how, elements, budget, masks, keys, up=None, down=None, blocks=None,
               covers=None):
        found.append(SimpleNamespace(how=how, elements=elements, budget=budget, masks=masks,
                                     as_found=list(masks), keys=list(keys), up=up, down=down,
                                     blocks=blocks, covers=covers))

    def keys(L, blocks, budget, masks):
        key_of = dict(zip(*legacy_boolean_keys(L, blocks, budget)))
        return [key_of[m] for m in masks]

    def partitions(L, blocks, budget):
        reading.append(blocks)
        masks, up, down = _boolean_family(L, blocks, budget)
        reading.pop()
        record(PARTITIONS, reduce(or_, blocks), budget, masks, keys(L, blocks, budget, masks),
               up=up, down=down, blocks=list(blocks))
        return masks, up, down

    def summand(L, block, budget):
        masks, covers = _block_masks(L, block, budget)
        if not reading:
            record(PARTITIONS, block, budget, masks, keys(L, [block], budget, masks),
                   blocks=[block], covers=covers)
        return masks, covers

    def searched(candidates, bottom, state, extend, budget):
        masks = close_by_one(candidates, bottom, state, extend, budget)
        record(SEARCHED, mask_of(candidates), budget, masks, masks)
        return masks

    monkeypatch.setattr(subalgebra_posets, "_boolean_family", partitions)
    monkeypatch.setattr(subalgebra_posets, "_block_masks", summand)
    monkeypatch.setattr(subalgebra_posets, "close_by_one", searched)
    return found


def _family_rows(family):
    """A family's sorted masks with its up and down rows: as its reader
    returned them, or, for a Boolean summand of a product, built from the
    diagram it brought, each node the bit of its sorted position."""
    if family.covers is None:
        return family.masks, family.up, family.down
    order = sorted(range(len(family.masks)), key=family.masks.__getitem__)
    place = [0] * len(order)
    for r, x in enumerate(order):
        place[x] = 1 << r
    up, down = _cover_rows(*family.covers, place)
    return ([family.masks[x] for x in order], [up[x] for x in order],
            [down[x] for x in order])


# Boolean algebras, many Boolean summands, and sums mixing Boolean summands
# with searched ones, orthomodular or not
PARTITIONED = ["2^1", "2^2", "2^3", "2^4", "2^5", "2^6", "MO8", "hsum(example22,2^3,MO2)",
               "hsum(benzene,2^2,benzene)"]


@pytest.mark.parametrize("boolean_only", [False, True], ids=["sub", "bsub"])
@pytest.mark.parametrize("name", PARTITIONED)
def test_partition_generated_masks_match_legacy_and_frontier(name, boolean_only, monkeypatch):
    # Sub: each Boolean summand's family read off partitions is the legacy
    # search's nodes inside that summand.  BSub of an orthomodular L is one
    # family read off all its blocks, of all its atoms; of another L, one
    # search.  The whole poset is the legacy search's and (but for 2^6,
    # which the frontier test covers) the frontier search's
    found = _families(monkeypatch)
    base = _lattice(name)
    for L in (_inner_relabeling(base, seed) for seed in SEEDS):
        found.clear()
        poset = enumerate_subalgebras(L, boolean_only=boolean_only)
        masks, up, down = legacy_enumerate_subalgebras(L, boolean_only)
        assert [node.members for node in poset.nodes] == masks
        assert poset.up == up and poset.down == down
        if name != "2^6":
            assert (masks, up) == frontier_subalgebras(L, boolean_only=boolean_only)
        bottom = L.closure_mask(0)
        if boolean_only:
            [family] = found
            assert family.how == (PARTITIONS if L.is_orthomodular else SEARCHED)
            assert family.as_found[0] == bottom and sorted(family.as_found) == masks
            if L.is_orthomodular:
                assert family.elements == mask_of(L.atoms())
            continue
        # the Boolean summands of an orthomodular L, those whose elements commute
        commuting = legacy_commuting(L) if L.is_orthomodular else None
        boolean = [part for part in legacy_summands(L) if commuting
                   and all(part & ~commuting[e] == 0 for e in bits(part))]
        partitioned = [f for f in found if f.how == PARTITIONS]
        assert len(partitioned) == len(boolean)
        for family in partitioned:
            [part] = [p for p in boolean if family.elements & p]
            inside = [m for m in masks if not m & ~(part | bottom)]
            assert family.as_found[0] == bottom and sorted(family.as_found) == inside


def _blocks(members):
    """A partition table row's blocks, block b being member 2^b, as the
    1-based blocks of a Partition."""
    return tuple(tuple(i + 1 for i in bits(members[1 << b]))
                 for b in range(len(members).bit_length() - 1))


@pytest.mark.parametrize("k", range(1, 7))
def test_partitions_are_ordered_by_the_atom_pairs_they_split(k):
    # the table lists each partition once, in restricted growth order, with
    # the unions of its blocks as members; and T's partition refines S's
    # exactly when T splits every pair that S splits
    table = _partition_table(k)
    parts = [Partition(_blocks(members)) for members, _ in table]
    assert [p.blocks for p in parts] == [
        tuple(tuple(i + 1 for i in block) for block in blocks)
        for blocks in legacy_set_partitions(range(k))]
    for members, _ in table:
        blocks = [members[1 << b] for b in range(len(members).bit_length() - 1)]
        assert list(members) == [sum(blocks[b] for b in bits(s)) for s in range(len(members))]
    for p, (_, split_p) in zip(parts, table):
        for q, (_, split_q) in zip(parts, table):
            assert (split_p & ~split_q == 0) == q.refines(p)


@pytest.mark.parametrize("k", range(1, 7))
def test_partition_masks_match_the_per_partition_reader(k):
    # the table-driven reader, given one block, gives the masks, sorted and
    # with the same stop, that folding each partition's block joins gave;
    # within its budget its up rows, of one bit per mask, order the masks
    # as inclusion does, and past it there are no rows
    for L in (_inner_relabeling(boolean_algebra(k), seed) for seed in SEEDS):
        atoms = sorted(L.atoms())
        total = len(legacy_partition_masks(L, atoms, 10**6))
        for budget in (10**6, total - 1, 0):
            masks, up, down = _boolean_family(L, [mask_of(atoms)], budget)
            assert masks == sorted(legacy_partition_masks(L, atoms, budget))
            if len(masks) > budget:
                assert up is None and down is None
                continue
            assert len(up) == len(masks) and max(up) >> len(masks) == 0
            for m, row in zip(masks, up):
                assert [row >> j & 1 == 1 for j in range(len(masks))] == [not m & ~n for n in masks]


@pytest.mark.parametrize("k, pairs", [(1, 0), (2, 1), (3, 6), (4, 31), (5, 160), (6, 856)])
def test_each_cover_splits_exactly_one_block(k, pairs):
    # the sum over b of S(k, b) C(b, 2) cover pairs, each distinct; the
    # upper partition is the lower one with one block split in two, and
    # the pairs run by the lower partition's block count, never rising
    lower, upper = _partition_covers(k)
    assert len(lower) == len(upper) == pairs
    assert len(set(zip(lower, upper))) == pairs
    blocks = [{ms[1 << b] for b in range(len(ms).bit_length() - 1)}
              for ms, _ in _partition_table(k)]
    for i, j in zip(lower, upper):
        [whole] = blocks[i] - blocks[j]
        split = blocks[j] - blocks[i]
        assert len(split) == 2 and reduce(or_, split) == whole
        assert blocks[i] - {whole} == blocks[j] - split
    counts = [len(blocks[i]) for i in lower]
    assert counts == sorted(counts, reverse=True)


# the catalog, 2^6, MO31, a large sum, and products whose blocks share nodes
COVERED = CATALOG + ["2^6", "MO31", "hsum(2^5,2^5)", "MO3x2^3", "MO2xMO2", "MO2x2^2",
                     "example22x2^2"]


@pytest.mark.parametrize("boolean_only", [False, True], ids=["sub", "bsub"])
@pytest.mark.parametrize("name", COVERED)
def test_rows_from_covers_are_the_legacy_key_transpose(name, boolean_only, monkeypatch):
    # each family read off partitions (a Boolean summand of Sub, all the
    # blocks of BSub) gives the sorted masks and the rows the key-based
    # reader gave, which are the transpose of its masks; a summand of a
    # product gives its masks in table order and a diagram with those rows.
    # Sub(MO31) has 2^31 nodes: the families read before the cap stops it
    # are compared
    found = _families(monkeypatch)
    base = _lattice(name)
    for L in (_inner_relabeling(base, seed) for seed in SEEDS):
        found.clear()
        if name == "MO31" and not boolean_only:
            with pytest.raises(ExplosionCap):
                sub(L)
            assert found[-1].up is None
            found.pop()
        else:
            enumerate_subalgebras(L, boolean_only=boolean_only)
        families = [family for family in found if family.how == PARTITIONS]
        if boolean_only:
            assert len(families) == L.is_orthomodular
        for family in families:
            masks, up, down = _family_rows(family)
            assert (masks, up, down) == legacy_boolean_family(L, family.blocks, family.budget)
            assert (up, down) == inclusion_rows(masks)


@pytest.mark.parametrize("name", ["2^1", "2^2", "2^5", "2^6", "MO10", "hsum(2^5,2^5)",
                                  "hsum(2^3,2^3,2^3,2^3,2^3)"])
def test_families_read_off_partitions_transpose_nothing(name, monkeypatch):
    # Sub of a lattice whose summands are all Boolean, and BSub of an
    # orthomodular lattice, whose blocks share nodes or not, never call
    # inclusion_rows; Sub of example22, searched, does
    transposed = []

    def transpose(masks):
        transposed.append(masks)
        return inclusion_rows(masks)

    monkeypatch.setattr(subalgebra_posets, "inclusion_rows", transpose)
    base = _lattice(name)
    for L in (base, *(_inner_relabeling(base, seed) for seed in SEEDS)):
        sub(L)
        bsub(L)
    for shared in ("MO3x2^3", "example22x2^2", "MO31"):
        bsub(_lattice(shared))
    assert transposed == []
    sub(catalog("example22"))
    assert len(transposed) == 1


@pytest.mark.parametrize("name, boolean_only", [
    ("2^6", False), ("2^6", True), ("hsum(2^5,2^5)", True), ("MO3x2^3", True),
    ("example22x2^2", True), ("MO2x2^2", True)])
def test_a_cap_stops_the_cover_reader_where_the_key_reader_stopped(name, boolean_only):
    # under every cap below the node count, the family read off partitions
    # keeps the legacy reader's budget + 1 masks, sorted, and builds no
    # rows, and the enumeration stops with the legacy text; at the node
    # count it builds the rows
    L = _inner_relabeling(_lattice(name), 1)
    blocks = L._block_atoms if boolean_only else [L._atoms]
    size = len(legacy_enumerate_subalgebras(L, boolean_only)[0])
    for cap in range(1, size + 1):
        masks, up, down = _boolean_family(L, blocks, cap)
        assert masks == sorted(legacy_boolean_keys(L, blocks, cap)[0])
        if cap == size:
            assert len(masks) == size and up is not None and down is not None
            assert enumerate_subalgebras(L, boolean_only=boolean_only, cap=cap).size == size
            continue
        assert len(masks) == cap + 1 and up is None and down is None
        with pytest.raises(ExplosionCap) as exc:
            enumerate_subalgebras(L, boolean_only=boolean_only, cap=cap)
        assert str(exc.value) == (f"more than {cap} subalgebras (stopped at {cap + 1} nodes); "
                                  "raise the cap with OMLKIT_NODE_CAP")


# a lone 2^1 (no summand) and a lone 2^2; Boolean summands alone or with
# searched ones, orthomodular or not; OMLs whose blocks share atoms, and
# MO31, whose 2^31 subalgebras pass the cap, for BSub alone
KEYED = ["2^1", "MO1", "2^2", "2^6", "MO10", "hsum(2^5,2^5)", "MO2xMO2", "example22x2^1",
         "hsum(example22,2^3,MO2)", "hsum(benzene,2^2,benzene)", "MO3x2^3", "MO3xMO3",
         "MO6x2^2", "example22x2^2", "hsum(example22,MO2x2)", "MO31"]
KEYED_CASES = [(name, b) for name in KEYED for b in (False, True) if b or name != "MO31"]


@pytest.mark.parametrize("name, boolean_only", KEYED_CASES,
                         ids=[f"{name}-{'bsub' if b else 'sub'}" for name, b in KEYED_CASES])
def test_rows_from_keys_are_the_legacy_transpose_of_the_sorted_masks(name, boolean_only):
    base = _lattice(name)
    for L in (_inner_relabeling(base, seed) for seed in SEEDS):
        poset = enumerate_subalgebras(L, boolean_only=boolean_only)
        masks = [node.members for node in poset.nodes]
        assert masks == sorted(masks)
        up = legacy_inclusion_rows(masks)
        assert list(poset.up) == up and tuple(poset.down) == legacy_transpose(up)


@pytest.mark.parametrize("name, boolean_only, cap, runs_made", [
    ("2^6", False, 202, 1), ("2^6", True, 202, 1), ("hsum(2^5,2^5)", False, 2703, 2),
    ("hsum(2^5,2^5)", True, 102, 1), ("MO10", True, 7, 1)])
def test_a_cap_running_out_inside_a_boolean_summand_stops_with_the_legacy_text(
        name, boolean_only, cap, runs_made, monkeypatch):
    # the last family read off partitions (a Boolean summand of Sub, or all
    # of BSub's blocks at once) stops at budget + 1 masks, as many as the
    # legacy reader keyed, and builds no rows, with the text and stop count
    # of the search over the whole lattice
    runs = _families(monkeypatch)
    base = _lattice(name)
    for L in (_inner_relabeling(base, seed) for seed in SEEDS):
        assert len(legacy_enumerate_subalgebras(L, boolean_only, cap=cap)) == cap + 1
        runs.clear()
        with pytest.raises(ExplosionCap) as exc:
            enumerate_subalgebras(L, boolean_only=boolean_only, cap=cap)
        assert str(exc.value) == (f"more than {cap} subalgebras (stopped at {cap + 1} nodes); "
                                  "raise the cap with OMLKIT_NODE_CAP")
        assert len(runs) == runs_made and all(run.how == PARTITIONS for run in runs)
        assert all(len(run.masks) <= run.budget for run in runs[:-1])
        assert len(runs[-1].masks) == len(runs[-1].keys) == runs[-1].budget + 1
        assert runs[-1].up is None and runs[-1].down is None


def test_the_partition_table_holds_one_entry_per_summand_size():
    # the table is a constant of the atom count, never of a lattice or its
    # labeling: blocks and Boolean summands of 1 to 6 atoms (2^1's one block
    # has its top for its atom) leave at most 6 entries
    _partition_table.cache_clear()
    _partition_covers.cache_clear()
    for name in CATALOG + ["2^6", "MO10", "hsum(2^5,2^5)", "hsum(example22,2^3,MO2)"]:
        base = _lattice(name)
        for L in (base, *(_inner_relabeling(base, seed) for seed in SEEDS)):
            sub(L)
            bsub(L)
    assert _partition_table.cache_info().currsize <= 6
    assert _partition_covers.cache_info().currsize <= 6


@pytest.mark.parametrize("name", ["2^6", "MO8", "hsum(2^5,2^5)", "hsum(2^2,2^3,2^4)",
                                  "hsum(example22,2^3,MO2)", "MO2xMO2", "example22x2^1"])
def test_bsub_of_an_orthomodular_lattice_reads_no_commutation_or_rank(name, monkeypatch):
    # BSub of an OML is read off its blocks, found from the orthogonality of
    # atoms: it needs no linear extension of L, whether or not its summands
    # are Boolean
    base = _lattice(name)
    lattices = [base, *(_inner_relabeling(base, seed) for seed in SEEDS)]
    expected = [legacy_enumerate_subalgebras(L, True)[0] for L in lattices]
    reads = []

    def recorded(attr):
        compute = getattr(FiniteOrtholattice, attr).func
        return property(lambda L: reads.append(attr) or compute(L))

    for attr in ("_ranked", "_earlier"):
        monkeypatch.setattr(FiniteOrtholattice, attr, recorded(attr))
    for L, masks in zip(lattices, expected):
        reads.clear()
        assert [node.members for node in bsub(L).nodes] == masks
        assert reads == []


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
    runs = _families(monkeypatch)
    for kw in ({"cap": cap}, {}):
        if not kw:
            monkeypatch.setenv("OMLKIT_NODE_CAP", str(cap))
        runs.clear()
        with pytest.raises(ExplosionCap) as exc:
            sub(L, **kw)
        assert str(exc.value) == text
        # the summands' enumerations stop at the first that takes the
        # product past the cap, and none lists more than cap + 1 masks
        assert len(runs) == searches
        done = 1
        for run in runs[:-1]:
            assert len(run.masks) <= run.budget
            done *= len(run.masks)
        budget, count = runs[-1].budget, len(runs[-1].masks)
        assert done <= cap and count == budget + 1 and done * count > cap
        assert all(len(run.masks) <= cap + 1 for run in runs)


@pytest.mark.parametrize("name", ["hsum(2^4,2^4)", "hsum(example22,2^3,MO2)", "MO8", "MO2xMO2",
                                  "example22x2^1", "hsum(benzene,2^2,benzene)"])
def test_bsub_cap_stops_with_the_legacy_text(name, monkeypatch):
    # BSub is one family, read off the blocks of an OML or searched over all
    # of another L, with the whole cap for its budget: under every cap below
    # the node count it stops at cap + 1 distinct masks, as many as the
    # legacy reader keyed, and no rows, with the text and stop count of the
    # search over the whole lattice
    L = _lattice(name)
    size = len(legacy_enumerate_subalgebras(L, True)[0])
    runs = _families(monkeypatch)
    for cap in range(1, size + 1):
        runs.clear()
        if cap == size:
            assert bsub(L, cap=cap).size == size
            continue
        assert len(legacy_enumerate_subalgebras(L, True, cap=cap)) == cap + 1
        with pytest.raises(ExplosionCap) as exc:
            bsub(L, cap=cap)
        assert str(exc.value) == (f"more than {cap} subalgebras (stopped at {cap + 1} nodes); "
                                  "raise the cap with OMLKIT_NODE_CAP")
        [run] = runs
        assert run.how == (PARTITIONS if L.is_orthomodular else SEARCHED) and run.budget == cap
        assert len(set(run.masks)) == len(run.masks) == len(run.keys) == cap + 1
        assert run.up is None and run.down is None


def _searched(monkeypatch):
    """Each summand's enumeration (``_families``), and each inclusion_rows input."""
    transposed = []

    def transpose(masks):
        transposed.append(masks)
        return inclusion_rows(masks)

    monkeypatch.setattr(subalgebra_posets, "inclusion_rows", transpose)
    return _families(monkeypatch), transposed


def _legacy_parts(found):
    """Each summand's masks and keys as the two-way product took them, the
    keys ORed across summands: a Boolean summand's keys shifted to a range
    of pair bits of their own, in summand order, and searched masks shifted
    above all those ranges."""
    offsets, low = [], 0
    for family in found:
        offsets.append(low)
        if family.how == PARTITIONS:
            k = family.elements.bit_count()
            low += k * (k - 1) // 2
    return [(list(family.as_found),
             [key << offset for key in family.keys] if family.how == PARTITIONS
             else [m << low for m in family.as_found])
            for family, offset in zip(found, offsets)]


# two to seven summands, Boolean, searched or both, with sides of 2 to 52
# nodes: products the two-way build composed, multiplied out, or split
# against a side of two nodes
PRODUCTS = ["hsum(2^5,2^5)", "hsum(2^4,2^4,2^4)", "hsum(2^3,2^3,2^3,2^3,2^3)",
            "hsum(2^3,2^3,2^3,2^3,2^2,2^2,2^2)", "MO8", "MO10", "hsum(2^5,2^2)",
            "hsum(2^5,2^2,2^2)", "hsum(2^2x6)"]


@pytest.mark.parametrize("name", ["2^1", "MO1", "2^2"] + SUMMED + PRODUCTS)
def test_composed_rows_are_the_transpose_of_the_multiplied_out_masks(name, monkeypatch):
    # the rows are the transpose of the multiplied-out masks, and the rows
    # the two-way build gave (from the legacy keys); each searched summand's
    # masks are transposed once, sorted, a summand read off partitions
    # brings its rows alone and, in a product, its masks in table order
    # with its partitions' Hasse diagram, and no product list is transposed
    found, transposed = _searched(monkeypatch)
    base = _lattice(name)
    for L in (_inner_relabeling(base, seed) for seed in SEEDS):
        found.clear()
        transposed.clear()
        poset = sub(L)
        bottom = L.closure_mask(0)
        masks = [bottom]
        for family in found:
            masks = [m | f for m in masks for f in family.as_found]
        masks.sort()
        nodes = [node.members for node in poset.nodes]
        assert nodes == masks
        assert (list(poset.up), list(poset.down)) == inclusion_rows(masks)
        searched = [sorted(family.as_found) for family in found if family.how == SEARCHED]
        assert transposed == searched
        if len(found) > 1:
            assert max(map(len, transposed), default=0) < len(masks)
        legacy = legacy_product_order(_legacy_parts(found) or [([bottom], [bottom])])
        assert legacy == (nodes, list(poset.up), list(poset.down))
        for family in found:
            if family.how == PARTITIONS:
                assert (family.up is None) == (len(found) > 1)
                if len(found) > 1:
                    assert family.covers == _partition_covers(family.elements.bit_count())


# sums of Boolean summands of 2 to 52 nodes, and sums with searched
# summands, orthomodular or not
BOOLEAN_SUMS = ["MO6", "MO8", "MO10", "hsum(2^4,2^4)", "hsum(2^4,2^4,2^2)",
                "hsum(2^3,2^3,2^3)", "hsum(2^5,2^5)"]
SPREAD = BOOLEAN_SUMS + ["hsum(example22,2^3,MO2)", "hsum(benzene,2^2,benzene)",
                         "hsum(example22,MO2x2)"]


@pytest.mark.parametrize("name", SPREAD)
def test_a_product_spreads_each_summand_through_its_covers_once(name, monkeypatch):
    # Sub's masks and rows are the transpose of its masks and the two-way
    # build's.  Each summand's rows are spread by one _cover_rows call on
    # the product's N-bit columns, one column per node of the summand,
    # which partition the N nodes; a sum of Boolean summands never spreads
    # a row with itertools.compress, which only the transpose uses
    found = _families(monkeypatch)
    spread = []

    def counted(lower, upper, place):
        spread.append(list(place))
        return _cover_rows(lower, upper, place)

    def refused(*args):
        raise AssertionError("a row spread by compress")

    monkeypatch.setattr(subalgebra_posets, "_cover_rows", counted)
    base = _lattice(name)
    for L in (_inner_relabeling(base, seed) for seed in SEEDS):
        found.clear()
        spread.clear()
        with monkeypatch.context() as guard:
            if name in BOOLEAN_SUMS:
                guard.setattr(subalgebra_posets, "compress", refused)
            poset = sub(L)
        assert all(family.how == PARTITIONS for family in found) == (name in BOOLEAN_SUMS)
        masks = list(poset.masks)
        assert (list(poset.up), list(poset.down)) == inclusion_rows(masks)
        legacy = legacy_product_order(_legacy_parts(found))
        assert legacy == (masks, list(poset.up), list(poset.down))
        everything = (1 << len(masks)) - 1
        assert [len(cols) for cols in spread] == [len(family.masks) for family in found]
        for cols in spread:
            assert sum(cols) == reduce(or_, cols) == everything and all(cols)


def test_the_cap_stops_a_product_of_two_node_summands_at_the_cap():
    # Sub(MO8) has 2^8 nodes, each of its eight summands two: cap 255
    # stops at the eighth with the text it always had, cap 256 passes
    L = mo(8)
    with pytest.raises(ExplosionCap) as exc:
        sub(L, cap=255)
    assert str(exc.value) == ("more than 255 subalgebras (stopped at 256 nodes); "
                              "raise the cap with OMLKIT_NODE_CAP")
    assert sub(L, cap=256).size == 256


@pytest.mark.parametrize("name", ["2^5", "example22", "MO2x2^2", "example22x2^1"])
def test_a_connected_lattice_transposes_the_search_result_itself(name, monkeypatch):
    # one family: the list its enumeration returns, partition-generated
    # (Sub of 2^5, and BSub, read off the blocks) or searched, is sorted,
    # with no product, copy or composition on the way.  A searched family
    # is sorted in place and that very list is transposed; a
    # partition-generated one comes sorted with its rows, the transpose of
    # its masks, and nothing is transposed
    found, transposed = _searched(monkeypatch)
    for boolean_only in (False, True):
        found.clear()
        transposed.clear()
        enumerate_subalgebras(_lattice(name), boolean_only=boolean_only)
        [family] = found
        assert family.masks == sorted(family.as_found)
        if name == "2^5" or boolean_only:
            assert family.how == PARTITIONS
            assert (family.up, family.down) == inclusion_rows(family.masks)
            assert transposed == []
        else:
            assert family.how == SEARCHED
            assert transposed == [family.masks] and transposed[0] is family.masks


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

    def counted(mask, members, new, earlier=0):
        calls.append(tuple(new))
        return closure(mask, members, new, earlier)

    L._extend = counted
    try:
        return run(), calls
    finally:
        del L._extend


# every summand Boolean: read off partitions, with no closure past the bottom's
PRUNED = [("hsum(2^4,2^4)", False), ("2^6", True)]
# Sub of a lattice that is not a Boolean algebra closes through L._extend
MEET_CLOSED = [("MO2xMO2", False), ("example22x2^1", False)]
# BSub of an orthomodular L whose blocks share atoms is read off its blocks
BLOCKS = [("MO2xMO2", True), ("example22x2^1", True)]


@pytest.mark.parametrize("name, boolean_only", PRUNED + MEET_CLOSED + BLOCKS,
                         ids=["sub", "bsub", "sub-MO2xMO2", "sub-example22x2^1",
                              "bsub-MO2xMO2", "bsub-example22x2^1"])
def test_enumeration_closes_at_most_half_as_often_as_legacy(name, boolean_only, monkeypatch):
    L = _lattice(name)
    found = _families(monkeypatch)
    poset, calls = _counting_extend(
        L, lambda: enumerate_subalgebras(L, boolean_only=boolean_only))
    (masks, _, _), legacy_calls = _counting_extend(
        L, lambda: legacy_enumerate_subalgebras(L, boolean_only))
    assert [node.members for node in poset.nodes] == masks
    assert calls[0] == (0, L.n - 1)
    read_off = (name, boolean_only) not in MEET_CLOSED
    # past the bottom, Sub of Boolean summands and BSub of an OML close nothing
    assert (calls == [(0, L.n - 1)]) == read_off
    assert found and all(family.how == (PARTITIONS if read_off else SEARCHED) for family in found)
    assert len(calls) <= len(legacy_calls) // 2
    # past the closure of the bottom, no element later than its complement
    # in L's linear extension is tried
    earlier = earlier_sets(rank_order(L))
    assert all(not earlier[e] >> L.ortho[e] & 1 for e, in calls[1:])


def test_a_horizontal_sum_closes_once_per_summand(monkeypatch):
    # past the bottom, Sub(hsum(example22,example22)) makes just the
    # closures of two searches of Sub(example22); one search over the whole
    # sum closes mixed sets.  Sub(hsum(2^4,2^4)) is two families of
    # Sub(2^4), read off partitions with no closure past the bottom
    found = _families(monkeypatch)
    for summand in (catalog("example22"), boolean_algebra(4)):
        L = horizontal_sum([summand, summand])
        found.clear()
        _, calls = _counting_extend(L, lambda: sub(L))
        twice = [len(family.as_found) for family in found]
        _, one = _counting_extend(summand, lambda: sub(summand))
        assert twice == [len(found[-1].as_found)] * 2
        assert calls[0] == (0, L.n - 1) and one[0] == (0, summand.n - 1)
        assert len(calls) - 1 == 2 * (len(one) - 1)
        assert (len(calls) > 1) == (summand.n == 12)


@pytest.mark.parametrize("name", OMLS + ["MO10", "MO2xMO2", "example22x2^1",
                                         "hsum(example22,2^3,MO2)"])
def test_sub_splits_atoms_exactly_in_the_summands_that_commute(name, monkeypatch):
    # a summand is Boolean when all its elements commute; on an OML that is
    # when it has 2^k elements, 0 and 1 counted, k its atoms.  Sub reads
    # such a summand's nodes off the partitions of its atoms, and closes
    # every other summand on its own with L._extend.  BSub reads all its
    # nodes off the blocks in one call, of all the atoms, and closes
    # nothing past the bottom
    found = _families(monkeypatch)
    base = _lattice(name)
    for L in (base, *(_inner_relabeling(base, seed) for seed in SEEDS)):
        commuting = legacy_commuting(L)
        summands = legacy_summands(L)
        found.clear()
        _, calls = _counting_extend(L, lambda: bsub(L))
        [family] = found
        assert family.how == PARTITIONS and family.elements == mask_of(L.atoms())
        assert calls == [(0, L.n - 1)]
        found.clear()
        _, calls = _counting_extend(L, lambda: sub(L))
        closed = mask_of(e for e, *_ in calls[1:])
        # one family per summand, each reading its own elements only
        parts = [next(p for p in summands if family.elements & p) for family in found]
        assert sorted(parts) == summands
        for family, part in zip(found, parts):
            assert not family.elements & ~part
            boolean = all(part & ~commuting[e] == 0 for e in bits(part))
            atoms = len(set(bits(part)) & set(L.atoms()))
            assert boolean == (len(list(bits(part))) + 2 == 2 ** atoms)
            assert (family.how == PARTITIONS) == boolean
            assert bool(closed & part) != boolean


def _index_and_rank_searches(L, boolean_only):
    """The sorted nodes close_by_one finds with the meet closure over index
    order and over L's linear extension."""
    commuting = legacy_commuting(L) if boolean_only else None
    bottom = L.closure_mask(0)
    out = []
    for order in (list(range(L.n)), rank_order(L)):
        earlier = earlier_sets(order)

        def extend(s, members, e):
            if boolean_only and s & ~commuting[e]:
                return None
            return L._extend(s, members, (e,), earlier[e])

        candidates = [e for e in order if not earlier[e] >> L.ortho[e] & 1]
        out.append(sorted(close_by_one(candidates, bottom, list(bits(bottom)), extend, 10**6)))
    return out


@pytest.mark.parametrize("name", CATALOG)
def test_close_by_one_over_index_and_rank_order_finds_the_same_nodes(name):
    base = _lattice(name)
    for L in (base, *(_inner_relabeling(base, seed) for seed in SEEDS)):
        for boolean_only in (False, True) if L.is_orthomodular else (False,):
            by_index, by_rank = _index_and_rank_searches(L, boolean_only)
            assert by_index == by_rank
            poset = enumerate_subalgebras(L, boolean_only=boolean_only)
            assert by_rank == [node.members for node in poset.nodes]


@pytest.mark.parametrize("name, boolean_only", PRUNED, ids=["sub", "bsub"])
def test_witnesses_alone_halve_the_closures(name, boolean_only):
    # every element a candidate, so only the witnesses can skip a closure
    L = _lattice(name)
    commuting = legacy_commuting(L) if boolean_only else None
    calls = {}

    def extend(s, members, e):
        calls[key] += 1
        if boolean_only and s & ~commuting[e]:
            return None
        child = L._extend(s, members, (e,), (1 << e) - 1)
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
