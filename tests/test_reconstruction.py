"""Frame construction and rebuilding lattices from bare posets.

The rebuilt lattice is built unchecked from the intersections of the
frame's perp rows, so it must be the lattice the validating constructor
builds from the closed sets that the earlier searches found
(``legacy_orthoclosed``, ``subset_scan_orthoclosed``), and the atom
classification and the frame must be those of the pair-by-pair readers
they replaced (``legacy_classify_atoms``, ``legacy_build_frame``).
"""

import random
from collections import Counter

import pytest
from legacy_oracles import (
    legacy_build_frame,
    legacy_classify_atoms,
    legacy_orthoclosed,
    subset_scan_orthoclosed,
)

from omlkit import (
    ORTHOLATTICE,
    ORTHOMODULAR,
    AbstractPoset,
    FiniteOrtholattice,
    FrameCap,
    MalformedInput,
    NoLeastElement,
    OrthoFrame,
    boolean_algebra,
    bsub,
    build_frame,
    catalog,
    classify_atoms,
    find_isomorphism,
    mo,
    orthoclosed_lattice,
    reconstruct,
)

ROUND_TRIP = ["2^2", "2^3", "2^4", "MO2", "MO3", "MO4",
              "MO2x2", "example22", "hsum(2^3,2^3)"]


def test_classify_atoms_two_block_example():
    L = catalog("example22")
    p = bsub(L)
    u, v = classify_atoms(p)
    assert set(u) == set(p.atoms())
    assert v == ()
    # cross-check: an atom node {0,t,t',1} qualifies iff t or t' is an atom of L
    lattice_atoms = set(L.atoms())
    for x in p.atoms():
        t, to = [e for e in p.nodes[x].elements if e not in (0, L.n - 1)]
        assert (t in lattice_atoms or to in lattice_atoms) == (x in u or x in v)


def test_classify_atoms_mo2():
    p = bsub(mo(2))
    u, v = classify_atoms(p)
    assert u == ()
    assert set(v) == set(p.atoms())


def test_classify_atoms_crossing_pairs_fail_the_height_condition():
    # in 2^4 the atom nodes for rank-2 pairs meet another atom in a height-3 join
    B = boolean_algebra(4)
    p = bsub(B)
    u, v = classify_atoms(p)
    assert v == ()
    assert len(u) == 4
    for x in u:
        t, to = [e for e in p.nodes[x].elements if e not in (0, 15)]
        assert min(bin(t).count("1"), bin(to).count("1")) == 1


def test_classify_atoms_one_point_and_no_bottom():
    assert classify_atoms(AbstractPoset((1,))) == ((), ())
    with pytest.raises(NoLeastElement):
        classify_atoms(AbstractPoset((0b01, 0b10)))


def test_build_frame_mo2():
    p = bsub(mo(2))
    frame = build_frame(p, *classify_atoms(p))
    assert frame.size == 4
    assert frame.edges() == [(0, 1), (2, 3)]
    assert frame.labels == ("v1.1", "v1.2", "v2.1", "v2.2")


def test_build_frame_single_block():
    p = bsub(boolean_algebra(2))
    frame = build_frame(p, *classify_atoms(p))
    assert frame.size == 2 and frame.edges() == [(0, 1)]


def test_build_frame_two_block_example():
    p = bsub(catalog("example22"))
    u, v = classify_atoms(p)
    frame = build_frame(p, u, v)
    assert frame.size == 5
    # two triangles sharing the point of the common atom node
    degrees = sorted(row.bit_count() for row in frame.perp)
    assert degrees == [2, 2, 2, 2, 4]
    assert len(frame.edges()) == 6


def test_frame_validation():
    with pytest.raises(MalformedInput):
        OrthoFrame(2, (0b10, 0b00), ("a", "b"))      # asymmetric
    with pytest.raises(MalformedInput):
        OrthoFrame(1, (0b1,), ("a",))                # self-orthogonal


@pytest.mark.parametrize("size, perp, message", [
    (2, (2, "x"), "perp row 1 is not an integer bit set, got 'x'"),
    (2, (2.0, 1), "perp row 0 is not an integer bit set, got 2.0"),
    (2, (True, 1), "perp row 0 is not an integer bit set, got True"),
    (2, (2, None), "perp row 1 is not an integer bit set, got None"),
    (2.0, (2, 1), "frame size must be a non-negative integer, got 2.0"),
    (-1, (), "frame size must be a non-negative integer, got -1"),
    ("2", (2, 1), "frame size must be a non-negative integer, got '2'"),
    (True, (0,), "frame size must be a non-negative integer, got True"),
])
def test_frame_refuses_rows_and_sizes_of_the_wrong_type(size, perp, message):
    labels = tuple(f"p{i}" for i in range(len(perp)))
    with pytest.raises(MalformedInput) as caught:
        OrthoFrame(size, perp, labels)
    assert str(caught.value) == message


@pytest.mark.parametrize("size, perp, labels, message", [
    (2, (2,), ("a", "b"), "frame rows and labels must match the point count"),
    (2, (2, 1), ("a",), "frame rows and labels must match the point count"),
    (2, (2, 5), ("a", "b"), "perp row mentions unknown points"),
    (2, (-1, 1), ("a", "b"), "perp row mentions unknown points"),
    (2, (3, 1), ("a", "b"), "point 0 is orthogonal to itself"),
    (3, (2, 0, 1), ("a", "b", "c"), "orthogonality is not symmetric"),
])
def test_frame_keeps_its_messages(size, perp, labels, message):
    with pytest.raises(MalformedInput) as caught:
        OrthoFrame(size, perp, labels)
    assert str(caught.value) == message


def test_orthoclosed_lattice_examples():
    p = bsub(mo(2))
    frame = build_frame(p, *classify_atoms(p))
    out = orthoclosed_lattice(frame)
    assert out.n == 6
    assert find_isomorphism(out, mo(2)) is not None

    q = bsub(catalog("example22"))
    frame = build_frame(q, *classify_atoms(q))
    out = orthoclosed_lattice(frame)
    assert out.n == 12
    assert find_isomorphism(out, catalog("example22")) is not None


def _frame(size, perp):
    return OrthoFrame(size, tuple(perp), tuple(f"p{i}" for i in range(size)))


def test_orthoclosed_lattice_trivial_and_cap():
    with pytest.raises(MalformedInput):
        orthoclosed_lattice(OrthoFrame(0, (), ()))
    # no orthogonality: only the empty set and the full point set are closed
    two = orthoclosed_lattice(_frame(21, (0,) * 21))
    assert two.up == (0b11, 0b10) and two.ortho == (1, 0)
    # every pair orthogonal: all 128 subsets are closed, past the 64-element cap
    complete = _frame(7, [0b1111111 & ~(1 << i) for i in range(7)])
    with pytest.raises(FrameCap, match=r"more than 64 orthoclosed sets \(stopped at 65, 7 points\)"):
        orthoclosed_lattice(complete)
    with pytest.raises(FrameCap, match=r"63 points; at most 62"):
        orthoclosed_lattice(_frame(63, (0,) * 63))


def test_orthoclosed_output_is_canonical():
    p = bsub(catalog("MO3"))
    frame = build_frame(p, *classify_atoms(p))
    out = orthoclosed_lattice(frame)
    # bottom is the empty set, top the full point set, masks ascending
    assert out.n == 8
    assert out.atoms() == (1, 2, 3, 4, 5, 6)


@pytest.mark.parametrize("name", ROUND_TRIP)
def test_reconstruct_round_trip(name):
    L = catalog(name)
    rebuilt = reconstruct(bsub(L).as_abstract())
    assert rebuilt.n == L.n
    assert find_isomorphism(rebuilt, L) is not None


@pytest.mark.parametrize("name,points", [("2^6", 6), ("MO31", 62)])
def test_reconstruct_round_trip_at_the_caps(name, points):
    # both rebuild 64 orthoclosed sets, the element cap, and MO31's frame
    # has 62 points, the frame cap: a cap tested with >= would refuse them
    L = catalog(name)
    P = bsub(L).as_abstract()
    assert build_frame(P, *classify_atoms(P)).size == points
    rebuilt = reconstruct(P)
    assert rebuilt.n == L.n == 64
    assert find_isomorphism(rebuilt, L) is not None


def test_reconstruct_one_point_poset():
    out = reconstruct(AbstractPoset((1,)))
    assert out.n == 2


def test_reconstruct_is_relabeling_invariant():
    L = catalog("example22")
    p = bsub(L).as_abstract()
    out1 = reconstruct(p)
    out2 = reconstruct(p.relabel([3, 0, 5, 7, 2, 6, 1, 4]))
    assert find_isomorphism(out1, out2) is not None


def test_reconstruct_rejects_non_bsub_image():
    # bottom + a 5-cycle of atoms + one join point per cycle edge: the frame
    # is a pentagon, whose orthoclosed sets are not orthomodular
    rows = [1 << i for i in range(11)]
    rows[0] = (1 << 11) - 1
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    for k, (x, y) in enumerate(edges):
        rows[1 + x] |= 1 << (6 + k)
        rows[1 + y] |= 1 << (6 + k)
    pentagon = AbstractPoset(rows)
    with pytest.raises(MalformedInput):
        reconstruct(pentagon)


def test_reconstruct_needs_bottom():
    with pytest.raises(NoLeastElement):
        reconstruct(AbstractPoset((0b01, 0b10)))


# -- the orthoclosed sets as intersections of perp rows -----------------------

DENSITIES = (0.0, 0.05, 0.15, 0.4, 0.8, 1.0)


def _random_frame(size, density, seed):
    rng = random.Random(seed)
    perp = [0] * size
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < density:
                perp[i] |= 1 << j
                perp[j] |= 1 << i
    return _frame(size, perp)


def _seeded_frame(size, density):
    return _random_frame(size, density, seed=size * 1000 + int(density * 100))


def _loop_frame(blocks, atoms):
    """The atom orthogonality frame of ``blocks`` blocks of ``atoms`` atoms
    each in a cycle, each block sharing one atom with the next: block i
    holds the atoms (atoms - 1) * i to (atoms - 1) * (i + 1), mod the
    point count, and two atoms are orthogonal when a block holds both."""
    size = (atoms - 1) * blocks
    perp = [0] * size
    for i in range(blocks):
        block = [((atoms - 1) * i + t) % size for t in range(atoms)]
        held = sum(1 << a for a in block)
        for a in block:
            perp[a] |= held ^ 1 << a
    return _frame(size, perp)


def _assert_built_as_validated(frame):
    """orthoclosed_lattice(frame) is the lattice the validating constructor
    builds from the closed sets the Close-by-One search found (and, on a
    small frame, the subset scan), or the same FrameCap."""
    legacy = legacy_orthoclosed(frame)
    capped = isinstance(legacy, list)
    if frame.size <= 12:
        scanned = subset_scan_orthoclosed(frame)
        assert len(scanned[0]) > 64 if capped else scanned == legacy
    if capped:
        assert len(legacy) == 65
        with pytest.raises(FrameCap, match=rf"\(stopped at 65, {frame.size} points\)$"):
            orthoclosed_lattice(frame)
        return None
    closed, up, ortho = legacy
    out = orthoclosed_lattice(frame, name="rebuilt")
    validated = FiniteOrtholattice(up, ortho, "rebuilt")
    assert (out.n, out.up, out.down, out.ortho, out.flavor, out.name) == (
        validated.n, validated.up, validated.down, validated.ortho, validated.flavor,
        validated.name)
    assert type(out.up) is type(out.down) is type(out.ortho) is tuple
    return out


@pytest.mark.parametrize("size", range(1, 41))
def test_orthoclosed_lattice_is_the_validated_lattice_on_random_frames(size):
    for density in DENSITIES:
        _assert_built_as_validated(_seeded_frame(size, density))


def test_the_random_frames_reach_both_outcomes():
    # lattices of more than the two bounds, and frames past the cap
    outcomes = Counter()
    for size in range(1, 41):
        for density in DENSITIES:
            legacy = legacy_orthoclosed(_seeded_frame(size, density))
            outcomes["capped" if isinstance(legacy, list) else len(legacy[0]) > 2] += 1
    assert outcomes[True] >= 40 and outcomes["capped"] >= 40, outcomes


@pytest.mark.parametrize("blocks, atoms, elements, flavor", [
    (3, 3, 14, ORTHOLATTICE), (4, 3, 20, ORTHOLATTICE), (5, 3, 22, ORTHOMODULAR),
    (6, 3, 26, ORTHOMODULAR), (7, 3, 30, ORTHOMODULAR), (5, 4, 62, ORTHOMODULAR)])
def test_orthoclosed_lattice_is_the_validated_lattice_on_loops(blocks, atoms, elements, flavor):
    out = _assert_built_as_validated(_loop_frame(blocks, atoms))
    assert (out.n, out.flavor) == (elements, flavor)


def test_a_complete_frame_of_62_points_stops_at_the_cap():
    # every subset is closed: the family doubles with each point, and the
    # cap stops it at the seventh, 128 sets, long before 2^62
    universe = (1 << 62) - 1
    complete = _frame(62, [universe ^ 1 << i for i in range(62)])
    with pytest.raises(FrameCap) as caught:
        orthoclosed_lattice(complete)
    assert str(caught.value) == "frame has more than 64 orthoclosed sets (stopped at 65, 62 points)"


def test_a_family_of_exactly_64_sets_builds():
    # every subset of 6 pairwise orthogonal points is closed: 2^6
    complete = _frame(6, [0b111111 ^ 1 << i for i in range(6)])
    out = _assert_built_as_validated(complete)
    B = boolean_algebra(6)
    assert (out.n, out.up, out.down, out.ortho, out.flavor) == (64, B.up, B.down, B.ortho,
                                                                 ORTHOMODULAR)


# -- the atoms and the frame read off up rows ---------------------------------

READ_OFF = ROUND_TRIP + ["2^5", "2^6", "MO31", "hsum(2^3,2^3,2^3,2^2,2^2,2^2)", "benzene"]


def _assert_reads_as_legacy(P):
    if P.bottom() is None:
        with pytest.raises(NoLeastElement):
            classify_atoms(P)
        return
    split = classify_atoms(P)
    assert split == legacy_classify_atoms(P)
    assert build_frame(P, *split) == legacy_build_frame(P, *split)


@pytest.mark.parametrize("name", READ_OFF)
def test_atoms_and_frame_match_the_pair_readers_on_catalog_bsubs(name):
    P = bsub(catalog(name)).as_abstract()
    rng = random.Random(name)
    for Q in [P] + [P.relabel(rng.sample(range(P.size), P.size)) for _ in range(3)]:
        _assert_reads_as_legacy(Q)


def _random_poset(size, density, rng):
    """A random order on 0..size-1 with 0 its least element: each i < j
    below j with probability ``density``, closed transitively."""
    up = [1 << i for i in range(size)]
    for i in reversed(range(size)):
        for j in range(i + 1, size):
            if not up[i] >> j & 1 and rng.random() < density:
                up[i] |= up[j]
    up[0] = (1 << size) - 1
    return AbstractPoset(up)


def test_atoms_and_frame_match_the_pair_readers_on_random_posets():
    rng = random.Random(40)
    for _ in range(300):
        P = _random_poset(rng.randint(1, 14), rng.choice((0.05, 0.15, 0.3, 0.6)), rng)
        _assert_reads_as_legacy(P.relabel(rng.sample(range(P.size), P.size)))
