"""Frame construction and rebuilding lattices from bare posets."""

import pytest

from omlkit import (
    AbstractPoset,
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
