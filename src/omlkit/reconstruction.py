"""Rebuilding an orthomodular lattice from its Boolean-subalgebra poset.

The input is a bare poset promised to be (isomorphic to) the inclusion
order on the Boolean subalgebras of some finite orthomodular lattice.  The
atoms of the poset that correspond to atom pairs of the lattice are
recognized by a pure order condition, an orthogonality frame is built on
them, and the lattice comes back as the family of orthoclosed subsets of
that frame.  The promise itself is not checked; a failed output validation
raises MalformedInput instead.
"""

from __future__ import annotations

from typing import Optional

from .errors import FrameCap, MalformedInput, NoLeastElement
from .lattice_core import MAX_ELEMENTS, FiniteOrtholattice, ORTHOMODULAR, _Record, bits
from .subalgebra_posets import AbstractPoset, close_by_one, inclusion_rows

MAX_FRAME_POINTS = MAX_ELEMENTS - 2


class OrthoFrame(_Record):
    """A point set with a symmetric irreflexive orthogonality relation.

    ``perp[i]`` is the bit set of points orthogonal to point i; ``labels``
    records where each point came from (handy when the frame is derived
    from poset atoms).
    """

    __slots__ = ("size", "perp", "labels")

    def __init__(self, size: int, perp: tuple[int, ...], labels: tuple[str, ...]):
        super().__init__(size, perp, labels)
        if len(self.perp) != self.size or len(self.labels) != self.size:
            raise MalformedInput("frame rows and labels must match the point count")
        universe = (1 << self.size) - 1
        for i, row in enumerate(self.perp):
            if row & ~universe:
                raise MalformedInput("perp row mentions unknown points")
            if row >> i & 1:
                raise MalformedInput(f"point {i} is orthogonal to itself")
        for i in range(self.size):
            for j in bits(self.perp[i]):
                if not self.perp[j] >> i & 1:
                    raise MalformedInput("orthogonality is not symmetric")

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.size) for j in bits(self.perp[i]) if i < j]


def classify_atoms(P: AbstractPoset) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split the poset atoms into the frame-relevant families (U, V).

    An atom x qualifies when for every atom y, the join x v y either fails
    to exist or has height at most 2.  Qualifying atoms that are maximal go
    to V (they stand for blocks with a single atom pair and get doubled),
    the rest go to U.
    """
    if P.bottom() is None:
        raise NoLeastElement("classification needs a least element")
    atoms = P.atoms()
    maximal = set(P.maximal_elements())
    u, v = [], []
    for x in atoms:
        joins = (P._join(x, y) for y in atoms)
        if all(j is None or P.heights[j] <= 2 for j in joins):
            (v if x in maximal else u).append(x)
    return tuple(u), tuple(v)


def build_frame(P: AbstractPoset, u: tuple[int, ...], v: tuple[int, ...]) -> OrthoFrame:
    """Points: one per U-atom, two per V-atom.

    Two U-points are orthogonal when their atoms have a join in P; the two
    points of a V-atom are orthogonal to each other and nothing else.
    """
    labels = [f"u{x}" for x in u]
    for x in v:
        labels.extend((f"v{x}.1", f"v{x}.2"))
    size = len(labels)
    perp = [0] * size
    for i, x in enumerate(u):
        for k in range(i + 1, len(u)):
            if P._join(x, u[k]) is not None:
                perp[i] |= 1 << k
                perp[k] |= 1 << i
    for k in range(len(v)):
        i = len(u) + 2 * k
        perp[i] |= 1 << (i + 1)
        perp[i + 1] |= 1 << i
    return OrthoFrame(size, tuple(perp), tuple(labels))


def orthoclosed_lattice(frame: OrthoFrame, name: Optional[str] = None) -> FiniteOrtholattice:
    """The ortholattice of subsets S with S = S-perp-perp, ordered by inclusion.

    The closed sets are listed by Close-by-One over the perp-perp closure,
    using perp(S + e) = perp(S) & perp[e], so the work grows with the number
    of closed sets rather than with 2^points.  A frame built from a genuine
    Boolean-subalgebra poset has one point per atom of the lattice, and a
    lattice of at most 64 elements has at most 62 atoms, so frames above 62
    points, or with more than 64 orthoclosed sets, raise FrameCap.
    The orthocomplement of a closed set is its perp; the result is
    validated from scratch, which also determines its flavor.
    """
    if frame.size > MAX_FRAME_POINTS:
        raise FrameCap(f"frame has {frame.size} points; at most {MAX_FRAME_POINTS} "
                       f"fit a lattice of {MAX_ELEMENTS} elements")
    universe = (1 << frame.size) - 1
    perp = frame.perp

    def perp_of(s: int) -> int:
        out = universe
        for p in bits(s):
            out &= perp[p]
        return out

    def extend(s: int, s_perp: int, e: int):
        t_perp = s_perp & perp[e]
        t = perp_of(t_perp)
        added_below = t & ~s & (1 << e) - 1
        if added_below:
            return (added_below & -added_below).bit_length() - 1
        return t, t_perp

    bottom = perp_of(universe)
    closed = close_by_one(range(frame.size), bottom, universe, extend, MAX_ELEMENTS)
    if len(closed) > MAX_ELEMENTS:
        raise FrameCap(f"frame has more than {MAX_ELEMENTS} orthoclosed sets "
                       f"(stopped at {len(closed)}, {frame.size} points)")
    closed.sort()
    if len(closed) < 2:
        raise MalformedInput("orthoclosed family is trivial; not a lattice")
    index = {s: i for i, s in enumerate(closed)}
    ortho = [index[perp_of(s)] for s in closed]
    return FiniteOrtholattice(inclusion_rows(closed)[0], ortho, name)


def reconstruct(P: AbstractPoset, name: Optional[str] = None) -> FiniteOrtholattice:
    """Rebuild the orthomodular lattice whose Boolean-subalgebra poset is P.

    One-point posets return the 2-element lattice directly (a single node
    forces the trivial algebra).  Otherwise classify the atoms, build the
    frame, take the orthoclosed sets, and insist the result is orthomodular;
    anything else means P was not a genuine input and raises MalformedInput.
    """
    if P.bottom() is None:
        raise NoLeastElement("reconstruction needs a least element")
    if P.size == 1:
        return FiniteOrtholattice((0b11, 0b10), (1, 0), name)
    u, v = classify_atoms(P)
    frame = build_frame(P, u, v)
    out = orthoclosed_lattice(frame, name)
    if out.flavor != ORTHOMODULAR:
        raise MalformedInput("orthoclosed family is not orthomodular; "
                             "input poset is not a Boolean-subalgebra poset")
    return out
