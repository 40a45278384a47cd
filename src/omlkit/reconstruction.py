"""Rebuilding an orthomodular lattice from its Boolean-subalgebra poset.

The input is a bare poset promised to be (isomorphic to) the inclusion
order on the Boolean subalgebras of some finite orthomodular lattice.  The
atoms of the poset that correspond to atom pairs of the lattice are
recognized by a pure order condition, read off the poset's up rows, an
orthogonality frame is built on them, and the lattice comes back as the
family of orthoclosed subsets of that frame.  Those are the intersections
of the points' perps, found with no search, and they form an ortholattice
under inclusion whatever the frame, as long as it is symmetric and
irreflexive, which ``OrthoFrame`` checks (see ``orthoclosed_lattice``).
So the rebuilt lattice is not validated again; only the orthomodular law
is tested.  The promise itself is not checked; a rebuilt lattice that is
not orthomodular raises MalformedInput instead.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from operator import and_
from typing import Optional

from .errors import FrameCap, MalformedInput, NoLeastElement
from .lattice_core import (MAX_ELEMENTS, ORTHOMODULAR, FiniteOrtholattice, _cover_row, _is_int,
                           _Record, bits)
from .subalgebra_posets import AbstractPoset, inclusion_rows

MAX_FRAME_POINTS = MAX_ELEMENTS - 2


class OrthoFrame(_Record):
    """A point set with a symmetric irreflexive orthogonality relation.

    ``perp[i]`` is the bit set of points orthogonal to point i; ``labels``
    records where each point came from (handy when the frame is derived
    from poset atoms).
    """

    __slots__ = ("size", "perp", "labels")

    def __init__(self, size: int, perp: tuple[int, ...], labels: tuple[str, ...]):
        """Refuse, with MalformedInput, a size that is not a non-negative
        integer, rows that are not one integer bit set per point, and a
        relation that is not symmetric and irreflexive: the lattice of
        orthoclosed sets is built unchecked on these checks."""
        super().__init__(size, perp, labels)
        if not (_is_int(size) and size >= 0):
            raise MalformedInput(f"frame size must be a non-negative integer, got {size!r}")
        if len(self.perp) != self.size or len(self.labels) != self.size:
            raise MalformedInput("frame rows and labels must match the point count")
        universe = (1 << self.size) - 1
        for i, row in enumerate(self.perp):
            if not _is_int(row):
                raise MalformedInput(f"perp row {i} is not an integer bit set, got {row!r}")
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
    the rest go to U.  The atoms are the covers of the bottom, one
    ``_cover_row``, and x v y is the point whose up row is
    up[x] & up[y], if there is one.
    """
    bottom = P.bottom()
    if bottom is None:
        raise NoLeastElement("classification needs a least element")
    up, above, heights = P.up, P._above, P.heights
    atoms = list(bits(_cover_row(up, bottom)))
    atom_rows = [up[y] for y in atoms]
    u, v = [], []
    for x in atoms:
        joins = map(above.get, map(and_, repeat(up[x]), atom_rows))
        if all(j is None or heights[j] <= 2 for j in joins):
            (v if up[x] == 1 << x else u).append(x)
    return tuple(u), tuple(v)


def build_frame(P: AbstractPoset, u: tuple[int, ...], v: tuple[int, ...]) -> OrthoFrame:
    """Points: one per U-atom, two per V-atom.

    Two U-points are orthogonal when their atoms have a join in P, read as
    in ``classify_atoms``; the two points of a V-atom are orthogonal to each
    other and nothing else.
    """
    labels = [f"u{x}" for x in u]
    for x in v:
        labels.extend((f"v{x}.1", f"v{x}.2"))
    size = len(labels)
    perp = [0] * size
    up, above = P.up, P._above
    rows = [up[x] for x in u]
    for i, row in enumerate(rows):
        joins = map(above.get, map(and_, repeat(row), rows[i + 1:]))
        for k, j in enumerate(joins, i + 1):
            if j is not None:
                perp[i] |= 1 << k
                perp[k] |= 1 << i
    for k in range(len(v)):
        i = len(u) + 2 * k
        perp[i] |= 1 << (i + 1)
        perp[i + 1] |= 1 << i
    return OrthoFrame(size, tuple(perp), tuple(labels))


def orthoclosed_lattice(frame: OrthoFrame, name: Optional[str] = None) -> FiniteOrtholattice:
    """The ortholattice of subsets S with S = S-perp-perp, ordered by inclusion.

    The closed sets are the intersections of the rows ``perp[p]``, the
    empty intersection being the whole point set: S-perp is such an
    intersection, and S is the intersection of ``perp[p]`` over the p in
    S-perp; conversely an intersection over a set Q is Q-perp, and
    Q-perp-perp-perp = Q-perp.  So the family is built from the whole set
    by adding, point by point, the AND of the point's row with every set
    found so far, and the work grows with the number of closed sets rather
    than with 2^points.  One point at most doubles the family, so no step
    holds more than twice the cap.  A frame built from a genuine
    Boolean-subalgebra poset has one point per atom of the lattice, and a
    lattice of at most 64 elements has at most 62 atoms, so frames above 62
    points, or with more than 64 orthoclosed sets, raise FrameCap.

    The orthocomplement of a closed set is its perp, and the result is
    built as a derivation (``_trusted`` rows, with the complement set by
    ``_with_complement``), which tests only the orthomodular law for its
    flavor.  The closed sets of a symmetric, irreflexive relation, which
    ``OrthoFrame`` checks, form an ortholattice under inclusion (Birkhoff's
    polarities), with S -> S-perp as its complement:
    - distinct sets under inclusion are a partial order; the sets sorted
      ascending put the empty set, the perp of everything by
      irreflexivity, first and the whole set last, the bounds;
    - the intersection of two closed sets is closed and is their meet, so
      every meet exists, and with a top every join too;
    - A within B gives B-perp within A-perp, and S lies within S-perp-perp
      by symmetry, so S -> S-perp reverses the order and, as S = S-perp-perp
      on closed sets, is an involution, a permutation of the family;
    - S and S-perp share no point, which would be orthogonal to itself, so
      their meet is the empty set, and their join, the complement of the
      meet of their complements S-perp and S, is the whole set.
    So the validating constructor would accept these rows and this
    complement, and its tests are skipped.
    """
    if frame.size > MAX_FRAME_POINTS:
        raise FrameCap(f"frame has {frame.size} points; at most {MAX_FRAME_POINTS} "
                       f"fit a lattice of {MAX_ELEMENTS} elements")
    universe = (1 << frame.size) - 1
    perp = frame.perp
    closed = {universe}
    for row in perp:
        closed |= {row & s for s in closed}
        if len(closed) > MAX_ELEMENTS:
            raise FrameCap(f"frame has more than {MAX_ELEMENTS} orthoclosed sets "
                           f"(stopped at {MAX_ELEMENTS + 1}, {frame.size} points)")
    if len(closed) < 2:
        raise MalformedInput("orthoclosed family is trivial; not a lattice")
    closed = sorted(closed)
    index = {s: i for i, s in enumerate(closed)}
    ortho = tuple([index[reduce(and_, map(perp.__getitem__, bits(s)), universe)] for s in closed])
    # the closed sets of a symmetric, irreflexive frame are an ortholattice
    return FiniteOrtholattice._trusted(*inclusion_rows(closed))._with_complement(ortho, name)


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
