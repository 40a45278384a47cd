"""Lifting subalgebra-poset isomorphisms to lattice isomorphisms.

A poset isomorphism between the Boolean-subalgebra posets of two
orthomodular lattices is realized by element isomorphisms, read through
the atom frame: it maps each atom's node {0, p, p', 1} to a node holding
the atom p goes to, a finite orthomodular lattice is atomistic, so the
atoms fix every other element, and each four-element block leaves an
independent two-way choice.  The same works from the full subalgebra
lattices once the Boolean nodes are recognized order-theoretically.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from typing import Optional, Sequence

from .errors import (
    BlockMismatch,
    GlueConflict,
    Inconsistent,
    NoLeastElement,
    NotAMorphism,
    NotAnIso,
    NotBoolean,
    RestrictionMismatch,
    Unsupported,
)
from .lattice_core import (
    FiniteOrtholattice,
    Morphism,
    ORTHOMODULAR,
    _Record,
    _induced,
    bits,
    morphism,
)
from .subalgebra_posets import (
    AbstractPoset,
    SubalgebraPoset,
    _partition_table,
    check_order_iso,
    enumerate_subalgebras,
    inclusion_rows,
    poset_isomorphic,
)

MAX_FOUR_BLOCK_CHOICES = 6


def induced_node_map(psi: Morphism, source_poset: SubalgebraPoset,
                     target_poset: SubalgebraPoset) -> tuple[int, ...]:
    """The node map x -> psi[x] a lattice isomorphism induces on subalgebra posets."""
    return tuple(target_poset.node_index(psi.apply_mask(m)) for m in source_poset.masks)


def _realization_test(phi: Sequence[int], P: SubalgebraPoset, Q: SubalgebraPoset):
    """A test of f[y] = phi(y) for every node y of P, for bijections f.

    As phi is a bijection too, that holds exactly when phi maps the nodes
    containing e onto those containing f(e), for every element e.  Those
    are the up rows of the nodes {0, e, e', 1} and {0, f(e), f(e)', 1}, and
    phi is an order isomorphism, so it must map the one node to the other.
    Hand-built posets without these nodes are checked node by node.
    """
    def element_nodes(R: SubalgebraPoset) -> list[Optional[int]]:
        top = 1 << (R.owner.n - 1)
        return [R._index.get(1 | 1 << e | 1 << o | top) for e, o in enumerate(R.owner.ortho)]

    x, y = element_nodes(P), element_nodes(Q)
    if None in x or None in y:
        return lambda f: all(f.apply_mask(m) == Q.masks[phi[i]] for i, m in enumerate(P.masks))
    return lambda f: all(phi[x[e]] == y[v] for e, v in enumerate(f.mapping))


def lift_bsub_iso(L: FiniteOrtholattice, M: FiniteOrtholattice, phi,
                  bsub_l: Optional[SubalgebraPoset] = None,
                  bsub_m: Optional[SubalgebraPoset] = None,
                  canonical_only: bool = False) -> list[Morphism]:
    """Lift a BSub(L) -> BSub(M) poset isomorphism to lattice isomorphisms.

    Every returned morphism f satisfies f[y] = phi(y) for all nodes y.  With
    k four-element blocks the list has 2^k entries (one per combination of
    atom-pair matchings, the lowest-to-lowest choice first); with none it
    has exactly one.  ``canonical_only`` keeps just the first combination.
    The full list is refused above 6 four-element blocks.

    The lift is read through the atom frame.  phi is an order isomorphism,
    so it maps the atoms of BSub(L), the nodes {0, e, e', 1}, onto those of
    BSub(M).  For an atom p of L a lift f maps p's node {0, p, p', 1} onto
    phi's image {0, f(p), f(p)', 1}, and f(p) is an atom of M.  Unless the
    node is a four-element block, p' is no atom (a block {0, p, p', 1} is
    an atom-coatom pair, see below), so neither is f(p)': the image holds
    exactly one atom of M, which is f(p).  A finite OML is atomistic, each
    element the join of the atoms below it, so an isomorphism is fixed by
    its atoms: f(e) is the element of M whose atoms are the images of e's.
    A four-element block leaves both matchings open.  So the lifts are at
    most the 2^k maps built here, and the closing checks say they are
    lifts: one ``morphism`` call and one realization test on the first,
    the swaps below for the rest.

    Refusals, for node maps no lift realizes: a maximal node of more than
    four elements that lies in no block of its lattice (``blocks``) is not
    Boolean and raises NotBoolean; a four-element one mapped to a larger
    one raises BlockMismatch, and one that is not itself a block of L
    raises GlueConflict.  An atom's node whose image does not hold exactly
    one atom of M raises Inconsistent.  An element left without an image,
    because its atoms' nodes are missing or their images' atoms are no
    element's, raises GlueConflict, as does a map the closing checks
    refuse.  The maximal nodes need no check of their own: phi is an
    order isomorphism, so it maps BSub(L)'s maximal nodes onto BSub(M)'s.
    """
    if L.flavor != ORTHOMODULAR or M.flavor != ORTHOMODULAR:
        raise NotAnIso("lifting is defined between orthomodular lattices")
    if bsub_l is None:
        bsub_l = enumerate_subalgebras(L, boolean_only=True)
    if bsub_m is None:
        bsub_m = enumerate_subalgebras(M, boolean_only=True)
    phi = check_order_iso(phi, bsub_l, bsub_m)

    # A set of elements lies in a block exactly when they pairwise commute:
    # a block is Boolean, and pairwise commuting elements of an OML generate
    # a Boolean subalgebra (Kalmbach, Orthomodular Lattices, 1983), which
    # lies in a maximal one.  So, by Foulis-Holland, a node is Boolean
    # exactly when it lies in a block.
    blocks_l, blocks_m = ([b.members for b in X.blocks()] for X in (L, M))
    top = L.n - 1
    global_map = [-1] * L.n
    global_map[0], global_map[top] = 0, M.n - 1
    four_blocks = []
    for x in bsub_l.maximal_elements():
        xmask = bsub_l.masks[x]
        ymask = bsub_m.masks[phi[x]]
        size = xmask.bit_count()
        if size == 4:
            if ymask.bit_count() != 4:
                raise BlockMismatch("four-element block mapped to a larger block")
            # a closed four-element node is {0, p, p', 1}
            p, q = bits(xmask & ~(1 | 1 << top))
            global_map[p], global_map[q] = bits(ymask & ~(1 | 1 << M.n - 1))
            four_blocks.append((p, q))
        elif size > 4:
            for mask, blocks in ((xmask, blocks_l), (ymask, blocks_m)):
                if all(mask & ~block for block in blocks):
                    raise NotBoolean("operation needs a Boolean algebra")

    # {0, p, p', 1} is a block of an orthomodular L exactly when p is an atom
    # and a coatom, and exactly when the elements that commute with p are its
    # own.  Everything below or above p commutes with p, so a block, being
    # maximal, has nothing strictly between p and 0 or 1.  If p and p' are
    # atoms and coatoms and b commutes with p, then b = (b ^ p) v (b ^ p')
    # is 0, p, p' or 1.  And when only its own elements commute with p, no
    # Boolean subalgebra holds more, so it is a block.  For such p, swapping
    # p and p' is an automorphism of L that fixes every subalgebra.  So once
    # the node is a block, the lowest-to-lowest map f is the one map to
    # check, and the other lifts are f after the swaps.
    for p, q in four_blocks:
        if (1 << p | 1 << q) & ~L._atoms:
            raise GlueConflict(
                f"four-element block {{0,{p},{q},{top}}} overlaps a larger block")
    if not canonical_only and len(four_blocks) > MAX_FOUR_BLOCK_CHOICES:
        raise Unsupported(
            f"{len(four_blocks)} four-element blocks; request the canonical lift")

    # images[e] collects the images of the atoms below e, and the elements
    # above an atom whose node is missing are left unassigned
    atoms_l, atoms_m = L._atoms, M._atoms
    images, unassigned = [0] * L.n, 0
    for p in bits(atoms_l):
        if global_map[p] == -1:
            node = bsub_l._index.get(1 | 1 << p | 1 << L.ortho[p] | 1 << top)
            if node is None:
                unassigned |= L.up[p]
                continue
            image = bsub_m.masks[phi[node]] & atoms_m
            if image.bit_count() != 1:
                raise Inconsistent("image of a principal dual node is not dual")
            global_map[p] = image.bit_length() - 1
        for e in bits(L.up[p]):
            images[e] |= 1 << global_map[p]
    by_atoms = {row & atoms_m: y for y, row in enumerate(M.down)}
    for e in bits(L.universe & ~atoms_l & ~unassigned & ~(1 | 1 << top)):
        global_map[e] = by_atoms.get(images[e], -1)
    if -1 in global_map:
        raise GlueConflict(
            f"blockwise lifts leave element {global_map.index(-1)} unassigned")
    try:
        f = morphism(L, M, global_map)
    except NotAMorphism as exc:
        raise GlueConflict(f"glued map is not a homomorphism: {exc}") from exc
    if f.kind != "iso":
        raise GlueConflict("glued map is not an isomorphism")
    if not _realization_test(phi, bsub_l, bsub_m)(f):
        raise GlueConflict("glued map does not realize the node map")
    if canonical_only:
        return [f]
    out = []
    for combo in itertools.product((False, True), repeat=len(four_blocks)):
        mapping = list(f.mapping)
        for (p, q), swap in zip(four_blocks, combo):
            if swap:
                mapping[p], mapping[q] = mapping[q], mapping[p]
        out.append(Morphism(L, M, tuple(mapping), f.kind))
    return out


def lift_boolean_iso(B: FiniteOrtholattice, C: FiniteOrtholattice,
                     phi: Sequence[int],
                     sub_b: Optional[SubalgebraPoset] = None,
                     sub_c: Optional[SubalgebraPoset] = None) -> list[Morphism]:
    """Lift a Sub(B) -> Sub(C) order isomorphism to element isomorphisms.

    ``phi`` maps node indices of the canonical Sub(B) enumeration to node
    indices of Sub(C).  Returns every isomorphism f: B -> C with
    f[x] = phi(x) for all nodes x: exactly two when |B| = 4 (the two ways
    to match the atom pairs), exactly one otherwise.  Raises NotBoolean
    first when B or C is not a Boolean algebra.

    This is the one-block case of ``lift_bsub_iso``: for a Boolean B,
    BSub(B) = Sub(B) with the same node order, and B is its only block.
    """
    if not (B.is_boolean_algebra and C.is_boolean_algebra):
        raise NotBoolean("operation needs a Boolean algebra")
    return lift_bsub_iso(B, C, phi, sub_b, sub_c)


@lru_cache(maxsize=None)
def _bell(k: int) -> int:
    """Bell(k), the number of partitions of k points and of nodes of
    Sub(2^k): B(k) = sum of C(k-1, i) B(i) over i < k, choosing the block
    of the last point.  B(k) >= 2^(k-1): each point after the first joins
    the first point's block or stays alone."""
    return 1 if k == 0 else sum(comb(k - 1, i) * _bell(i) for i in range(k))


def _boolean_rank(sub_l: AbstractPoset, x: int) -> Optional[int]:
    """The k for which the interval below x, which has a least element,
    could be Sub(2^k), else None.

    Sub(2^k) has Bell(k) nodes and its top at height k-1.  Heights in
    sub_l are heights in the interval, since the interval is a down-set
    with a least element, so k is height(x) + 1 and the node count is the
    one cheap rejection: ``_sachs_certificate`` decides every interval of
    Bell(k) nodes.  An interval of fewer than 2^(k-1) nodes is refused
    before Bell(k) is computed, so a tall chain costs no big number.
    """
    k, size = sub_l.heights[x] + 1, sub_l.down[x].bit_count()
    return k if size >> k - 1 and size == _bell(k) else None


def _sachs_certificate(sub_l: AbstractPoset, x: int, k: int) -> bool:
    """Whether the interval below x, which has Bell(k) nodes, is isomorphic
    to Sub(2^k), the dual of the partition lattice on k points (Sachs), read
    off sub_l's heights and up/down rows with no search.

    There a partition lies below another exactly when every pair of points
    it splits the other splits too, so Sub(2^k) is the set of
    ``_partition_table(k)``'s keys, the pairs each partition splits,
    ordered by inclusion.  The certificate names a key for each node: the
    coatoms are the nodes at height k-2; the k points are the nodes at
    height 1 with C(k-1,2) coatoms above them; each coatom misses exactly
    two points j < i, no two the same pair, and names key bit
    i(i-1)/2 + j; a node's key is the pairs no coatom above it names.  It
    accepts exactly when the node keys are the table's keys and y <= z
    exactly when key(y) is a subset of key(z).

    Acceptance makes the node -> key map a bijection onto the partitions
    that preserves and reflects the order: an isomorphism onto Sub(2^k).
    Conversely, Sub(2^k) is graded, a partition into b blocks at height
    k-b, so its nodes at height k-2 are its coatoms, the partitions
    merging one pair {i, j}.  A two-block partition {A | B} lies below the
    C(|A|,2) + C(|B|,2) coatoms merging a pair on one side, which is
    C(k-1,2) exactly for the k partitions {i | rest}, the points (for k = 3
    every atom is one).  The coatom for {i, j} lies above every point but i
    and j, and a node lies below it exactly when its partition puts i and j
    together, so its key is the pairs its partition splits, with the
    points numbered as found.  The table's keys are the same for every
    numbering, so Sub(2^k) passes.
    """
    if k <= 2:
        return True  # one node, or a two-node chain: nothing else fits
    up, down, heights = sub_l.up, sub_l.down, sub_l.heights
    dx = down[x]
    coat = sum(1 << c for c in bits(dx) if heights[c] == k - 2)
    points = [y for y in bits(dx)
              if heights[y] == 1 and (up[y] & coat).bit_count() == (k - 1) * (k - 2) // 2]
    if len(points) != k:
        return False
    name = {}
    for c in bits(coat):
        missed = [i for i, p in enumerate(points) if not down[c] >> p & 1]
        if len(missed) != 2:
            return False
        j, i = missed
        name[c] = 1 << i * (i - 1) // 2 + j
    if len(set(name.values())) != len(name):
        return False
    pairs = (1 << k * (k - 1) // 2) - 1
    keys = [pairs ^ sum(name[c] for c in bits(up[y] & coat)) for y in bits(dx)]
    return (sorted(keys) == sorted(key for _, key in _partition_table(k))
            and _induced(up, dx) == inclusion_rows(keys)[0])


def recognize_boolean_node(sub_l: AbstractPoset, x: int) -> bool:
    """Order-theoretic Boolean recognition inside a full subalgebra lattice.

    The interval below a Boolean node with 2^k elements is the subalgebra
    lattice of 2^k, dual to the partition lattice on k points (Sachs); k
    is one more than the node's height.  Nodes whose interval does not
    have Bell(k) nodes are rejected by ``_boolean_rank``; the rest get
    ``_sachs_certificate``, which matches the interval with the
    enumerator's partition table through its heights and up/down rows.
    Together they decide: there is no search, no cover is read and no
    interval or partition lattice is built.  An interval with no least
    element raises NoLeastElement first.
    """
    dx = sub_l.down[x]
    if not any(sub_l.up[y] & dx == dx for y in bits(dx)):
        raise NoLeastElement(f"the interval below node {x} has no least element")
    k = _boolean_rank(sub_l, x)
    return k is not None and _sachs_certificate(sub_l, x, k)


def boolean_nodes(sub_l: AbstractPoset) -> list[int]:
    """The nodes ``recognize_boolean_node`` accepts, ascending; for a
    poset with no least element, NoLeastElement before any node is read.

    Acceptance is closed downward.  Below an accepted x the poset is the
    dual of the partition lattice on k points, and the interval below a
    node y <= x is dual to the partitions coarser than y's partition,
    which form the partition lattice on its blocks: so y is accepted too.
    (In Sub(L): every subalgebra of a Boolean algebra is Boolean.)  The
    walk reads that twice.  Bottom-up, in the linear extension ``_ranked``,
    a node passes the Bell-count filter of ``_boolean_rank`` when it and
    every node below it do, reading heights and popcounts alone, since
    every interval has the poset's least element.  Then top-down, a
    passing node that no accepted node lies above gets one
    ``_sachs_certificate``, and accepting it accepts its whole down row.
    So on Sub(2^k) one certificate, the top's, decides every node.
    """
    if sub_l.bottom() is None:
        raise NoLeastElement("poset has no least element")
    down = sub_l.down
    failed = 0
    passing = []
    for x in sub_l._ranked:
        if down[x] & failed or _boolean_rank(sub_l, x) is None:
            failed |= 1 << x
        else:
            passing.append(x)
    accepted = 0
    for x in reversed(passing):
        if not accepted >> x & 1 and _sachs_certificate(sub_l, x, sub_l.heights[x] + 1):
            accepted |= down[x]
    return list(bits(accepted))


def lift_sub_iso(L: FiniteOrtholattice, M: FiniteOrtholattice, phi,
                 sub_l: Optional[SubalgebraPoset] = None,
                 sub_m: Optional[SubalgebraPoset] = None,
                 canonical_only: bool = False) -> list[Morphism]:
    """Lift a Sub(L) -> Sub(M) lattice isomorphism to lattice isomorphisms.

    Boolean nodes are recognized order-theoretically on the source with
    ``boolean_nodes``, which reads only the order.  So on the target it
    would accept the images of those nodes under the checked order
    isomorphism phi, which are taken instead.  Each side's
    set is cross-checked against its enumerated BSub; a mismatch raises
    RestrictionMismatch.  Then the restriction is lifted.  Every returned
    morphism realizes phi on all subalgebras, Boolean or not.
    """
    if sub_l is None:
        sub_l = enumerate_subalgebras(L)
    if sub_m is None:
        sub_m = enumerate_subalgebras(M)
    phi = check_order_iso(phi, sub_l, sub_m)
    bool_l = boolean_nodes(sub_l)
    bool_m = sorted(phi[i] for i in bool_l)

    bsub_l = enumerate_subalgebras(L, boolean_only=True)
    bsub_m = enumerate_subalgebras(M, boolean_only=True)
    for side, sub_x, bool_x, bsub_x in (("source", sub_l, bool_l, bsub_l),
                                        ("target", sub_m, bool_m, bsub_m)):
        if tuple(sub_x.masks[i] for i in bool_x) != bsub_x.masks:
            raise RestrictionMismatch(
                f"recognized Boolean nodes of the {side} differ from its enumerated BSub")
    restricted = tuple(bsub_m.node_index(sub_m.masks[phi[i]]) for i in bool_l)
    # the Boolean nodes are BSub's in the same order, so the lift's test on
    # the element nodes {0, e, e', 1} is also _realization_test(phi, sub_l, sub_m)
    return lift_bsub_iso(L, M, restricted, bsub_l, bsub_m,
                         canonical_only=canonical_only)


class DeterminationReport(_Record):
    """Outcome of comparing two lattices through their Boolean-subalgebra posets."""

    __slots__ = ("posets_isomorphic", "lattices_isomorphic", "both_orthomodular",
                 "lifted_count", "consistent", "note")

    def __init__(self, posets_isomorphic: bool, lattices_isomorphic: bool,
                 both_orthomodular: bool, lifted_count: Optional[int],
                 consistent: bool, note: str):
        super().__init__(posets_isomorphic, lattices_isomorphic, both_orthomodular,
                         lifted_count, consistent, note)

    def lines(self) -> list[str]:
        yn = {True: "yes", False: "no"}
        out = [
            f"bsub posets isomorphic: {yn[self.posets_isomorphic]}",
            f"lattices isomorphic: {yn[self.lattices_isomorphic]}",
            f"both orthomodular: {yn[self.both_orthomodular]}",
        ]
        if self.lifted_count is not None:
            out.append(f"lifted isomorphisms: {self.lifted_count}")
        out.append(f"consistent with determination: {yn[self.consistent]}")
        if self.note:
            out.append(f"note: {self.note}")
        return out


def verify_determination(L: FiniteOrtholattice, M: FiniteOrtholattice) -> DeterminationReport:
    """Check that the Boolean-subalgebra poset pins the lattice down.

    For orthomodular inputs the poset comparison and the brute-force lattice
    comparison must agree, and a poset witness must lift to a genuine
    isomorphism.  Non-orthomodular inputs are reported as outside the
    hypothesis (the hexagon shows the posets alone cannot decide those).
    """
    from .search import find_isomorphism

    bsub_l = enumerate_subalgebras(L, boolean_only=True)
    bsub_m = enumerate_subalgebras(M, boolean_only=True)
    witness = poset_isomorphic(bsub_l, bsub_m)
    lattice_iso = find_isomorphism(L, M)
    both = L.flavor == ORTHOMODULAR and M.flavor == ORTHOMODULAR
    lifted = None
    if witness is not None and both:
        lifted = len(lift_bsub_iso(L, M, witness, bsub_l, bsub_m))
    if both:
        consistent = (witness is not None) == (lattice_iso is not None)
        if witness is not None:
            consistent = consistent and lifted > 0
        note = ""
    else:
        consistent = True
        bad = [x.name or "input" for x in (L, M) if x.flavor != ORTHOMODULAR]
        note = "outside OML hypothesis: " + ", ".join(bad) + " not orthomodular"
    return DeterminationReport(
        posets_isomorphic=witness is not None,
        lattices_isomorphic=lattice_iso is not None,
        both_orthomodular=both,
        lifted_count=lifted,
        consistent=consistent,
        note=note,
    )
