"""Lifting subalgebra-poset isomorphisms to lattice isomorphisms.

A poset isomorphism between the Boolean-subalgebra posets of two
orthomodular lattices is realized by element isomorphisms, read through
the atom frame: it maps each atom's node {0, p, p', 1} to a node holding
the atom p goes to, a finite orthomodular lattice is atomistic, so the
atoms fix every other element, and each four-element block leaves an
independent two-way choice.  The full subalgebra lattices have the same
nodes {0, e, e', 1} for atoms, so one lift (``_lift_through_atoms``)
serves both; BSub adds only its refusals on maximal nodes.

Each lift is certified once, by the images of its nodes: the glued
isomorphism f of L onto M must map every node of the source poset onto
the node the node map names (``_realization_test``).  f preserves and
reflects inclusion, so the certificate proves the node map, tested up
front only as a bijection (``_node_bijection``), an order isomorphism.
The node order is checked whole (``check_order_iso``) only when a lift is
refused: before any refusal that follows the bijection test is raised, so
a node map that is no order isomorphism is refused as one, whatever
refused it first, and the refusals come as they did when the order was
checked first.  Boolean nodes are recognized order-theoretically too
(``boolean_nodes``), in any poset, with no lattice at hand; no lift needs
them.
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
    MalformedInput,
    NoLeastElement,
    NotAMorphism,
    NotAnIso,
    NotBoolean,
    OmlkitError,
    Unsupported,
)
from .lattice_core import (
    FiniteOrtholattice,
    Morphism,
    ORTHOMODULAR,
    _columns,
    _Record,
    _induced,
    bits,
    morphism,
)
from .subalgebra_posets import (
    AbstractPoset,
    SubalgebraPoset,
    _node_bijection,
    _partition_table,
    check_order_iso,
    enumerate_subalgebras,
    inclusion_rows,
    poset_isomorphic,
)

MAX_FOUR_BLOCK_CHOICES = 6


def induced_node_map(psi: Morphism, source_poset: SubalgebraPoset,
                     target_poset: SubalgebraPoset) -> tuple[int, ...]:
    """The node map x -> psi[x] a lattice isomorphism induces on subalgebra
    posets, the images read as the certificate reads them (``_node_images``)."""
    masks = source_poset.masks
    psi.source._checked_mask(max(masks))  # a set of another lattice, as apply_mask refuses it
    return tuple(map(target_poset.node_index,
                     _node_images(psi.mapping, masks, psi.source.n, psi.target.n)))


def _node_images(mapping: Sequence[int], masks: Sequence[int], n: int, m: int) -> list[int]:
    """The image of each element set in ``masks`` under ``mapping``, a map
    of an n-element lattice into an m-element one, by one spelled
    transposition each way (``_columns``): the masks turn into the sets of
    masks holding each element, which are ORed in at the element's image,
    and those turn back into masks."""
    placed = [0] * m
    for v, col in zip(mapping, _columns(masks, n)):
        placed[v] |= col
    return _columns(placed, len(masks))


def _realization_test(f: Morphism, phi: Sequence[int], P: SubalgebraPoset,
                      Q: SubalgebraPoset) -> bool:
    """Whether f[y] is the node phi(y) of Q for every node y of P, the
    certificate of a lift: the images of all the nodes at once
    (``_node_images``), looked up in Q's index.

    With f an isomorphism of L onto M, and P and Q families of
    subalgebras of L and M ordered by inclusion, it proves the bijection
    phi an order isomorphism: f preserves and reflects inclusion, so y <= z
    in P exactly when f[y] <= f[z], that is phi(y) <= phi(z) in Q.  For an
    order isomorphism phi it says no more than phi's values at the nodes
    {0, e, e', 1} of the elements e, when P and Q hold all of those: a node
    z holds e exactly when it lies above e's node, so phi(z) holds f(e)
    exactly when z holds e once phi maps e's node to f(e)'s.
    """
    images = _node_images(f.mapping, P.masks, P.owner.n, Q.owner.n)
    return tuple(map(Q._index.get, images)) == tuple(phi)


def lift_bsub_iso(L: FiniteOrtholattice, M: FiniteOrtholattice, phi,
                  bsub_l: Optional[SubalgebraPoset] = None,
                  bsub_m: Optional[SubalgebraPoset] = None,
                  canonical_only: bool = False) -> list[Morphism]:
    """Lift a BSub(L) -> BSub(M) poset isomorphism to lattice isomorphisms.

    Every returned morphism f satisfies f[y] = phi(y) for all nodes y.  With
    k four-element blocks the list has 2^k entries (one per combination of
    atom-pair matchings, the lowest-to-lowest choice first); with none it
    has exactly one.  ``canonical_only`` keeps just the first combination.
    The full list is refused above 6 four-element blocks.  Posets handed
    in must be BSub of L and of M, their ``owner``; a poset of another
    lattice raises MalformedInput (``_check_owners``).

    The lift is ``_lift_through_atoms``, which certifies it by the images
    of its nodes.  Refusals come in this order: the flavor, the owners,
    the bijection test of phi (``_node_bijection``), then the maximal nodes
    (``_refuse_maximal_nodes``) and the lift's own.  Those after the
    bijection test are raised only once ``check_order_iso`` has passed, so
    a phi that is no order isomorphism raises its NotAnIso, as when the
    node order was checked first.
    """
    if L.flavor != ORTHOMODULAR or M.flavor != ORTHOMODULAR:
        raise NotAnIso("lifting is defined between orthomodular lattices")
    if bsub_l is None:
        bsub_l = enumerate_subalgebras(L, boolean_only=True)
    if bsub_m is None:
        bsub_m = enumerate_subalgebras(M, boolean_only=True)
    _check_owners(L, M, bsub_l, bsub_m)
    phi = _node_bijection(phi, bsub_l, bsub_m)
    try:
        _refuse_maximal_nodes(L, M, phi, bsub_l, bsub_m)
        return _lift_through_atoms(L, M, phi, bsub_l, bsub_m, canonical_only)
    except OmlkitError:
        check_order_iso(phi, bsub_l, bsub_m)
        raise


def _check_owners(L: FiniteOrtholattice, M: FiniteOrtholattice, P, Q) -> None:
    """Refuse, with MalformedInput, a source poset that is not a family of
    subalgebras of L, or a target poset not one of M: the lift reads their
    nodes as element sets of L and M."""
    if getattr(P, "owner", None) is not L:
        raise MalformedInput("source poset belongs to another lattice")
    if getattr(Q, "owner", None) is not M:
        raise MalformedInput("target poset belongs to another lattice")


def _refuse_maximal_nodes(L: FiniteOrtholattice, M: FiniteOrtholattice, phi: Sequence[int],
                          P: SubalgebraPoset, Q: SubalgebraPoset) -> None:
    """BSub's refusals, where no lift realizes the node map: a maximal node
    of more than four elements that is not Boolean (``is_boolean``, on
    either side) raises NotBoolean; a four-element one mapped to a larger
    one raises BlockMismatch, and one that is not itself a block of L
    raises GlueConflict, once every maximal node has been read.  Each is
    raised for an order isomorphism phi alone (see ``lift_bsub_iso``),
    which maps the maximal nodes onto the maximal nodes.  Past these
    refusals every node is Boolean, so a node {0, p, p', 1} with p and p'
    both atoms, a block, is maximal, and the four-element blocks the lift
    reads are the four-element maximal nodes."""
    top = L.n - 1
    overlaps = []
    for x in P.maximal_elements():
        xmask = P.masks[x]
        ymask = Q.masks[phi[x]]
        size = xmask.bit_count()
        if size == 4:
            if ymask.bit_count() != 4:
                raise BlockMismatch("four-element block mapped to a larger block")
            # a closed four-element node is {0, p, p', 1}, a block exactly
            # when p and p' are atoms (see _lift_through_atoms)
            if xmask & ~(1 | 1 << top) & ~L._atoms:
                overlaps.append(xmask)
        elif size > 4 and not (L.is_boolean(xmask) and M.is_boolean(ymask)):
            raise NotBoolean("operation needs a Boolean algebra")
    if overlaps:
        p, q = bits(overlaps[0] & ~(1 | 1 << top))
        raise GlueConflict(f"four-element block {{0,{p},{q},{top}}} overlaps a larger block")


def _lift_through_atoms(L: FiniteOrtholattice, M: FiniteOrtholattice,
                        phi: Sequence[int], P: SubalgebraPoset, Q: SubalgebraPoset,
                        canonical_only: bool) -> list[Morphism]:
    """The lifts of phi: P -> Q, a bijection between families of
    subalgebras of the OMLs L and M, BSub or Sub or part of one, read
    through the atom frame (``_glue``) and certified by the images of the
    nodes (``_realization_test``), which proves phi an order isomorphism.

    The lowest-to-lowest map f that ``_glue`` returns is the one map
    checked; the other lifts are f after swaps of the atom pairs of the
    four-element blocks, each block taken in the poset's node order.  A
    swap is an automorphism of L that fixes every subalgebra (see
    ``_glue``), so each is an isomorphism realizing phi as f does, and
    these are all the lifts.  A map the certificate refuses raises
    GlueConflict.
    """
    f, four_blocks = _glue(L, M, phi, P, Q, canonical_only)
    if not _realization_test(f, phi, P, Q):
        raise GlueConflict("glued map does not realize the node map")
    if canonical_only:
        return [f]
    out = []
    for combo in itertools.product((False, True), repeat=len(four_blocks)):
        mapping = list(f.mapping)
        for (_, p), swap in zip(four_blocks, combo):
            if swap:
                q = L.ortho[p]
                mapping[p], mapping[q] = mapping[q], mapping[p]
        out.append(Morphism(L, M, tuple(mapping), f.kind))
    return out


def _glue(L: FiniteOrtholattice, M: FiniteOrtholattice, phi: Sequence[int],
          P: SubalgebraPoset, Q: SubalgebraPoset,
          canonical_only: bool) -> tuple[Morphism, list[tuple[int, int]]]:
    """The lowest-to-lowest isomorphism f: L -> M that phi's values at the
    atoms' nodes fix, checked by one ``morphism`` call, and the
    four-element blocks of L in P as (node, lower atom) pairs in node
    order.

    A lift f maps the node {0, e, e', 1} of each element e to phi's image
    {0, f(e), f(e)', 1}.  For an atom p of L, f(p) is an atom of M.  Unless
    p' is an atom too, neither is f(p)' = f(p'), so the image holds exactly
    one atom of M, f(p).  A finite OML is atomistic, each element the
    join of the atoms below it, so an isomorphism is fixed by its atoms:
    f(e) is the element of M whose atoms are the images of e's.  That is
    one dict read per element, keyed by ``down[x] & _atoms``.

    {0, p, p', 1} with p and p' both atoms is a four-element block of L:
    everything below or above p commutes with p, and if p and p' are atoms
    and coatoms and b commutes with p, then b = (b ^ p) v (b ^ p') is 0, p,
    p' or 1.  Swapping p and p' is then an automorphism of L that fixes
    every subalgebra.  So each four-element block node maps lowest to
    lowest here, and the lifts are f after the swaps: at most 2^k maps.

    Refusals: above 6 four-element blocks the full list raises Unsupported;
    a four-element block mapped to a larger node raises BlockMismatch; an
    atom's node whose image does not hold exactly one atom of M raises
    Inconsistent.  An element left without an image, because its atoms'
    nodes are missing or their images' atoms are no element's, raises
    GlueConflict, as does a map ``morphism`` refuses or that is no
    isomorphism.
    """
    top, ortho = L.n - 1, L.ortho
    atoms_l, atoms_m = L._atoms, M._atoms
    nodes = {p: P._index.get(1 | 1 << p | 1 << ortho[p] | 1 << top) for p in bits(atoms_l)}
    four_blocks = sorted((x, p) for p, x in nodes.items()
                         if x is not None and p < ortho[p] and atoms_l >> ortho[p] & 1)
    if not canonical_only and len(four_blocks) > MAX_FOUR_BLOCK_CHOICES:
        raise Unsupported(
            f"{len(four_blocks)} four-element blocks; request the canonical lift")
    global_map = [-1] * L.n
    global_map[0], global_map[top] = 0, M.n - 1
    for x, p in four_blocks:
        ymask = Q.masks[phi[x]]
        if ymask.bit_count() != 4:
            raise BlockMismatch("four-element block mapped to a larger block")
        global_map[p], global_map[ortho[p]] = bits(ymask & ~(1 | 1 << M.n - 1))

    # images[e] collects the images of the atoms below e, and the elements
    # above an atom whose node is missing are left unassigned
    images, unassigned = [0] * L.n, 0
    for p, x in nodes.items():
        if x is None:
            unassigned |= L.up[p]
            continue
        if global_map[p] == -1:
            image = Q.masks[phi[x]] & atoms_m
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
    return f, four_blocks


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

    The same lift as ``lift_bsub_iso``'s, ``_lift_through_atoms``, read
    on Sub(L) and Sub(M) themselves: the nodes {0, e, e', 1} are the atoms
    of Sub(L) as of BSub(L), so phi maps them onto those of Sub(M), and the
    lift reads phi there alone.  Its certificate maps every node, Boolean
    or not.  No Boolean node is recognized and no BSub enumerated.  Posets
    handed in must be Sub of L and of M, or part of one, their ``owner``.
    Refusals come in this order: the bijection test of phi
    (``_node_bijection``), the flavor, the owners (MalformedInput for a
    poset of another lattice), then the lift's own.  Those after the
    bijection test are raised only once ``check_order_iso`` has passed,
    so a phi that is no order isomorphism raises its NotAnIso, as when the
    node order was checked first.
    """
    if sub_l is None:
        sub_l = enumerate_subalgebras(L)
    if sub_m is None:
        sub_m = enumerate_subalgebras(M)
    phi = _node_bijection(phi, sub_l, sub_m)
    try:
        if L.flavor != ORTHOMODULAR or M.flavor != ORTHOMODULAR:
            raise NotAnIso("lifting is defined between orthomodular lattices")
        _check_owners(L, M, sub_l, sub_m)
        return _lift_through_atoms(L, M, phi, sub_l, sub_m, canonical_only)
    except OmlkitError:
        check_order_iso(phi, sub_l, sub_m)
        raise


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
