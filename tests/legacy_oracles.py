"""Earlier algorithms, kept as test oracles for their replacements.

``frontier_subalgebras`` is the breadth-first frontier search that listed
Sub(L) and BSub(L) before Close-by-One: extend every known subalgebra by
each missing element, close from scratch, dedup by bit set.
``subset_scan_orthoclosed`` is the exhaustive 2^points scan for the
orthoclosed sets of a frame.  Both are slow and obviously complete, which
is what an oracle should be.

``legacy_isomorphisms``, ``legacy_poset_isomorphisms`` and
``legacy_enumerate_homs`` are the three hand-written backtracking searches
that one shared search replaced; the new ones must yield the same maps in
the same order.  ``legacy_iso_signatures`` still holds the complement's
cone and cover counts, which the library's signatures dropped, and
``legacy_depth_signatures`` reads depths and lower covers off the order,
where the library reads them off the complement.

``legacy_backtrack`` is the shared search before it owned the bit-set
domains: it tried every member of a signature class (``legacy_candidates``,
one list per class), and its callers kept their own state through
``consistent`` and ``track`` hooks.  ``legacy_forward_order_isos`` is the
order search that ran on it with forward checking in those hooks.
``legacy_vf2_order_isos`` is the one before: a candidate was tested in
constant time against the images of the mapped points above and below it,
as in VF2, so a choice that left some unmapped point no target was found
out only when the search reached that point.  ``legacy_vf2_isomorphisms``
and ``legacy_vf2_poset_isomorphisms`` drive it as ``isomorphisms`` and
``poset_isomorphisms`` did.

``legacy_boolean_nodes`` is the bottom-up walk behind ``boolean_nodes``
before it certified top-down: every node with no rejected node below it
got its own recognizer call, which scanned the interval for a least
element.

``legacy_unique_bound`` found a meet or join by scanning the common lower
(upper) cone for the element whose cone it is; the library now looks the
cone up in a ``{row: element}`` index.  ``legacy_bound_tables`` builds a
lattice's meet and join tables that way, pair by pair in the old order.
The oracles read meets and joins from its tables (``cone_scan_tables``,
kept per order), not from the library that they judge.

``legacy_recognize_boolean_node`` is the Boolean-node recognizer that built
the interval and a fresh partition lattice for every node, with no cheap
invariants in front of the isomorphism search.  ``legacy_certify_boolean_node``
is the one that replaced it: ``legacy_boolean_rank`` read the atom count
off the least element's upper covers, and ``legacy_sachs_certificate``
named the pairs of points by x's lower covers, tested each node's pairs for
an equivalence relation (``legacy_class_row_equivalence``, class rows) and
checked the order node by node.  The library now takes k from the height
and matches the node keys and the order with the enumerator's partition
table, reading no cover.

``legacy_commuting`` tests every pair of elements for commutation, where
the library's commutation rows set the cones of a and a' untested and
tested each pair {b, b'} once for the pair {a, a'}; the library now reads
blocks instead, as a set of elements pairwise commutes exactly when it
lies in a block.  ``rank_order`` is the linear extension the library
searches over.  ``legacy_split_closure_bsub`` is the BSub search of an
orthomodular lattice that the blocks replaced: Close-by-One over that
linear extension, each node kept as its atoms and split by every element
that commutes with it (``legacy_split_closure``), where the library reads
BSub off the set partitions of each block's atoms.  ``legacy_permuted``
renamed each row through ``mask_of`` over ``bits``, where the library reads
the renamed rows off the spelled transpose; ``legacy_check_order_iso``
walked every node for a preserved order before comparing the renamed rows
whole, where the library compares first and walks only to name a fault.

``legacy_close_by_one``, ``legacy_inclusion_rows`` and ``legacy_transpose``
are the enumerator and the inclusion rows before failed closures left
witnesses: every element above the last one added was tried and closed,
and the down rows were a second pass over the up rows.
``legacy_enumerate_subalgebras`` and ``legacy_orthoclosed`` drive them as
``enumerate_subalgebras`` and ``orthoclosed_lattice`` did.

``legacy_is_boolean`` tested a closed set for Boolean-ness with the
pairwise commutation identity and then distributivity on every triple; the
library now stops after the first, which implies the second.
``legacy_covers`` found the covers of a by testing every b above it for an
element strictly between.  The oracles that take Boolean-ness as given call
``legacy_is_boolean``.

``legacy_heights`` found each element's height as one more than the
highest of its lower covers, in ascending order of down-cone size; the
library now reads heights off the down rows alone, level by level.

``legacy_blocks`` is the Bron-Kerbosch clique search (with pivoting) on
the commutation graph that ``FiniteOrtholattice.blocks`` ran before it read
the blocks off BSub(L) as its maximal nodes, and then off the maximal
orthogonal atom sets; each maximal clique was re-checked to be a closed
Boolean subalgebra.

``legacy_lift_bsub_iso`` and ``legacy_lift_boolean_iso`` lift each block of
more than four elements through a standalone copy (``sublattice``), its
own Sub enumeration and a Boolean check, where the library now reads the
principal duals off the ambient rows.  ``legacy_pd_lift`` is the in-place lift of one block that read the p.d.
node of every element but the top and the coatoms, and completed the
coatoms by complements; the library reads the atoms' nodes alone and joins
their images.  ``legacy_preimage_functor`` scans
every source element for every node, and ``legacy_classify_recovery``
counts matches through it.  ``legacy_pinned_classify_recovery`` enumerated
Sub(M) to read which nodes hold each element, and searched only the
homomorphisms sending each a to an element in the same nodes as f(a); the
library now takes those to be f(a) and f(a)' without enumerating Sub(M).

``legacy_summands`` splits the inner elements into horizontal summands as
the connected components of x ~ y (x ^ y != 0 or y = x'), testing every
pair on the meet table, where the library walks the orthogonality graph on
atoms.

``legacy_boolean_algebra``, ``legacy_product`` and ``legacy_horizontal_sum``
build the catalog's rows one element (or one pair of elements) at a time,
where the library shifts whole rows: the Boolean rows by doubling, a
product's row as one shifted copy of the right factor's row per element
above in the left factor, a summand's inner rows as one shifted block.
``legacy_partition_to_subalgebra`` joins every subset of the block joins,
where the library reads them off the joins of every set of atoms.
``legacy_partition_masks`` reads a Boolean summand's subalgebras partition
by partition (``legacy_set_partitions``), folding each block's join and
doubling over the block joins, where the library sums the points of one
partition table's members.  ``legacy_partition_lattice`` orders the
partitions by a ``Partition.refines`` call on every pair, where the library
transposes the pairs each partition keeps together.
``legacy_boolean_keys`` is the partition reader that keyed every node by
the atom pairs its partition splits in each block, C(k,2) + 1 key bits per
block with one for "outside this block", and ``legacy_boolean_family``
transposes those keys into the family's rows; the library now builds the
rows from the covers of each block's partition lattice, with no keys.
``legacy_product_order`` built the rows of Sub of a horizontal sum from
its summands' rows two ways, chosen by two timed cut-offs: a small product
multiplied out and transposed whole, a larger one split into two groups
whose orders were composed; the library takes one product of all the
summands' orders.  ``legacy_is_equivalence``
decides whether a pair set is an equivalence relation's by union-find and
a pair count, where ``legacy_class_row_equivalence`` compares class rows.

``legacy_morphism`` validated a map by scanning every pair a <= b (as
numbers) for meet and then join, after the bounds and the complement; the
library decides a bijection by its renamed ``up`` rows and any other map
by meets alone, and scans the pairs only to name the first fault.

``legacy_classify_atoms`` and ``legacy_build_frame`` read the poset atoms
off every node's covers and each pair's join through ``_join``, one call a
pair; the library reads the atoms off one cover row of the bottom and an
atom's joins by mapping its up row's ANDs through the ``{row: node}``
index.  ``orthoclosed_lattice`` no longer searches: it takes the
intersection closure of the frame's perp rows, and the closed sets must
be those of ``legacy_orthoclosed`` and ``subset_scan_orthoclosed``.

``legacy_finite_ortholattice`` is the lattice constructor that checked
each law pair by pair: the order axioms, every meet and join looked up
pair by pair, order reversal pair by pair and the orthomodular law
b = a v (a' ^ b) on every pair a <= b.  The library tests whole rows,
derives joins through the complement and uses the zero-meet form; it must
give the same tables and flavor, or the same first fault.
"""

import itertools
from functools import lru_cache
from types import SimpleNamespace

from omlkit import sachs_boolean
from omlkit.errors import (
    BadOrthocomplement,
    BlockMismatch,
    FlavorError,
    GlueConflict,
    Inconsistent,
    MalformedInput,
    NoBoundedLattice,
    NoLeastElement,
    NotAMorphism,
    NotAnIso,
    NotAPartialOrder,
    SizeCap,
    Unsupported,
)
from omlkit.functorial import (
    PreimageMap,
    RecoveryKind,
    RecoveryReport,
    _homs,
    _preimage_masks,
    enumerate_homs,
    image_subalgebra,
)
from omlkit.constructions import sublattice
from omlkit.iso_lifting import MAX_FOUR_BLOCK_CHOICES, _bell
from omlkit.lattice_core import (
    EMBEDDING,
    HOM,
    ISO,
    MAX_ELEMENTS,
    ORTHOLATTICE,
    ORTHOMODULAR,
    FiniteOrtholattice,
    Morphism,
    SubalgebraSet,
    _is_int,
    _joins,
    bits,
    mask_of,
    morphism,
)
from omlkit.reconstruction import OrthoFrame
from omlkit.sachs_boolean import _dual_parts, _require_boolean, dual_decomposition, pd_mask
from omlkit.search import _iso_signatures
from omlkit.subalgebra_posets import (
    _partition_table,
    check_order_iso,
    close_by_one,
    enumerate_subalgebras,
    inclusion_rows,
    poset_isomorphic,
)


def _close_from_scratch(L, mask):
    # the closure as it was before it became incremental: re-closed in full
    mask |= 1 | 1 << (L.n - 1)
    members = list(bits(mask))
    (meet, join), ortho = cone_scan_tables(L.up, L.down), L.ortho
    i = 0
    while i < len(members):
        e = members[i]
        i += 1
        o = ortho[e]
        if not mask >> o & 1:
            mask |= 1 << o
            members.append(o)
        me, je = meet[e], join[e]
        for k in range(i):
            m = members[k]
            v = me[m]
            if not mask >> v & 1:
                mask |= 1 << v
                members.append(v)
            v = je[m]
            if not mask >> v & 1:
                mask |= 1 << v
                members.append(v)
    return mask


def legacy_unique_bound(cones, common):
    # the bound, if any, is the x in `common` whose cone is exactly `common`
    for x in bits(common):
        if cones[x] == common:
            return x
    return None


def legacy_bound_tables(up, down):
    """(meet, join) tables of the order, as the lattice constructor scanned
    them; raises NoBoundedLattice naming the first pair without a bound."""
    n = len(up)
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            g = legacy_unique_bound(down, down[a] & down[b])
            if g is None:
                raise NoBoundedLattice(f"elements {a} and {b} have no meet")
            meet[a][b] = meet[b][a] = g
            g = legacy_unique_bound(up, up[a] & up[b])
            if g is None:
                raise NoBoundedLattice(f"elements {a} and {b} have no join")
            join[a][b] = join[b][a] = g
    return meet, join


@lru_cache(maxsize=128)
def cone_scan_tables(up, down):
    """The (meet, join) tables of the lattice order ``up``/``down`` as
    ``legacy_bound_tables`` scans them, kept per order: the oracles read
    meets and joins from here, not from the library that they judge, and
    the frontier search closes thousands of sets of one lattice."""
    return tuple(tuple(map(tuple, table)) for table in legacy_bound_tables(up, down))


def frontier_subalgebras(L, boolean_only=False):
    """(sorted node masks, inclusion up rows) of Sub(L) or BSub(L)."""
    bottom = _close_from_scratch(L, 0)
    seen = {bottom}
    frontier = [bottom]
    while frontier:
        tasks = [s | 1 << e for s in frontier for e in range(L.n) if not s >> e & 1]
        frontier = []
        for t in (_close_from_scratch(L, m) for m in tasks):
            if t in seen:
                continue
            if boolean_only and not legacy_is_boolean(L, t):
                continue
            seen.add(t)
            frontier.append(t)
    masks = sorted(seen)
    rows = []
    for mi in masks:
        row = 0
        for j, mj in enumerate(masks):
            if not mi & ~mj:
                row |= 1 << j
        rows.append(row)
    return masks, tuple(rows)


def legacy_commuting(L):
    """commuting[a] is the bit set of elements b with a = (a ^ b) v (a ^ b')."""
    if L.flavor != ORTHOMODULAR:
        raise FlavorError("commutation is only defined on orthomodular lattices")
    (meet, join), ortho = cone_scan_tables(L.up, L.down), L.ortho
    out = [0] * L.n
    for a in range(L.n):
        for b in range(a, L.n):
            if join[meet[a][b]][meet[a][ortho[b]]] == a:
                out[a] |= 1 << b
                out[b] |= 1 << a
    return tuple(out)


def rank_order(L):
    """L's elements by down-cone size, ties by index: a linear extension."""
    return sorted(range(L.n), key=lambda a: (bin(L.down[a]).count("1"), a))


def earlier_sets(order):
    """earlier[e]: the bit set of the elements before e in ``order``."""
    earlier = [0] * len(order)
    for i, e in enumerate(order):
        earlier[e] = mask_of(order[:i])
    return earlier


def legacy_split_closure(L, s, atoms, e):
    """``close_by_one``'s extension of the Boolean subalgebra s, with atoms
    ``atoms``, by an element e that commutes with all of s.

    By Foulis-Holland each atom a splits into a ^ e and a ^ e', and the
    nonzero parts are the atoms of the closure, whose elements are their
    joins.  A new atom earlier than e in L's linear extension (``_ranked``)
    is returned as the witness as soon as it appears; otherwise the joins
    are formed by doubling (``_joins``).

    Every closure built passes the canonicity test.  A join of old parts
    (unsplit atoms) is in s, so each new element w lies above a new part
    p = a ^ e or a ^ e', and in a linear extension p <= w puts p no later
    than w.  So a new w earlier than e has a new p earlier than e, which
    the parts loop returned before any join was formed.
    """
    earlier = L._earlier[e]
    meet = cone_scan_tables(L.up, L.down)[0]
    meet_e, meet_o = meet[e], meet[L.ortho[e]]
    parts = []
    for a in atoms:
        t, u = meet_e[a], meet_o[a]
        if not (t and u):
            parts.append(a)
        elif earlier >> t & 1:
            return t
        elif earlier >> u & 1:
            return u
        else:
            parts += (t, u)
    return sum(_joins(L, parts)), parts


def legacy_split_closure_bsub(L, cap=100000):
    """The BSub(L) masks of an orthomodular L, unsorted, as the split-closure
    Close-by-One found them over L's linear extension: an element is added
    only if it commutes with every element already present, and a node is
    kept as its atoms (``legacy_split_closure``), the bottom's the top alone."""
    commuting, earlier, ortho = legacy_commuting(L), L._earlier, L.ortho

    def extend(s, atoms, e):
        return None if s & ~commuting[e] else legacy_split_closure(L, s, atoms, e)

    candidates = [e for e in L._ranked if not earlier[e] >> ortho[e] & 1]
    return close_by_one(candidates, L.closure_mask(0), [L.n - 1], extend, cap)


def legacy_summands(L):
    """The horizontal summands of L as masks of inner elements, ascending."""
    inner = range(1, L.n - 1)
    out, left = [], set(inner)
    while left:
        part = {min(left)}
        todo = list(part)
        while todo:
            x = todo.pop()
            for y in inner:
                if y not in part and (L.meet(x, y) != 0 or y == L.ortho[x]):
                    part.add(y)
                    todo.append(y)
        left -= part
        out.append(mask_of(part))
    return sorted(out)


def legacy_permuted(rows, perm):
    """Rows of the same order with element i renamed perm[i]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        out[perm[i]] = mask_of(perm[j] for j in bits(row))
    return out


def legacy_check_order_iso(mapping, source, target):
    """Validate a node map as an order isomorphism; raises NotAnIso."""
    mapping = tuple(mapping)
    if len(mapping) != source.size or not target._is_permutation(mapping):
        raise NotAnIso("node map is not a bijection between the posets")
    renamed = legacy_permuted(source.up, mapping)
    for i, v in enumerate(mapping):
        if renamed[v] & ~target.up[v]:
            j = next(j for j in bits(source.up[i]) if not target.up[v] >> mapping[j] & 1)
            raise NotAnIso(f"node map does not preserve node order at {i} <= {j}")
    if renamed != list(target.up):
        raise NotAnIso("node map does not reflect node order")
    return mapping


def legacy_close_by_one(size, bottom, state, extend, cap):
    found = []
    stack = [(bottom, state, 0)]
    while stack:
        s, state, first = stack.pop()
        found.append(s)
        if len(found) > cap:
            break
        for e in range(first, size):
            if not s >> e & 1:
                child = extend(s, state, e)
                if child is not None:
                    stack.append((*child, e + 1))
    return found


def legacy_inclusion_rows(masks):
    everything = (1 << len(masks)) - 1
    containing = {}
    for i, m in enumerate(masks):
        for e in bits(m):
            containing[e] = containing.get(e, 0) | 1 << i
    rows = []
    for m in masks:
        row = everything
        for e in bits(m):
            row &= containing[e]
        rows.append(row)
    return rows


def legacy_transpose(rows):
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in bits(row):
            out[j] |= 1 << i
    return tuple(out)


def legacy_enumerate_subalgebras(L, boolean_only=False, cap=100000):
    """(sorted node masks, up rows, down rows) of Sub(L) or BSub(L), or the
    unsorted masks found once more than ``cap`` were."""

    def closed(s, members, e):
        # L._extend now returns a witness where it returned None, and it
        # takes the elements before e as a bit set
        child = L._extend(s, members, (e,), (1 << e) - 1)
        return child if isinstance(child, tuple) else None

    if not boolean_only:
        extend = closed
    elif L.is_orthomodular:
        commuting = legacy_commuting(L)

        def extend(s, members, e):
            return None if s & ~commuting[e] else closed(s, members, e)
    else:
        def extend(s, members, e):
            child = closed(s, members, e)
            return None if child is None or not legacy_is_boolean(L, child[0]) else child

    bottom = L.closure_mask(0)
    masks = legacy_close_by_one(L.n, bottom, list(bits(bottom)), extend, cap)
    if len(masks) > cap:
        return masks
    masks.sort()
    up = legacy_inclusion_rows(masks)
    return masks, tuple(up), legacy_transpose(up)


def legacy_orthoclosed(frame, cap=64):
    """(sorted closed sets, up rows, ortho table) of a frame's orthoclosed
    sets, or the unsorted sets found once more than ``cap`` were."""
    universe = (1 << frame.size) - 1

    def perp_of(s):
        out = universe
        for p in bits(s):
            out &= frame.perp[p]
        return out

    def extend(s, s_perp, e):
        t_perp = s_perp & frame.perp[e]
        t = perp_of(t_perp)
        if t & ~s & (1 << e) - 1:
            return None
        return t, t_perp

    closed = legacy_close_by_one(frame.size, perp_of(universe), universe, extend, cap)
    if len(closed) > cap:
        return closed
    closed.sort()
    index = {s: i for i, s in enumerate(closed)}
    return closed, tuple(legacy_inclusion_rows(closed)), tuple(index[perp_of(s)] for s in closed)


def subset_scan_orthoclosed(frame):
    """(sorted closed sets, up rows, ortho table) of a frame's orthoclosed sets."""
    universe = (1 << frame.size) - 1

    def perp_of(s):
        out = universe
        for p in bits(s):
            out &= frame.perp[p]
        return out

    closed = sorted(s for s in range(universe + 1) if perp_of(perp_of(s)) == s)
    index = {s: i for i, s in enumerate(closed)}
    up = []
    for s in closed:
        row = 0
        for j, t in enumerate(closed):
            if not s & ~t:
                row |= 1 << j
        up.append(row)
    ortho = tuple(index[perp_of(s)] for s in closed)
    return closed, tuple(up), ortho


def legacy_classify_atoms(P):
    """(U, V) of a poset's atoms, as ``classify_atoms`` split them."""
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


def legacy_build_frame(P, u, v):
    """The frame ``build_frame`` built on the atoms (U, V)."""
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


def legacy_iso_signatures(L):
    """Order signatures plus depth and the complement's down cone and covers."""
    sig = []
    for a in range(L.n):
        o = L.ortho[a]
        sig.append((
            L.down[a].bit_count(), L.up[a].bit_count(),
            L.heights[a], L.depths[a],
            L.cover_up[a].bit_count(), L.cover_down[a].bit_count(),
            L.down[o].bit_count(), L.cover_up[o].bit_count(),
        ))
    return sig


def legacy_depth_signatures(L):
    """The lattice signatures as the order signatures plus depth, read off
    the transposed cover rows and the walk of depths, as ``_iso_signatures``
    read them before it took both from the complement."""
    return [sig + (depth,) for sig, depth in zip(L._order_signatures(), L.depths)]


def legacy_isomorphisms(L, M):
    """All isomorphisms L -> M, as the old lattice search listed them."""
    n = L.n
    if n != M.n or L.flavor != M.flavor:
        return
    sig_l = legacy_iso_signatures(L)
    sig_m = legacy_iso_signatures(M)
    if sorted(sig_l) != sorted(sig_m):
        return
    candidates = [[b for b in range(n) if sig_m[b] == sig_l[a]] for a in range(n)]
    order = sorted(range(n), key=lambda a: (len(candidates[a]), a))
    mapping = [-1] * n
    used = [False] * n

    def consistent(a, b):
        for c in range(n):
            d = mapping[c]
            if d < 0:
                continue
            if bool(L.up[a] >> c & 1) != bool(M.up[b] >> d & 1):
                return False
            if bool(L.up[c] >> a & 1) != bool(M.up[d] >> b & 1):
                return False
        return True

    def place(a, b):
        if not consistent(a, b):
            return False
        mapping[a] = b
        used[b] = True
        return True

    def unplace(a):
        used[mapping[a]] = False
        mapping[a] = -1

    def search(pos):
        while pos < n and mapping[order[pos]] >= 0:
            pos += 1
        if pos == n:
            yield morphism(L, M, tuple(mapping))
            return
        a = order[pos]
        ao = L.ortho[a]
        for b in candidates[a]:
            if used[b]:
                continue
            if not place(a, b):
                continue
            bo = M.ortho[b]
            forced = False
            if mapping[ao] < 0:
                if not used[bo] and place(ao, bo):
                    forced = True
                else:
                    unplace(a)
                    continue
            elif mapping[ao] != bo:
                unplace(a)
                continue
            yield from search(pos + 1)
            if forced:
                unplace(ao)
            unplace(a)

    yield from search(0)


def legacy_forward_order_isos(src, tgt, sig_src, sig_tgt, partner=None):
    """Bijections between two orders (``up``/``down`` rows) that preserve
    and reflect it and map each element to one with an equal signature.

    Elements with the fewest candidates go first, and each tries its
    candidates ascending.  Yields the live mapping.  The search checks
    forward (Haralick and Elliott, Artif. Intell. 14, 1980): each source
    point x keeps a bit set ``domain[x]`` of targets, at first its
    signature class.  Placing x -> y narrows the domain of every unmapped
    point below x to the targets below y, and of every unmapped point
    above x to those above y (a y comparable to every target narrows
    nothing), and is refused when a point it narrows has no target left
    that is not in use, since then no completion is left.  So y fits x
    when it is in x's domain and not in use, and a complete map preserves
    the order: each comparable pair was narrowed when its first point was
    placed.  The signatures' equal cone sizes give both orders
    as many comparable pairs, so the map, a bijection, reflects the order
    too.  ``consistent`` narrows the domains a placement would leave,
    ``track`` applies them and restores them when the placement is undone,
    and ``legacy_backtrack`` still tries every member of a signature class.
    """
    if sorted(sig_src) != sorted(sig_tgt):
        return iter(())
    n = len(sig_src)
    candidates = legacy_candidates(sig_src, sig_tgt)
    order = sorted(range(n), key=lambda x: (len(candidates[x]), x))
    mapping = [-1] * n
    up_s, down_s, up_t, down_t = src.up, src.down, tgt.up, tgt.down
    # the points of one signature share one candidate list, so one mask
    masks = {id(c): mask_of(c) for c in {id(c): c for c in candidates}.values()}
    domain = [masks[id(c)] for c in candidates]
    everything = (1 << n) - 1
    free, unused = everything, everything   # unmapped points, targets not in use
    narrowed = []   # the domains ``consistent`` computed for its last yes
    trail = []      # per placed point, last placed last: (point, old domains)

    def consistent(x, y):
        nonlocal narrowed
        if not (domain[x] & unused) >> y & 1:
            return False
        left = unused ^ 1 << y
        others = free ^ 1 << x
        narrowed = []
        for cone, row in ((down_s[x] & others, down_t[y]), (up_s[x] & others, up_t[y])):
            if row == everything:
                continue   # a target comparable to all narrows nothing
            while cone:
                low = cone & -cone
                z = low.bit_length() - 1
                cone ^= low
                old = domain[z]
                d = old & row
                if not d & left:
                    return False
                if d != old:
                    narrowed.append((z, d))
        return True

    def track(x, y):
        nonlocal free, unused
        free ^= 1 << x
        unused ^= 1 << y
        if trail and trail[-1][0] == x:
            for z, d in trail.pop()[1]:
                domain[z] = d
            return
        trail.append((x, [(z, domain[z]) for z, _ in narrowed]))
        for z, d in narrowed:
            domain[z] = d

    return legacy_backtrack(order, candidates, consistent, mapping, partner, track=track)


def legacy_candidates(sig_src, sig_tgt):
    """For each source point, the target points with its signature,
    ascending: the targets grouped by signature in one pass."""
    by_sig = {}
    for y, sig in enumerate(sig_tgt):
        by_sig.setdefault(sig, []).append(y)
    return [by_sig.get(sig, []) for sig in sig_src]


def legacy_backtrack(order, candidates, consistent, mapping, partner=None, track=lambda a, b: None):
    """Every completion of ``mapping`` (-1 marks an unmapped element), as
    the shared search found them while its callers kept their own state.

    It takes the next unmapped element a in ``order`` and tries each b of
    ``candidates[a]`` in turn, keeping a -> b when ``consistent(a, b)``
    holds for the assignments made so far.  ``partner = (src, tgt)``
    forces src[a] -> tgt[b] along with a -> b, checked the same way.
    Yields the live ``mapping`` list at each complete assignment.
    ``track(a, b)`` is called right after a -> b is placed and again when
    a is unmapped.  Placements are undone in last-in, first-out order, a
    forced partner before the element that forced it, which ``track`` may
    rely on to restore its state from a stack.
    """
    def place(a, b, placed):
        if not consistent(a, b):
            return False
        mapping[a] = b
        placed.append(a)
        track(a, b)
        if partner is None:
            return True
        ao, bo = partner[0][a], partner[1][b]
        if mapping[ao] < 0:
            return place(ao, bo, placed)
        return mapping[ao] == bo

    def undo(placed):
        while placed:
            a = placed.pop()
            track(a, mapping[a])
            mapping[a] = -1

    def next_free(pos):
        while pos < len(order) and mapping[order[pos]] >= 0:
            pos += 1
        return pos

    pos = next_free(0)
    if pos == len(order):
        yield mapping
        return
    # one frame per element being tried: its position in ``order``, the
    # candidates left, and the elements its current choice has placed
    stack = [(pos, iter(candidates[order[pos]]), [])]
    while stack:
        pos, tries, placed = stack[-1]
        undo(placed)
        for b in tries:
            if place(order[pos], b, placed):
                break
            undo(placed)
        else:
            stack.pop()
            continue
        nxt = next_free(pos + 1)
        if nxt == len(order):
            yield mapping
        else:
            stack.append((nxt, iter(candidates[order[nxt]]), []))


def legacy_vf2_order_isos(src, tgt, sig_src, sig_tgt, partner=None):
    """Order isomorphisms by the shared search with a constant-time
    candidate test: ``image`` is the bit set of the targets in use, and
    ``above[x]`` (``below[x]``) the images of the mapped points above
    (below) x, so y fits x exactly when the mapped points above and below
    y are those images.  Yields the live mapping."""
    if sorted(sig_src) != sorted(sig_tgt):
        return iter(())
    n = len(sig_src)
    candidates = legacy_candidates(sig_src, sig_tgt)
    order = sorted(range(n), key=lambda x: (len(candidates[x]), x))
    mapping = [-1] * n
    up_s, down_s, up_t, down_t = src.up, src.down, tgt.up, tgt.down
    above, below, image = [0] * n, [0] * n, 0

    def consistent(x, y):
        return up_t[y] & image == above[x] and down_t[y] & image == below[x]

    def track(a, b):
        nonlocal image
        bit = 1 << b
        image ^= bit
        for x in bits(down_s[a]):
            above[x] ^= bit
        for x in bits(up_s[a]):
            below[x] ^= bit

    return legacy_backtrack(order, candidates, consistent, mapping, partner, track=track)


def legacy_vf2_isomorphisms(L, M):
    """The mappings of all isomorphisms L -> M, in the VF2 search's order."""
    if L.n != M.n or L.flavor != M.flavor:
        return []
    return [tuple(m) for m in legacy_vf2_order_isos(
        L, M, _iso_signatures(L), _iso_signatures(M), (L.ortho, M.ortho))]


def legacy_vf2_poset_isomorphisms(P, Q):
    """All order isomorphisms P -> Q, in the VF2 search's order."""
    if P.size != Q.size:
        return iter(())
    return (tuple(m) for m in legacy_vf2_order_isos(
        P, Q, P._order_signatures(), Q._order_signatures()))


def _poset_signatures(P):
    return [(
        P.down[x].bit_count(), P.up[x].bit_count(),
        P.heights[x],
        P.cover_up[x].bit_count(), P.cover_down[x].bit_count(),
    ) for x in range(P.size)]


def legacy_poset_isomorphisms(P, Q):
    """All order isomorphisms P -> Q, as the old poset search listed them."""
    n = P.size
    if n != Q.size:
        return
    sig_p = _poset_signatures(P)
    sig_q = _poset_signatures(Q)
    if sorted(sig_p) != sorted(sig_q):
        return
    candidates = [[y for y in range(n) if sig_q[y] == sig_p[x]] for x in range(n)]
    order = sorted(range(n), key=lambda x: (len(candidates[x]), x))
    mapping = [-1] * n
    used = [False] * n

    def search(pos):
        if pos == n:
            yield tuple(mapping)
            return
        x = order[pos]
        for y in candidates[x]:
            if used[y]:
                continue
            ok = True
            for c in range(n):
                d = mapping[c]
                if d < 0:
                    continue
                if bool(P.up[x] >> c & 1) != bool(Q.up[y] >> d & 1) or \
                   bool(P.up[c] >> x & 1) != bool(Q.up[d] >> y & 1):
                    ok = False
                    break
            if not ok:
                continue
            mapping[x] = y
            used[y] = True
            yield from search(pos + 1)
            mapping[x] = -1
            used[y] = False

    yield from search(0)


def legacy_morphism(source, target, mapping):
    """Validate ``mapping`` as an ortholattice homomorphism and classify it.

    Raises NotAMorphism unless 0, 1, complement, meet and join are all
    preserved.  The returned kind is the strongest that applies.
    """
    mapping = tuple(mapping)
    n, m = source.n, target.n
    if len(mapping) != n or not all(_is_int(v) and 0 <= v < m for v in mapping):
        raise NotAMorphism("mapping is not a total map into the target")
    if mapping[0] != 0 or mapping[n - 1] != m - 1:
        raise NotAMorphism("mapping does not preserve the bounds")
    for a in range(n):
        if mapping[source.ortho[a]] != target.ortho[mapping[a]]:
            raise NotAMorphism(f"mapping does not preserve the complement of {a}")
    meet, join = cone_scan_tables(source.up, source.down)
    target_meet, target_join = cone_scan_tables(target.up, target.down)
    for a in range(n):
        for b in range(a, n):
            fa, fb = mapping[a], mapping[b]
            if mapping[meet[a][b]] != target_meet[fa][fb]:
                raise NotAMorphism(f"mapping does not preserve meet({a},{b})")
            if mapping[join[a][b]] != target_join[fa][fb]:
                raise NotAMorphism(f"mapping does not preserve join({a},{b})")
    kind = HOM
    if len(set(mapping)) == n:
        # an injective lattice homomorphism reflects order: f(a) <= f(b)
        # gives f(a ^ b) = f(a), so a ^ b = a; a bijective one is an iso
        kind = ISO if n == m else EMBEDDING
    return Morphism(source, target, mapping, kind)


def legacy_enumerate_homs(L, M):
    """All homomorphisms L -> M sorted by mapping, as the old search found them."""
    n = L.n
    order = sorted(range(n), key=lambda a: (L.down[a].bit_count(), a))
    mapping = [-1] * n
    mapping[0] = 0
    mapping[n - 1] = M.n - 1
    results = []

    def consistent(a, v):
        for c in range(n):
            w = mapping[c]
            if w < 0:
                continue
            if L.up[a] >> c & 1 and not M.up[v] >> w & 1:
                return False
            if L.up[c] >> a & 1 and not M.up[w] >> v & 1:
                return False
            fm = mapping[L.meet(a, c)]
            if fm >= 0 and M.meet(v, w) != fm:
                return False
            fj = mapping[L.join(a, c)]
            if fj >= 0 and M.join(v, w) != fj:
                return False
        return True

    def search(pos):
        while pos < n and mapping[order[pos]] >= 0:
            pos += 1
        if pos == n:
            try:
                results.append(morphism(L, M, tuple(mapping)))
            except NotAMorphism:
                pass
            return
        a = order[pos]
        ao = L.ortho[a]
        for v in range(M.n):
            if not consistent(a, v):
                continue
            vo = M.ortho[v]
            mapping[a] = v
            if mapping[ao] < 0:
                if consistent(ao, vo):
                    mapping[ao] = vo
                    search(pos + 1)
                    mapping[ao] = -1
            elif mapping[ao] == vo:
                search(pos + 1)
            mapping[a] = -1

    search(0)
    results.sort(key=lambda f: f.mapping)
    return results


def legacy_recognize_boolean_node(sub_l, x):
    """Order-theoretic Boolean recognition inside a full subalgebra lattice.

    The interval below a Boolean node is the subalgebra lattice of a Boolean
    algebra, hence dual to a partition lattice; the candidate atom count
    comes from counting interval atoms (a Boolean algebra with 2^k elements
    has 2^(k-1) - 1 atoms in its subalgebra lattice).
    """
    interval, _ = sub_l.interval_below(x)
    bottom = interval.bottom()
    if bottom is None:
        raise NoLeastElement(f"the interval below node {x} has no least element")
    a = len(tuple(bits(interval.cover_up[bottom])))
    if (a + 1) & a:
        return False  # atom count + 1 must be a power of two
    k = (a + 1).bit_length()
    lattice, _ = sachs_boolean.partition_lattice(k)
    return poset_isomorphic(interval, lattice.dual()) is not None


def legacy_boolean_nodes(sub_l, recognize=None):
    """The nodes ``recognize`` (by default ``recognize_boolean_node``)
    accepts, ascending, walking bottom-up in the linear extension
    ``_ranked``: a node with a rejected node below it is rejected
    untested, as acceptance is closed downward."""
    if recognize is None:
        from omlkit.iso_lifting import recognize_boolean_node as recognize
    down = sub_l.down
    rejected = 0
    found = []
    for x in sub_l._ranked:
        if down[x] & rejected or not recognize(sub_l, x):
            rejected |= 1 << x
        else:
            found.append(x)
    return sorted(found)


def legacy_boolean_rank(sub_l, x):
    """The k for which the interval below x could be Sub(2^k), else None:
    its atom count (cover_up of its least element) must be 2^(k-1) - 1, its
    top at height k-1 and its size Bell(k)."""
    dx = sub_l.down[x]
    bottom = next((y for y in bits(dx) if sub_l.up[y] & dx == dx), None)
    if bottom is None:
        raise NoLeastElement(f"the interval below node {x} has no least element")
    a = (sub_l.cover_up[bottom] & dx).bit_count()
    if (a + 1) & a:
        return None  # atom count + 1 must be a power of two
    k = (a + 1).bit_length()
    return k if sub_l.heights[x] == k - 1 and dx.bit_count() == _bell(k) else None


def legacy_class_row_equivalence(k, pairs):
    """Whether distinct pairs i < j are the pairs related by some
    equivalence relation on 0..k-1: with row[i] holding i and its
    partners, exactly when row[j] == row[i] for every j in row[i]."""
    row = [1 << i for i in range(k)]
    for i, j in pairs:
        row[i] |= 1 << j
        row[j] |= 1 << i
    return all(row[j] == r for r in row for j in bits(r))


def legacy_sachs_certificate(sub_l, x, k):
    """Whether the interval below x, with Bell(k) nodes, is the dual of the
    partition lattice on k points: the coatoms (x's lower covers) name the
    C(k,2) pairs of the k points, the coatoms above each node are the pairs
    of an equivalence relation, distinct nodes have distinct coatom sets,
    and y <= z exactly when every coatom above z is above y."""
    if k <= 2:
        return True  # one node, or a two-node chain: nothing else fits
    up, down = sub_l.up, sub_l.down
    dx = down[x]
    coat = sub_l.cover_down[x]
    if coat.bit_count() != k * (k - 1) // 2:
        return False
    heights = sub_l.heights
    points = [y for y in bits(dx)
              if heights[y] == 1 and (up[y] & coat).bit_count() == (k - 1) * (k - 2) // 2]
    if len(points) != k:
        return False
    pair_of = {}
    for c in bits(coat):
        missed = tuple(i for i, p in enumerate(points) if not down[c] >> p & 1)
        if len(missed) != 2:
            return False
        pair_of[c] = missed
    if len(set(pair_of.values())) != len(pair_of):
        return False
    below = {c: down[c] & dx for c in pair_of}
    seen = set()
    for y in bits(dx):
        above = up[y] & coat
        if above in seen or not legacy_class_row_equivalence(
                k, [pair_of[c] for c in bits(above)]):
            return False
        seen.add(above)
        # y <= z must hold exactly for the z below no coatom outside ``above``
        outside = 0
        for c in bits(coat & ~above):
            outside |= below[c]
        if up[y] & dx != dx & ~outside:
            return False
    return True


def legacy_certify_boolean_node(sub_l, x):
    """``legacy_boolean_rank``, then ``legacy_sachs_certificate``."""
    k = legacy_boolean_rank(sub_l, x)
    return k is not None and legacy_sachs_certificate(sub_l, x, k)


def legacy_lift_bsub_iso(L, M, phi, bsub_l=None, bsub_m=None, canonical_only=False):
    """Lift a BSub(L) -> BSub(M) node map, each block through a standalone copy."""
    if L.flavor != ORTHOMODULAR or M.flavor != ORTHOMODULAR:
        raise NotAnIso("lifting is defined between orthomodular lattices")
    if bsub_l is None:
        bsub_l = enumerate_subalgebras(L, boolean_only=True)
    if bsub_m is None:
        bsub_m = enumerate_subalgebras(M, boolean_only=True)
    phi = check_order_iso(getattr(phi, "mapping", phi), bsub_l, bsub_m)

    maximal_l = bsub_l.maximal_elements()
    maximal_m = set(bsub_m.maximal_elements())
    if {phi[x] for x in maximal_l} != maximal_m:
        raise BlockMismatch("node map does not match up the maximal nodes")

    global_map = [-1] * L.n
    global_map[0] = 0
    global_map[L.n - 1] = M.n - 1
    four_blocks = []
    for x in maximal_l:
        xmask = bsub_l.nodes[x].members
        ymask = bsub_m.nodes[phi[x]].members
        size = xmask.bit_count()
        if size == 2:
            continue
        if size == 4:
            if ymask.bit_count() != 4:
                raise BlockMismatch("four-element block mapped to a larger block")
            four_blocks.append((xmask, ymask))
            continue
        bx, bmap = sublattice(L, xmask)
        cy, cmap = sublattice(M, ymask)
        cinv = {g: i for i, g in enumerate(cmap)}
        sub_bx = enumerate_subalgebras(bx)
        sub_cy = enumerate_subalgebras(cy)
        psi_nodes = []
        for node in sub_bx.nodes:
            gmask = 0
            for e in bits(node.members):
                gmask |= 1 << bmap[e]
            hmask = bsub_m.nodes[phi[bsub_l.node_index(gmask)]].members
            local = 0
            for h in bits(hmask):
                local |= 1 << cinv[h]
            psi_nodes.append(sub_cy.node_index(local))
        fx = legacy_lift_boolean_iso(bx, cy, psi_nodes, sub_bx, sub_cy)[0]
        for e_local, e_global in enumerate(bmap):
            value = cmap[fx.mapping[e_local]]
            if global_map[e_global] not in (-1, value):
                raise GlueConflict(
                    f"blockwise lifts disagree on element {e_global}")
            global_map[e_global] = value

    choice_pairs = []
    for xmask, ymask in four_blocks:
        p, q = [e for e in bits(xmask) if e != 0 and e != L.n - 1]
        c, d = [e for e in bits(ymask) if e != 0 and e != M.n - 1]
        if global_map[p] != -1 or global_map[q] != -1:
            raise GlueConflict(
                f"four-element block {{0,{p},{q},{L.n - 1}}} overlaps a larger block")
        choice_pairs.append(((p, q), ((c, d), (d, c))))
    if not canonical_only and len(choice_pairs) > MAX_FOUR_BLOCK_CHOICES:
        raise Unsupported(
            f"{len(choice_pairs)} four-element blocks; request the canonical lift")

    combos = itertools.product(*(range(2) for _ in choice_pairs))
    if canonical_only:
        combos = [tuple(0 for _ in choice_pairs)]
    out = []
    for combo in combos:
        candidate = list(global_map)
        for ((p, q), options), pick in zip(choice_pairs, combo):
            candidate[p], candidate[q] = options[pick]
        if -1 in candidate:
            raise GlueConflict(
                f"blockwise lifts leave element {candidate.index(-1)} unassigned")
        try:
            f = morphism(L, M, candidate)
        except NotAMorphism as exc:
            raise GlueConflict(f"glued map is not a homomorphism: {exc}") from exc
        if f.kind != "iso":
            raise GlueConflict("glued map is not an isomorphism")
        for i, node in enumerate(bsub_l.nodes):
            if f.apply_mask(node.members) != bsub_m.nodes[phi[i]].members:
                raise GlueConflict("glued map does not realize the node map")
        out.append(f)
    return out


def legacy_pd_lift(L, M, X, Y, phi, src, tgt):
    """f(b) for each b of X ascending, each b but the top and X's coatoms
    read through its p.d. node pd_mask(L, b) & X, whose image's ideal f(b)
    generates; the rest are the complements of the images of their
    complements."""
    top = L.n - 1
    image = {}
    for b in bits(X):
        if b == top or L.up[b] & X == 1 << b | 1 << top:  # the top or a coatom
            continue
        target = tgt.masks[phi[src.node_index(pd_mask(L, b) & X)]]
        ideal, filt = _dual_parts(M, Y, target)
        if ideal | filt != target:
            raise Inconsistent("image of a principal dual node is not dual")
        c = next((e for e in bits(ideal) if M.down[e] & Y == ideal), None)
        if c is None:
            raise Inconsistent("image of a principal dual node is not principal")
        image[b] = c
    if any(L.ortho[b] not in image for b in bits(X) if b not in image):
        raise Inconsistent("complement of a coatom escaped the lift domain")
    return [image[b] if b in image else M.ortho[image[L.ortho[b]]] for b in bits(X)]


def legacy_lift_boolean_iso(B, C, phi, sub_b=None, sub_c=None):
    """Lift a Sub(B) -> Sub(C) node map through dual decompositions in C."""
    _require_boolean(B)
    _require_boolean(C)
    if sub_b is None:
        sub_b = enumerate_subalgebras(B)
    if sub_c is None:
        sub_c = enumerate_subalgebras(C)
    phi = check_order_iso(phi, sub_b, sub_c)
    if B.n != C.n:
        raise Inconsistent("isomorphic subalgebra lattices of different-size algebras")

    def check_node_images(f):
        for i, node in enumerate(sub_b.nodes):
            if f.apply_mask(node.members) != sub_c.nodes[phi[i]].members:
                raise Inconsistent("lift does not realize the node map")

    if B.n == 2:
        f = morphism(B, C, (0, 1))
        check_node_images(f)
        return [f]

    if B.n == 4:
        p, q = B.atoms()
        c, d = C.atoms()
        out = []
        for cc, dd in ((c, d), (d, c)):
            m = [0] * 4
            m[p], m[q] = cc, dd
            m[3] = 3
            f = morphism(B, C, m)
            check_node_images(f)
            out.append(f)
        return out

    coatoms = set(B.coatoms())
    mapping = [None] * B.n
    for b in range(B.n):
        if b == B.n - 1 or b in coatoms:
            continue
        node = sub_b.node_index(pd_mask(B, b))
        image = sub_c.nodes[phi[node]].members
        dd = dual_decomposition(C, image)
        if dd is None:
            raise Inconsistent("image of a principal dual node is not dual")
        c = None
        for e in bits(dd.ideal):
            if C.down[e] == dd.ideal:
                c = e
                break
        if c is None:
            raise Inconsistent("image of a principal dual node is not principal")
        mapping[b] = c
    for b in range(B.n):
        if mapping[b] is None:
            bo = B.ortho[b]
            if mapping[bo] is None:
                raise Inconsistent("complement of a coatom escaped the lift domain")
            mapping[b] = C.ortho[mapping[bo]]
    try:
        f = morphism(B, C, mapping)
    except NotAMorphism as exc:
        raise Inconsistent(f"lifted map is not an isomorphism: {exc}") from exc
    if f.kind != "iso":
        raise Inconsistent("lifted map is not bijective")
    check_node_images(f)
    return [f]


def legacy_preimage_functor(f, sub_m=None, sub_l=None):
    """The preimage node map, scanning all source elements for every node."""
    if sub_m is None:
        sub_m = enumerate_subalgebras(f.target)
    if sub_l is None:
        sub_l = enumerate_subalgebras(f.source)
    out = []
    for node in sub_m.nodes:
        pre = mask_of(a for a in range(f.source.n) if node.members >> f.mapping[a] & 1)
        out.append(sub_l.node_index(pre))
    return PreimageMap(sub_m, sub_l, tuple(out))


def legacy_classify_recovery(f):
    """The recovery trichotomy, counting full preimage maps of every hom."""
    im = image_subalgebra(f)
    if len(im) == 2:
        return RecoveryReport(RecoveryKind.TWO_ELEMENT_IMAGE, 2, None, None)
    im_lattice, im_map = sublattice(f.target, im.members)
    four = [blk for blk in legacy_blocks(im_lattice) if len(blk) == 4]
    if four:
        p, q = [im_map[e] for e in four[0].elements
                if e != 0 and e != im_lattice.n - 1]
        swap = {p: q, q: p}
        g = morphism(f.source, f.target,
                     tuple(swap.get(v, v) for v in f.mapping))
        if g.mapping == f.mapping:
            raise Inconsistent("swapping a four-element block's atoms left f unchanged")
        sub_m = enumerate_subalgebras(f.target)
        sub_l = enumerate_subalgebras(f.source)
        if legacy_preimage_functor(f, sub_m, sub_l).mapping != \
                legacy_preimage_functor(g, sub_m, sub_l).mapping:
            raise Inconsistent("the four-block witness has a different preimage map")
        return RecoveryReport(RecoveryKind.FOUR_BLOCK_IMAGE, len(im), g, None)
    sub_m = enumerate_subalgebras(f.target)
    sub_l = enumerate_subalgebras(f.source)
    target_map = legacy_preimage_functor(f, sub_m, sub_l).mapping
    matches = sum(1 for g in enumerate_homs(f.source, f.target)
                  if legacy_preimage_functor(g, sub_m, sub_l).mapping == target_map)
    return RecoveryReport(RecoveryKind.DETERMINED, len(im), None, matches == 1)


def legacy_pinned_classify_recovery(f):
    """Trichotomy for recovering f from its preimage map.

    Two-element image: nothing beyond the image is recoverable.  An image
    with a four-element block: swapping that block's atom pair after f gives
    a different homomorphism with the same preimage map; the witness is
    constructed.  Otherwise f is the unique homomorphism with its preimage
    map.  That is checked by a search over the homomorphisms g with the
    same preimage map only: g^{-1}[x] = f^{-1}[x] for every node x of
    Sub(M) exactly when each g(a) lies in the same nodes as f(a), so each
    g(a) is drawn from the elements whose node set equals that of f(a).
    Those are at most f(a) and f(a)', so the search needs no |L|*|M| cap;
    Sub(M) is bounded by the enumeration's node cap.
    """
    im = image_subalgebra(f)
    if len(im) == 2:
        return RecoveryReport(RecoveryKind.TWO_ELEMENT_IMAGE, 2, None, None)
    im_lattice, im_map = sublattice(f.target, im.members)
    four = [blk for blk in im_lattice.blocks() if len(blk) == 4]
    sub_m = enumerate_subalgebras(f.target)
    if four:
        p, q = [im_map[e] for e in four[0].elements
                if e != 0 and e != im_lattice.n - 1]
        swap = {p: q, q: p}
        g = morphism(f.source, f.target,
                     tuple(swap.get(v, v) for v in f.mapping))
        if g.mapping == f.mapping:
            raise Inconsistent("swapping a four-element block's atoms left f unchanged")
        if list(_preimage_masks(g, sub_m)) != list(_preimage_masks(f, sub_m)):
            raise Inconsistent("the four-block witness has a different preimage map")
        return RecoveryReport(RecoveryKind.FOUR_BLOCK_IMAGE, len(im), g, None)
    # nodes_with[v]: the nodes of Sub(M) containing v; a subalgebra holds v
    # exactly when it holds v', so the candidate lists are closed under
    # complement as _homs needs
    nodes_with = [0] * f.target.n
    for i, node in enumerate(sub_m.nodes):
        for v in bits(node.members):
            nodes_with[v] |= 1 << i
    candidates = [[v for v, key in enumerate(nodes_with) if key == nodes_with[w]]
                  for w in f.mapping]
    matches = len(_homs(f.source, f.target, candidates))
    return RecoveryReport(RecoveryKind.DETERMINED, len(im), None, matches == 1)


def legacy_is_boolean(L, mask):
    """Whether the closed set ``mask`` is a Boolean subalgebra: pairwise
    commutation, then distributivity on all triples (bounds skipped)."""
    els = [e for e in bits(mask) if e != 0 and e != L.n - 1]
    (meet, join), ortho = cone_scan_tables(L.up, L.down), L.ortho
    for a in els:
        row = meet[a]
        for b in els:
            if join[row[b]][row[ortho[b]]] != a:
                return False
    for a in els:
        row = meet[a]
        for b in els:
            ab = row[b]
            jb = join[b]
            for c in els:
                if row[jb[c]] != join[ab][row[c]]:
                    return False
    return True


def legacy_covers(up, down):
    """Bit b of row a is set when b covers a."""
    out = []
    for a, row in enumerate(up):
        cov = 0
        for b in bits(row & ~(1 << a)):
            if row & down[b] == (1 << a) | (1 << b):
                cov |= 1 << b
        out.append(cov)
    return tuple(out)


def legacy_heights(down, cover_down):
    """Length of a longest chain ending at each element (0 for minimal ones)."""
    h = [0] * len(down)
    for x in sorted(range(len(down)), key=lambda v: down[v].bit_count()):
        h[x] = 1 + max((h[y] for y in bits(cover_down[x])), default=-1)
    return tuple(h)


def legacy_blocks(L):
    """All maximal Boolean subalgebras, ascending by bit-set value.

    A block of an orthomodular lattice is exactly a maximal set of
    pairwise commuting elements, so this reduces to maximal-clique
    enumeration on the commutation graph: Bron-Kerbosch with pivoting
    (Bron & Kerbosch 1973; Tomita et al. 2006) over bit sets.
    """
    if L.flavor != ORTHOMODULAR:
        raise FlavorError("blocks are defined for orthomodular lattices")
    nbr = [row & ~(1 << a) for a, row in enumerate(legacy_commuting(L))]
    out = []

    def expand(clique: int, cand: int, done: int):
        if not cand | done:
            if L.closure_mask(clique) != clique or not legacy_is_boolean(L, clique):
                raise Inconsistent(f"maximal commuting set {list(bits(clique))} "
                                   "is not a Boolean subalgebra")
            out.append(SubalgebraSet(L, clique))
            return
        pivot = max(bits(cand | done), key=lambda u: (cand & nbr[u]).bit_count())
        for v in bits(cand & ~nbr[pivot]):
            expand(clique | 1 << v, cand & nbr[v], done & nbr[v])
            cand &= ~(1 << v)
            done |= 1 << v

    expand(0, L.universe, 0)
    out.sort(key=lambda s: s.members)
    return out


def legacy_boolean_algebra(num_atoms, name=None):
    """Power-set lattice on ``num_atoms`` atoms; element i is the subset i."""
    if not 1 <= num_atoms <= 6:
        raise SizeCap("Boolean construction supports 1..6 atoms")
    n = 1 << num_atoms
    full = n - 1
    up = [0] * n
    for i in range(n):
        row = 0
        for j in range(n):
            if i & j == i:
                row |= 1 << j
        up[i] = row
    ortho = [full ^ i for i in range(n)]
    return FiniteOrtholattice(up, ortho, name or f"2^{num_atoms}")


def legacy_product(L, M, name=None):
    """Direct product with componentwise order and complement."""
    if L.n * M.n > MAX_ELEMENTS:
        raise SizeCap(f"product would have {L.n * M.n} elements")
    n = L.n * M.n
    up = [0] * n
    ortho = [0] * n
    for x in range(L.n):
        for y in range(M.n):
            i = x * M.n + y
            row = 0
            for x2 in bits(L.up[x]):
                for y2 in bits(M.up[y]):
                    row |= 1 << (x2 * M.n + y2)
            up[i] = row
            ortho[i] = L.ortho[x] * M.n + M.ortho[y]
    return FiniteOrtholattice(up, ortho, name)


def legacy_horizontal_sum(summands, name=None):
    """Glue the summands at their bounds; everything else stays incomparable."""
    if not summands:
        raise MalformedInput("horizontal sum of nothing")
    if any(s.n < 4 for s in summands):
        raise MalformedInput("horizontal sum needs summands with at least 4 elements")
    n = sum(s.n - 2 for s in summands) + 2
    if n > MAX_ELEMENTS:
        raise SizeCap(f"horizontal sum would have {n} elements")
    top = n - 1
    offsets = []
    base = 1
    for s in summands:
        offsets.append(base)
        base += s.n - 2

    def glob(s_idx, e):
        if e == 0:
            return 0
        if e == summands[s_idx].n - 1:
            return top
        return offsets[s_idx] + e - 1

    up = [0] * n
    ortho = [0] * n
    up[0] = (1 << n) - 1
    up[top] = 1 << top
    ortho[0] = top
    ortho[top] = 0
    for s_idx, s in enumerate(summands):
        for e in range(1, s.n - 1):
            g = glob(s_idx, e)
            row = 1 << top
            for e2 in bits(s.up[e] & ~(1 << (s.n - 1))):
                row |= 1 << glob(s_idx, e2)
            up[g] = row
            ortho[g] = glob(s_idx, s.ortho[e])
    return FiniteOrtholattice(up, ortho, name)


def legacy_partition_to_subalgebra(B, p):
    """The subalgebra whose atoms are the joins of the partition blocks:
    the join of every subset of the block joins, 2^k subsets of k joins."""
    _require_boolean(B)
    atoms = B.atoms()
    if p.universe != frozenset(range(1, len(atoms) + 1)):
        raise MalformedInput("partition does not cover the atom positions")
    block_join = []
    for blk in p.blocks:
        v = 0
        for i in blk:
            v = B.join(v, atoms[i - 1])
        block_join.append(v)
    mask = 0
    for choice in range(1 << len(block_join)):
        v = 0
        for k in bits(choice):
            v = B.join(v, block_join[k])
        mask |= 1 << v
    return B.subalgebra(mask)


def legacy_set_partitions(items):
    """Every partition of ``items`` into blocks of items, by restricted
    growth, the one-block partition first."""
    out = [()]
    for x in items:
        out = [b[:k] + (b[k] + (x,),) + b[k + 1:] if k < len(b) else b + ((x,),)
               for b in out for k in range(len(b) + 1)]
    return out


def legacy_partition_masks(L, atoms, budget):
    """The masks of the subalgebras of a Boolean summand with atoms
    ``atoms``, one per set partition, at most budget + 1 of them."""
    join = cone_scan_tables(L.up, L.down)[1]
    found = []
    for blocks in legacy_set_partitions(atoms):
        parts = []
        for block in blocks:
            v = 0
            for a in block:
                v = join[v][a]
            parts.append(v)
        members = [0]
        for t in parts:
            members += [join[t][x] for x in members]
        found.append(sum(1 << x for x in members))
        if len(found) > budget:
            break
    return found


def legacy_partition_lattice(n):
    """(up rows, down rows, partitions) of the partitions of {1..n} ordered
    by refinement, the partitions sorted by their blocks."""
    parts = sorted(map(sachs_boolean.Partition, legacy_set_partitions(range(1, n + 1))),
                   key=lambda p: p.blocks)
    up, down = [0] * len(parts), [0] * len(parts)
    for i, p in enumerate(parts):
        for j, q in enumerate(parts):
            if p.refines(q):
                up[i] |= 1 << j
                down[j] |= 1 << i
    return up, down, tuple(parts)



def legacy_boolean_keys(L, blocks, budget):
    """The subalgebras of the Boolean subalgebras whose atom sets are
    ``blocks``, as masks and keys, the bottom first; at most budget + 1
    distinct masks, and no block reads more than budget + 1 partitions.

    Each block owns C(k,2) + 1 key bits: the atom pairs a partition splits,
    and above them one bit for "outside this block".  A key starts as all
    ones, and each block that holds the node ANDs its partition's pair key
    into its own range.  So S <= T exactly when key(S) is a subset of
    key(T): T lies in a block, whose outside bit T clears, so S clears it
    too and lies there, where T's partition refines S's, so splits every
    pair S's does; and a block holding S but not T leaves T's range all
    ones.  With one block the key is the pair key.
    """
    family, low = {}, 0
    for block in blocks:
        k = block.bit_count()
        point = _joins(L, list(bits(block))).__getitem__
        table = _partition_table(k)[:budget + 1]
        masks = [sum(map(point, ms)) for ms, _ in table]
        if len(blocks) == 1:
            # distinct partitions give distinct masks, and the outside bit stays 0
            return masks, [key for _, key in table]
        # what each node clears: its block's range but its pair key
        span = ((1 << k * (k - 1) // 2 + 1) - 1) << low
        read = dict(zip(masks, [span ^ key << low for _, key in table]))
        for m in read.keys() & family.keys():
            read[m] |= family[m]
        family.update(read)
        low = span.bit_length()
    ones = (1 << low) - 1
    return list(family)[:budget + 1], [ones ^ cleared for cleared in family.values()][:budget + 1]


def legacy_boolean_family(L, blocks, budget):
    """``legacy_boolean_keys``'s masks sorted, with the rows transposed
    from their keys carried along: (masks, up rows, down rows)."""
    masks, keys = legacy_boolean_keys(L, blocks, budget)
    keys = [key for _, key in sorted(zip(masks, keys))]
    return (sorted(masks), *inclusion_rows(keys))


def legacy_product_order(parts):
    """Sorted node masks, up rows and down rows of the product of the
    summands' Sub, ``parts`` holding each summand's node masks and keys,
    the keys ORed across summands as the masks are (the lists are sorted
    in place).  A product of at most 64 nodes, or one summand alone, is
    multiplied out and transposed from its keys; a larger one is split into
    two groups of about equal product, largest summands first, each built
    the same way, and the groups' orders composed, unless a side has at
    most 2 nodes."""
    parts = sorted(parts, key=lambda part: len(part[0]), reverse=True)
    size = 1
    for found, _ in parts:
        size *= len(found)
    if len(parts) > 1 and size > 64:
        head, heads = 1, []
        for found, _ in parts[:-1]:
            head *= len(found)
            heads.append(head)
        k = min(range(len(heads)), key=lambda i: max(heads[i], size // heads[i])) + 1
        if min(heads[k - 1], size // heads[k - 1]) > 2:
            return _legacy_compose(legacy_product_order(parts[:k]),
                                   legacy_product_order(parts[k:]))
    masks, keys = parts[0]
    for found, found_keys in parts[1:]:
        masks = [m | f for m in masks for f in found]
        keys = [k | f for k in keys for f in found_keys]
    keys = masks if keys == masks else [k for _, k in sorted(zip(masks, keys))]
    masks.sort()
    return (masks, *inclusion_rows(keys))


def _legacy_compose(left, right):
    """The product of two inclusion orders on masks that share only the
    bottom, each as (sorted masks, up rows, down rows): node (i, j) gets
    the up row U[i] & V[j], U[i] the product nodes (by rank in sorted
    order) whose left coordinate lies in up[i]; down rows likewise."""
    (masks_a, up_a, down_a), (masks_b, up_b, down_b) = left, right
    width = len(masks_b)
    masks = [a | b for a in masks_a for b in masks_b]
    order = sorted(range(len(masks)), key=masks.__getitem__)
    rank = sorted(range(len(masks)), key=order.__getitem__)
    col_a = [sum([1 << r for r in rank[i:i + width]]) for i in range(0, len(rank), width)]
    col_b = [sum([1 << r for r in rank[j::width]]) for j in range(width)]

    def spread(rows, cols):
        return [sum([cols[k] for k in bits(row)]) for row in rows]

    up_b, down_b = spread(up_b, col_b), spread(down_b, col_b)
    up = [x & y for x in spread(up_a, col_a) for y in up_b]
    down = [x & y for x in spread(down_a, col_a) for y in down_b]
    return [masks[p] for p in order], [up[p] for p in order], [down[p] for p in order]

def legacy_is_equivalence(k, pairs):
    """Whether ``pairs`` is the set of pairs {i, j} related by some
    equivalence relation on 0..k-1: union-find, then the classes must hold
    exactly that many pairs."""
    root = list(range(k))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i, j in pairs:
        root[find(i)] = find(j)
    size = [0] * k
    for i in range(k):
        size[find(i)] += 1
    return sum(s * (s - 1) // 2 for s in size) == len(pairs)


def _legacy_order_down(up):
    n = len(up)
    universe = (1 << n) - 1
    for i, row in enumerate(up):
        if row & ~universe:
            raise MalformedInput(f"row {i} mentions elements outside 0..{n - 1}")
        if not row >> i & 1:
            raise NotAPartialOrder(f"relation is not reflexive at {i}")
    for i in range(n):
        for j in bits(up[i]):
            if j != i and up[j] >> i & 1:
                raise NotAPartialOrder(f"antisymmetry fails on {i}, {j}")
            if up[j] & ~up[i]:
                raise NotAPartialOrder(f"transitivity fails above {i} <= {j}")
    return legacy_transpose(up)


def _legacy_orthomodular_on(L, mask):
    """Whether a <= b implies b = a v (a' ^ b) for a, b in ``mask``."""
    up, (meet, join), ortho = L.up, cone_scan_tables(L.up, L.down), L.ortho
    for a in bits(mask):
        row, co_row = join[a], meet[ortho[a]]
        for b in bits(up[a] & mask):
            if row[co_row[b]] != b:
                return False
    return True


def legacy_finite_ortholattice(up, ortho, name=None):
    """The tables (``up``, ``down``, ``ortho``), ``meet``, ``join`` and
    ``flavor`` of a lattice, validated pair by pair; raises the first fault."""
    up = tuple(up)
    n = len(up)
    if n < 2:
        raise NoBoundedLattice("a bounded lattice needs at least 2 elements")
    if n > MAX_ELEMENTS:
        raise SizeCap(f"{n} elements exceed the bit-set cap of {MAX_ELEMENTS}")
    down = _legacy_order_down(up)
    universe = (1 << n) - 1
    if up[0] != universe:
        raise NoBoundedLattice("element 0 is not the least element")
    if down[n - 1] != universe:
        raise NoBoundedLattice(f"element {n - 1} is not the greatest element")

    below = {row: x for x, row in enumerate(down)}
    above = {row: x for x, row in enumerate(up)}
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            g = below.get(down[a] & down[b])
            if g is None:
                raise NoBoundedLattice(f"elements {a} and {b} have no meet")
            meet[a][b] = meet[b][a] = g
            g = above.get(up[a] & up[b])
            if g is None:
                raise NoBoundedLattice(f"elements {a} and {b} have no join")
            join[a][b] = join[b][a] = g

    ortho = tuple(ortho)
    if not (len(ortho) == n and all(isinstance(v, int) and not isinstance(v, bool) for v in ortho)
            and sorted(ortho) == list(range(n))):
        raise BadOrthocomplement("ortho is not a permutation of the elements")
    for a in range(n):
        if ortho[ortho[a]] != a:
            raise BadOrthocomplement(f"ortho is not an involution at {a}")
    for a in range(n):
        for b in bits(up[a]):
            if not up[ortho[b]] >> ortho[a] & 1:
                raise BadOrthocomplement(f"ortho does not reverse {a} <= {b}")
    for a in range(n):
        if meet[a][ortho[a]] != 0 or join[a][ortho[a]] != n - 1:
            raise BadOrthocomplement(f"element {a} and its image are not complements")

    L = SimpleNamespace(n=n, up=up, down=down, ortho=ortho, name=name,
                        meet=lambda a, b: meet[a][b], join=lambda a, b: join[a][b])
    L.flavor = ORTHOMODULAR if _legacy_orthomodular_on(L, universe) else ORTHOLATTICE
    return L
