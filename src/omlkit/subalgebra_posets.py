"""Enumeration of subalgebra families and the order theory they live in.

Sub(L) is the family of all subalgebras of a finite ortholattice, BSub(L)
the family of Boolean ones, both ordered by inclusion.  Sub(L) is
enumerated one horizontal summand at a time, as the product of the
summands' Sub.  A Boolean summand of an orthomodular L needs no search:
its subalgebras are read off the set partitions of its atoms (Sachs).  Nor
does BSub of an orthomodular L: every Boolean subalgebra lies in a block,
whose atoms are a maximal set of pairwise orthogonal atoms, so BSub(L) is
the union over the blocks of their partitions.  The lattice core finds
those atom sets (``_blocks``), which ``blocks()`` reads too.  Any other
summand, and BSub of any other ortholattice, is searched depth first by
Close-by-One from {0,1}, which lists each subalgebra once and closes each
new set incrementally from its parent.  Its canonicity test asks whether a
closure adds an element earlier in a linear extension of L (by down-cone
size).  Posets come out with nodes sorted ascending by bit-set value, so
identical inputs give identical output, byte for byte, whatever order they
were found in.  The inclusion rows of a family read off partitions are
built from its blocks' covers, one OR per cover pair: by Sachs, Sub(2^k) is
the dual of the partition lattice, whose covers split one block in two.  A
searched family's rows are transposed from its masks in one pass.  Sub of
a horizontal sum builds no summand's rows: each summand spreads its Hasse
diagram (its partitions' covers, or the covers of a searched summand's
transposed rows) across the product's columns by the same one OR per
cover pair, and a product node's rows are the ANDs of its coordinates'
spread rows, with no transpose of the product.  A poset's nodes are bit sets
(``SubalgebraPoset.masks``): the enumerated posets are labeled with their
sorted masks unchecked, and SubalgebraSets are built only when a caller
reads ``nodes``.
"""

from __future__ import annotations

import os
from functools import cached_property, lru_cache, reduce
from itertools import chain, combinations, compress
from operator import and_
from typing import Iterator, Optional, Sequence

from .errors import (
    ExplosionCap,
    MalformedInput,
    NoLeastElement,
    NotAnIso,
    Unsupported,
)
from .lattice_core import (
    FiniteOrtholattice,
    SubalgebraSet,
    _cover_row,
    _induced,
    _is_int,
    _joins,
    _Order,
    _order_isos,
    _permuted,
    bits,
)

DEFAULT_NODE_CAP = 100000
NODE_CAP_ENV = "OMLKIT_NODE_CAP"
POSET_ISO_CAP = 5000


class AbstractPoset(_Order):
    """A bare finite partial order on 0..size-1, rows as bit sets."""

    def __init__(self, up: Sequence[int]):
        """Check that the ``up`` rows are a partial order.  Defined here, not
        only on the base, so that poset validation is timed as its own layer."""
        super().__init__(up)

    @classmethod
    def from_pairs(cls, size: int, pairs) -> "AbstractPoset":
        """Build from an explicit full relation given as (lower, upper) pairs."""
        if size < 1:
            raise MalformedInput("poset needs at least one node")
        return cls(cls._read_pairs(size, pairs, "nodes"))

    def __repr__(self):
        return f"<{type(self).__name__} on {self.size} nodes>"

    def bottom(self) -> Optional[int]:
        return self._above.get((1 << self.size) - 1)

    def top(self) -> Optional[int]:
        return self._below.get((1 << self.size) - 1)

    def atoms(self) -> tuple[int, ...]:
        b = self.bottom()
        if b is None:
            raise NoLeastElement("poset has no least element")
        return tuple(bits(self.cover_up[b]))

    def maximal_elements(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.size) if self.up[x] == 1 << x)

    def _node(self, x) -> int:
        """``x`` if it is a node index, else MalformedInput: the one range
        check of the node queries.  ``leq`` is the order core's unchecked
        constant-time predicate, as a lattice's ``meet`` and ``join`` are,
        and the library's own loops, whose nodes are in range by
        construction, call the unchecked ``_join`` and ``_meet``."""
        if not (_is_int(x) and 0 <= x < self.size):
            raise MalformedInput(f"node {x!r} out of range")
        return x

    def covers(self, x: int) -> tuple[int, ...]:
        return tuple(bits(self.cover_up[self._node(x)]))

    def _join(self, x: int, y: int) -> Optional[int]:
        return self._above.get(self.up[x] & self.up[y])

    def _meet(self, x: int, y: int) -> Optional[int]:
        return self._below.get(self.down[x] & self.down[y])

    def join(self, x: int, y: int) -> Optional[int]:
        return self._join(self._node(x), self._node(y))

    def meet(self, x: int, y: int) -> Optional[int]:
        return self._meet(self._node(x), self._node(y))

    def height(self, x: int) -> int:
        """One less than the size of a maximal chain from the bottom to x."""
        x = self._node(x)
        if self.bottom() is None:
            raise NoLeastElement("height needs a least element")
        return self.heights[x]

    def interval_below(self, x: int) -> tuple["AbstractPoset", tuple[int, ...]]:
        """The induced order on {y : y <= x}, relabeled to 0..k-1.

        Returns (poset, support) where support[i] is the original node of
        relabeled node i.
        """
        below = self.down[self._node(x)]
        # an order restricted to a subset is an order
        return (AbstractPoset._trusted(_induced(self.up, below), _induced(self.down, below)),
                tuple(bits(below)))

    def dual(self) -> "AbstractPoset":
        # the converse of an order is an order
        return AbstractPoset._trusted(self.down, self.up)

    def relabel(self, perm: Sequence[int]) -> "AbstractPoset":
        perm = tuple(perm)
        if not self._is_permutation(perm):
            raise MalformedInput("relabeling is not a permutation")
        # an order with its points renamed one-to-one is an order
        return AbstractPoset._trusted(_permuted(self.up, self.down, perm),
                                      _permuted(self.down, self.up, perm))

    def as_abstract(self) -> "AbstractPoset":
        """A plain copy with any subalgebra decoration dropped."""
        # a copy of an order is an order
        return AbstractPoset._trusted(self.up, self.down)


class SubalgebraPoset(AbstractPoset):
    """Inclusion order on an enumerated family of subalgebras of one lattice.

    Node i is the element set ``masks[i]`` of ``owner``, a bit set.  The
    constructor checks what it is handed: the rows are an order and the
    ``nodes`` distinct SubalgebraSets of ``owner``, one per row, the first
    {0, n-1}; then that each node is closed, and that the rows are the
    nodes' inclusion order.  So {0, n-1} is the least node of every poset,
    and a node below another is a subalgebra of it.  ``enumerate_subalgebras``
    labels the rows it built with its masks unchecked; ``nodes`` wraps them
    as SubalgebraSets on first read.
    """

    def __init__(self, up, owner: FiniteOrtholattice,
                 nodes: Sequence[SubalgebraSet]):
        super().__init__(up)
        nodes = tuple(nodes)
        if len(nodes) != self.size:
            raise MalformedInput(f"expected {self.size} nodes, got {len(nodes)}")
        # another lattice's sets are refused as ``owner.subalgebra`` refuses
        # them: their element numbers mean other elements
        if not all(isinstance(s, SubalgebraSet) and s.owner is owner for s in nodes):
            raise MalformedInput("a node is not an element set of this lattice")
        self.owner, self.masks = owner, tuple(s.members for s in nodes)
        if len(self._index) != self.size:
            raise MalformedInput("a node is listed twice")
        if not nodes or self.masks[0] != 1 | 1 << (owner.n - 1):
            raise MalformedInput("the first node must be the trivial subalgebra {0, n-1}")
        if any(owner.closure_mask(m) != m for m in self.masks):
            raise MalformedInput("a node is not a closed subalgebra")
        if list(self.up) != inclusion_rows(self.masks)[0]:
            raise MalformedInput("the order is not the nodes' inclusion")

    @cached_property
    def nodes(self) -> tuple[SubalgebraSet, ...]:
        return tuple([SubalgebraSet(self.owner, m) for m in self.masks])

    @cached_property
    def _index(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.masks)}

    def node_index(self, members) -> int:
        """The index of the node whose element set is ``members``, a bit set
        or a SubalgebraSet of ``owner``; MalformedInput for anything else."""
        if isinstance(members, SubalgebraSet):
            if members.owner is not self.owner:
                raise MalformedInput("element set belongs to another lattice")
            members = members.members
        i = self._index.get(members) if _is_int(members) else None
        if i is None:
            raise MalformedInput("element set is not a node of this poset")
        return i

    def labels(self) -> list[tuple[int, ...]]:
        return [tuple(bits(m)) for m in self.masks]


def _node_cap(cap: Optional[int]) -> int:
    """``cap``, else the OMLKIT_NODE_CAP environment variable, else the
    default; MalformedInput unless it is a positive integer (not a bool)."""
    name, raw = "cap", cap
    if cap is None:
        name, raw = NODE_CAP_ENV, os.environ.get(NODE_CAP_ENV)
        if raw is None:
            return DEFAULT_NODE_CAP
        try:
            cap = int(raw)
        except ValueError:
            pass
    if not _is_int(cap):
        raise MalformedInput(f"{name} must be an integer, got {raw!r}")
    if cap < 1:
        raise MalformedInput(f"{name} must be a positive integer, got {raw!r}")
    return cap


def close_by_one(candidates: Sequence[int], bottom: int, state, extend,
                 cap: int) -> list[int]:
    """Every closed set of a closure system, each exactly once.

    Kuznetsov's Close-by-One, depth first from the least closed set
    ``bottom``, over a fixed linear order of the elements: from a closed set
    s reached by adding element e, try each of the ``candidates``, listed in
    that order, that comes after e and is not in s (elements never added
    canonically may be left out).  ``extend(s, state, e)`` returns the
    closure of s plus e with its state; or, if that closure adds an element
    w earlier in the order than e (it is reached from another parent), w; or
    None if the caller rejects it, which skips its subtree (sound for
    families closed under closed subsets, such as Boolean subalgebras).  As
    in Outrata and Vychodil's Fast Close-by-One, children inherit the
    witnesses: w is in the closure of any closed s' above s plus e, so a
    child missing w fails at e untried.  Any order lists each closed set
    once; the order only decides when a failing closure is caught.  Stops
    once more than ``cap`` sets are found, returning them unsorted.
    """
    after = {e: tuple(candidates[i + 1:]) for i, e in enumerate(candidates)}
    found = []
    stack = [(bottom, state, tuple(candidates), {})]
    while stack:
        s, state, todo, inherited = stack.pop()
        found.append(s)
        if len(found) > cap:
            break
        witnesses = {}
        for e in todo:
            if not s >> e & 1:
                w = inherited.get(e)
                child = w if w is not None and not s >> w & 1 else extend(s, state, e)
                if child.__class__ is tuple:
                    stack.append((*child, after[e], witnesses))
                elif child is not None:
                    witnesses[e] = child
    return found


def inclusion_rows(masks: Sequence[int]) -> tuple[list[int], list[int]]:
    """Up and down rows of the inclusion order on ``masks``, in one pass.

    The masks' fixed-width binary strings are transposed once into columns,
    the nodes containing each bit.  A node's up row is the AND of its bits'
    columns, its down row the AND of the other columns' complements.
    ``enumerate_subalgebras`` calls it on each searched family's sorted
    masks only: a family read off partitions comes with its rows
    (``_boolean_family``) or, inside a product, with its Hasse diagram, and
    the rows of Sub's product are spread from the summands' diagrams
    (``_product_order``) without a transpose.
    """
    everything = (1 << len(masks)) - 1
    width = f"0{max(masks).bit_length()}b"
    digits = [format(m, width).encode() for m in masks]
    containing = [int(bytes(col), 2) for col in zip(*reversed(digits))]
    missing = [everything ^ col for col in containing]
    # each node's digits, as itertools.compress selectors of its ones or zeros
    ones, zeros = bytes.maketrans(b"01", b"\0\1"), bytes.maketrans(b"01", b"\1\0")
    up = [reduce(and_, compress(containing, d.translate(ones)), everything) for d in digits]
    down = [reduce(and_, compress(missing, d.translate(zeros)), everything) for d in digits]
    return up, down


@lru_cache
def _partition_table(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every partition of k indices as (members, key), the one-block
    partition first.  The members are the unions of blocks as index masks,
    block b being member 2^b, so a partition of b blocks has 2^b members.
    Restricted growth (Knuth, TAOCP 4A, 7.2.1.5): index i joins a block so
    far or opens one (block 0), which doubles the members, and is split
    from each earlier j outside it: key bit i(i-1)/2 + j.  The keys name
    the partitions for the Boolean-node certificate and the partition
    lattice; Sub(2^k) is ordered by ``_partition_covers(k)``."""
    table = [((0,), 0)]
    for i in range(k):
        new, low = 1 << i, i * (i - 1) // 2
        table = [(tuple([m | new if m & block else m for m in ms]) if block
                  else ms + tuple([m | new for m in ms]), key | (new - 1 & ~block) << low)
                 for ms, key in table
                 for block in [ms[1 << b] for b in range(len(ms).bit_length() - 1)] + [0]]
    return tuple(table)


@lru_cache
def _partition_covers(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The Hasse diagram of Sub(2^k) on ``_partition_table(k)``'s indices,
    as two equally long tuples (lower, upper): partition upper[t] splits
    one block of partition lower[t] in two, so its subalgebra covers
    lower[t]'s.  The pairs run by the height of their lower node,
    decreasing, where a partition of b blocks has height b - 1; pairs of
    one height come in no particular order.  They are found from the finer
    side, one pair per two blocks merged, each partition named by an
    integer code with bit x set for each of its blocks x, and bucketed by
    the finer side's block count.  There are the sum over b of S(k, b)
    C(b, 2): 856 for k = 6, two tuples of small ints."""
    blocks = [[ms[1 << b] for b in range(len(ms).bit_length() - 1)]
              for ms, _ in _partition_table(k)]
    index = {sum([1 << x for x in bs]): j for j, bs in enumerate(blocks)}
    pairs = [[] for _ in range(k + 1)]
    for code, j in index.items():
        bs = blocks[j]
        pairs[len(bs)] += [(index[code ^ 1 << x ^ 1 << y | 1 << (x | y)], j)
                           for x, y in combinations(bs, 2)]
    return tuple(zip(*chain(*reversed(pairs)))) or ((), ())


def _block_masks(L: FiniteOrtholattice, block: int, budget: int):
    """The subalgebras of the Boolean subalgebra whose atoms are ``block``,
    in ``_partition_table`` order, at most budget + 1 of them, and the
    Hasse diagram of their inclusion order on that order's indices
    (``_partition_covers``): each partition's subalgebra is the sum of the
    joins of its members' atoms."""
    k = block.bit_count()
    point = _joins(L, list(bits(block))).__getitem__
    return [sum(map(point, ms)) for ms, _ in _partition_table(k)[:budget + 1]], _partition_covers(k)


def _boolean_family(L: FiniteOrtholattice, blocks: Sequence[int], budget: int):
    """The subalgebras of the Boolean subalgebras whose atom sets are
    ``blocks`` (bit sets of pairwise orthogonal atoms joining to 1), as
    masks sorted ascending, with the up and down rows of their inclusion
    order.  Past budget masks it returns budget + 1 of them and no rows
    (None, None); no block reads more than budget + 1 partitions.  It
    reads BSub of an orthomodular L and the Sub of a Boolean summand that
    stands alone; a Boolean summand inside a product hands its masks and
    Hasse diagram (``_block_masks``) to ``_product_order`` instead.

    By Sachs the subalgebras of a Boolean algebra B with k atoms are those
    whose atoms are the block joins of one set partition of its atoms, and
    distinct partitions give distinct subalgebras, so nothing is searched
    and nothing is rejected; a subalgebra that several blocks hold is
    listed once.  A finer partition gives a larger subalgebra, so Sub(B) is
    the dual of the partition lattice, and its covers are known before any
    row is built (``_partition_covers``), and ``_cover_rows`` builds them:
    each node's up row is its own bit and its upper covers' up rows, built
    in order of decreasing height, and each down row its bit and its lower
    covers' down rows, built the other way; one OR per cover pair, and a
    bit is a node's sorted position.

    With several blocks the union's Hasse diagram is the blocks' together:
    S is covered by T in the union exactly when S is covered by T in
    Sub(B) for a block B that holds T, as any Boolean R with S < R < T
    lies in T, so in B.  So the rows are built block by block.  A Boolean
    T above S lies in some block, which holds S too: S's up row is the
    union of its up rows in the blocks that hold it.  Every Boolean S
    below T lies in each block that holds T: T's down row is the same in
    each of them.
    """
    if len(blocks) == 1:
        found, covers = _block_masks(L, blocks[0], budget)
        reads = [(covers, range(len(found)))]
    else:
        index, reads = {}, []
        for block in blocks:
            masks, covers = _block_masks(L, block, budget)
            reads.append((covers, [index.setdefault(m, len(index)) for m in masks]))
            if len(index) > budget:
                break
        found = list(index)[:budget + 1]
    if len(found) > budget:
        return sorted(found), None, None
    order = sorted(range(len(found)), key=found.__getitem__)
    place = [0] * len(found)
    for r, x in enumerate(order):
        place[x] = 1 << r
    rows = [(ids, *_cover_rows(*covers, [place[x] for x in ids])) for covers, ids in reads]
    if len(rows) == 1:
        [(_, up, down)] = rows
    else:
        up, down = [0] * len(found), [0] * len(found)
        for ids, block_up, block_down in rows:
            for x, row_up, row_down in zip(ids, block_up, block_down):
                up[x] |= row_up
                down[x] = row_down
    return [found[x] for x in order], [up[x] for x in order], [down[x] for x in order]


def _cover_rows(lower, upper, place: list) -> tuple[list, list]:
    """Up and down rows of an order from its Hasse diagram, the equally
    long sequences ``lower`` and ``upper`` (upper[t] covers lower[t]),
    node i standing for the bit set place[i]: node i's up row is the OR of
    place[j] over the j >= i, its down row over the j <= i.  The pairs run
    by their lower node down a linear extension (by height, or by index
    where indices are one), so every pair whose lower node is j comes
    before every pair whose upper node is j.  One OR per cover pair each
    way, the up rows from the top down, the down rows from the bottom up,
    so each row read is complete (``place`` itself becomes the down rows).
    With place[i] the bit of node i these are the order's own rows; with
    place[i] the bits of the product nodes whose coordinate is i, the
    rows spread across a product."""
    up, down = place[:], place
    for i, j in zip(lower, upper):
        up[i] |= up[j]
    for i, j in zip(reversed(lower), reversed(upper)):
        down[j] |= down[i]
    return up, down


def _search(L: FiniteOrtholattice, boolean_only: bool, bottom: int):
    """Close-by-One from ``bottom`` over a set of L's elements, as a
    function of the set (a mask) and the budget.

    Sub searches one summand at a time and closes each child with the meet
    closure ``L._extend``.  BSub of an ortholattice that is not
    orthomodular searches all of L at once and tests each closure with
    ``is_boolean``: every closed set above a non-Boolean one is non-Boolean
    too, so its subtree is skipped.
    """
    extend_closed, earlier = L._extend, L._earlier

    def extend(s, members, e):
        child = extend_closed(s, members, (e,), earlier[e])
        if boolean_only and child.__class__ is tuple and not L.is_boolean(child[0]):
            return None
        return child

    ranked, ortho, state = L._ranked, L.ortho, list(bits(bottom))

    def search(part: int, budget: int) -> list[int]:
        # an element later than its complement drags that complement in
        candidates = [e for e in ranked if part >> e & 1 and not earlier[e] >> ortho[e] & 1]
        return close_by_one(candidates, bottom, state, extend, budget)
    return search


def _summands(L: FiniteOrtholattice) -> list[int]:
    """The inner elements of L split into its horizontal summands, as masks.

    The summands are the classes of x ~ y where x ^ y != 0 or y = x'.  In a
    finite lattice x ^ y != 0 exactly when an atom lies below both.  If
    atoms a and b lie below some x < 1, an atom c below (a v b)' is
    orthogonal to both; and x ~ x' links the atoms below x to those below
    x', which are orthogonal to them.  So a summand is the union of the up
    rows of a component of the orthogonality graph on atoms, and each atom
    is read once.
    """
    up, down, ortho = L.up, L.down, L.ortho
    inner = L.universe ^ 1 ^ 1 << L.n - 1
    left = L._atoms & inner
    out = []
    while left:
        part, todo = 0, left & -left
        while todo:
            left ^= todo
            reach = 0
            while todo:
                low = todo & -todo
                a = low.bit_length() - 1
                part |= up[a]
                reach |= down[ortho[a]]
                todo ^= low
            todo = reach & left
        out.append(part & inner)
    return out


def _product_order(parts: list) -> tuple[list, list, list]:
    """Sorted node masks, up rows and down rows of the product of the
    summands' Sub, ``parts`` holding each summand's node masks and its
    Hasse diagram as two sequences (lower, upper), or None for a searched
    summand.

    A Boolean summand comes with its masks in ``_partition_table`` order
    and its partitions' covers (``_block_masks``).  A searched one's masks
    are sorted in place and transposed (``inclusion_rows``), and its
    diagram is read off its up rows: ascending masks are a linear
    extension of inclusion, so its pairs run by their lower node from the
    last down.  One searched summand alone is returned with its transposed
    rows; a Boolean one alone never comes here, as ``_boolean_family``
    builds its rows.  The product's masks are multiplied out, one node of
    each summand ORed in that order, and sorted once, each node taking the
    one bit of its sorted position.  A node lies below another exactly when
    each of its coordinates does.  So with col[j] of a summand the bits of
    the nodes whose coordinate there is j, and a summand's up row spread
    across the product the OR of the columns of the nodes above it,
    ``_cover_rows`` on the columns gives a summand's spread rows with one
    OR per cover pair each way, and a node's up row is the AND of its
    coordinates' spread up rows; down rows likewise.  A summand's columns
    partition the N nodes, so its last is the complement of the others;
    the last summand's columns are the runs themselves, each node of it
    one run of the nodes that agree on it alone.
    """
    masks = [0]
    for found, covers in parts:
        if covers is None:
            found.sort()
        masks = [m | f for m in masks for f in found]
    if len(parts) == 1:
        return found, *inclusion_rows(found)
    order = sorted(range(len(masks)), key=masks.__getitem__)
    runs = [0] * len(masks)
    for r, p in enumerate(order):
        runs[p] = 1 << r
    # columns from runs of nodes, first summand first: the runs hold the
    # nodes that agree on the coordinates of all the summands left, at
    # first each node alone as its bit.  Coordinate j of a summand is runs
    # j * step to (j + 1) * step, and runs q, q + step, ... make one run of
    # the summands after it
    everything = (1 << len(masks)) - 1
    up = down = [-1]  # every bit set: the AND of no rows
    for found, covers in parts:
        step = len(runs) // len(found)
        if step == 1:
            cols = runs
        else:
            cols = [sum(runs[t:t + step]) for t in range(0, len(runs) - step, step)]
            cols.append(everything ^ sum(cols))
            runs = [sum(runs[q::step]) for q in range(step)]
        if covers is None:
            rows = inclusion_rows(found)[0]
            # ascending masks are a linear extension of inclusion
            covers = zip(*[(i, j) for i in reversed(range(len(rows)))
                           for j in bits(_cover_row(rows, i))])
        U, D = _cover_rows(*covers, cols)
        up = [x & y for x in up for y in U]
        down = [x & y for x in down for y in D]
    return [masks[p] for p in order], [up[p] for p in order], [down[p] for p in order]


def enumerate_subalgebras(L: FiniteOrtholattice, boolean_only: bool = False,
                          cap: Optional[int] = None) -> SubalgebraPoset:
    """Enumerate Sub(L) (or BSub(L) with ``boolean_only``) as a poset.

    Sub(L) is enumerated one horizontal summand (``_summands``) at a time.
    A summand is closed under ' by definition; across summands x ^ y = 0
    and x v y = (x' ^ y')' = 1; and a meet of two elements of a summand is
    0 or lies below both, so in the summand.  So a union of subalgebras, one
    of each summand, is a subalgebra, and every subalgebra is such a union:
    Sub(L) is the product of the summands' Sub, its node masks the ORs of
    one node of each.  A four-element block {0, a, a', 1} is a 2^2 summand,
    and MO_k is k of them; a connected L is one summand.

    A summand of an orthomodular L is Boolean exactly when it has 2^k
    elements, counting 0 and 1, with k its atoms.  A finite OML is
    atomistic, so its elements have distinct sets of atoms below them, and
    2^k elements take every set.  Two atoms a, b that are not orthogonal
    would leave a third atom below a v b, under a' ^ (a v b), which is
    nonzero by orthomodularity; so the atoms are orthogonal and generate
    the whole summand as a Boolean algebra.  All its subalgebras are then
    Boolean, one per set partition of its atoms (Sachs), and they are read
    off the partitions (``_boolean_family``) with no search.  Any other
    summand is searched by Close-by-One over L's linear extension
    ``_ranked`` (``_search``), each closure built incrementally from its
    already closed parent.

    BSub(L) of an orthomodular L needs no search either: every Boolean
    subalgebra lies in a block, and the blocks are the Boolean subalgebras
    generated by the maximal sets of pairwise orthogonal atoms
    (``_blocks``).  So BSub(L) is the union of Sub(block) over the blocks,
    all read off the partitions of their atoms by one ``_boolean_family``
    call.  BSub of any other ortholattice is one Close-by-One over all of L
    that rejects each closure ``is_boolean`` refuses.

    The inclusion order of Sub is the product of the summands' orders too,
    since their masks share only the bottom: ``_product_order`` multiplies
    the orders out, a product node below another exactly when each of its
    coordinates is.  A family that stands alone (Sub of a connected L, and
    BSub) comes with its rows: read off partitions, it builds them from the
    covers of the partition lattice; searched, and BSub of an ortholattice
    that is not orthomodular, it transposes its sorted masks.  Inside a
    product a Boolean summand builds no rows: it hands over its masks in
    partition table order with its partitions' covers (``_block_masks``),
    and ``_product_order`` spreads each summand's covers across the
    product's columns, a searched summand's read off its transposed rows.

    ``cap`` bounds the node count (default 100000, or the OMLKIT_NODE_CAP
    environment variable); going past it raises ExplosionCap, and no
    summand or block reads more than cap + 1 masks on the way.
    """
    cap = _node_cap(cap)
    bottom = L.closure_mask(0)
    search = None
    # 2^1 has no inner elements, so no summand: its Sub is the bottom alone
    family, families, count = ([bottom], [1], [1]), [], 1
    # BSub is one family over all the inner elements
    parts = [L.universe ^ bottom] if boolean_only else _summands(L)
    for part in parts:
        # the count so far times this family's stays within cap
        budget = cap // count
        inner_atoms = part & L._atoms
        if boolean_only and L.is_orthomodular:
            family = _boolean_family(L, L._block_atoms, budget)
        elif L.is_orthomodular and part.bit_count() + 2 == 1 << inner_atoms.bit_count():
            # alone it brings its rows, inside a product its diagram
            family = (_boolean_family(L, [inner_atoms], budget) if len(parts) == 1
                      else _block_masks(L, inner_atoms, budget))
        else:
            search = search or _search(L, boolean_only, bottom)
            family = search(part, budget), None
        if len(family[0]) > budget:
            raise ExplosionCap(
                f"more than {cap} subalgebras (stopped at {cap + 1} nodes); "
                f"raise the cap with {NODE_CAP_ENV}")
        families.append(family)
        count *= len(family[0])
    # a family alone read off partitions, and 2^1's bottom, come with rows
    masks, up, down = family if len(family) == 3 else _product_order(families)
    # the inclusion order of distinct sets is a partial order
    poset = SubalgebraPoset._trusted(up, down)
    # the masks are distinct closed sets in ascending order, so {0, n-1} comes first
    poset.owner, poset.masks = L, tuple(masks)
    return poset


def sub(L: FiniteOrtholattice, **kw) -> SubalgebraPoset:
    """All subalgebras of L, ordered by inclusion."""
    return enumerate_subalgebras(L, boolean_only=False, **kw)


def bsub(L: FiniteOrtholattice, **kw) -> SubalgebraPoset:
    """All Boolean subalgebras of L, ordered by inclusion."""
    return enumerate_subalgebras(L, boolean_only=True, **kw)


# -- poset isomorphism -------------------------------------------------------

def check_order_iso(mapping, source: AbstractPoset, target: AbstractPoset) -> tuple[int, ...]:
    """Validate a node map as an order isomorphism; raises NotAnIso.

    Returns the map as a tuple.  Order preservation is checked in both
    directions since callers hand in arbitrary data: source's rows, renamed
    along the map, must equal target's.  They are compared whole; only when
    they differ does a walk over the nodes name the first that the map does
    not preserve, if any.
    """
    mapping = tuple(mapping)
    if len(mapping) != source.size or not target._is_permutation(mapping):
        raise NotAnIso("node map is not a bijection between the posets")
    renamed = _permuted(source.up, source.down, mapping)
    if renamed != list(target.up):
        for i, v in enumerate(mapping):
            if renamed[v] & ~target.up[v]:
                j = next(j for j in bits(source.up[i]) if not target.up[v] >> mapping[j] & 1)
                raise NotAnIso(f"node map does not preserve node order at {i} <= {j}")
        raise NotAnIso("node map does not reflect node order")
    return mapping


def poset_isomorphisms(P: AbstractPoset, Q: AbstractPoset) -> Iterator[tuple[int, ...]]:
    """All order isomorphisms P -> Q as node maps, canonically ordered.

    Backtracking pruned by (cone sizes, height, cover degrees) signatures.
    Limited to posets of at most 5000 nodes; beyond that raises Unsupported.
    """
    if max(P.size, Q.size) > POSET_ISO_CAP:
        raise Unsupported(f"poset isomorphism search capped at {POSET_ISO_CAP} nodes")
    if P.size != Q.size:
        return
    for mapping in _order_isos(P, Q, P._order_signatures(), Q._order_signatures()):
        yield tuple(mapping)


def poset_isomorphic(P: AbstractPoset, Q: AbstractPoset) -> Optional[tuple[int, ...]]:
    """A witness node bijection preserving order both ways, or None."""
    return next(poset_isomorphisms(P, Q), None)


def poset_automorphisms(P: AbstractPoset) -> list[tuple[int, ...]]:
    return list(poset_isomorphisms(P, P))
