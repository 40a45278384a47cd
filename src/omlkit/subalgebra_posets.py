"""Enumeration of subalgebra families and the order theory they live in.

Sub(L) is the family of all subalgebras of a finite ortholattice, BSub(L)
the family of Boolean ones, both ordered by inclusion.  Enumeration is a
depth-first Close-by-One search from {0,1} (for Sub, one per horizontal
summand) that lists each subalgebra once and closes each new set
incrementally from its parent; posets come out with nodes sorted ascending
by bit-set value so identical inputs give identical output, byte for byte.
The inclusion rows of Sub of a horizontal sum are composed from the
summands' own rows; a product of at most 64 nodes, a connected lattice and
BSub are transposed from their masks in one pass.
"""

from __future__ import annotations

import os
from functools import reduce
from itertools import compress
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
    _induced,
    _is_int,
    _Order,
    _order_isos,
    _permuted,
    bits,
)

DEFAULT_NODE_CAP = 100000
NODE_CAP_ENV = "OMLKIT_NODE_CAP"
POSET_ISO_CAP = 5000

SUB = "sub"
BSUB = "bsub"


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

    def covers(self, x: int) -> tuple[int, ...]:
        return tuple(bits(self.cover_up[x]))

    def join(self, x: int, y: int) -> Optional[int]:
        return self._above.get(self.up[x] & self.up[y])

    def meet(self, x: int, y: int) -> Optional[int]:
        return self._below.get(self.down[x] & self.down[y])

    def height(self, x: int) -> int:
        """One less than the size of a maximal chain from the bottom to x."""
        if self.bottom() is None:
            raise NoLeastElement("height needs a least element")
        return self.heights[x]

    def interval_below(self, x: int) -> tuple["AbstractPoset", tuple[int, ...]]:
        """The induced order on {y : y <= x}, relabeled to 0..k-1.

        Returns (poset, support) where support[i] is the original node of
        relabeled node i.
        """
        if not (_is_int(x) and 0 <= x < self.size):
            raise MalformedInput(f"node {x!r} out of range")
        return AbstractPoset(_induced(self.up, self.down[x])), tuple(bits(self.down[x]))

    def dual(self) -> "AbstractPoset":
        return AbstractPoset(self.down)

    def relabel(self, perm: Sequence[int]) -> "AbstractPoset":
        perm = tuple(perm)
        if not self._is_permutation(perm):
            raise MalformedInput("relabeling is not a permutation")
        return AbstractPoset(_permuted(self.up, perm))

    def as_abstract(self) -> "AbstractPoset":
        """A plain copy with any subalgebra decoration dropped."""
        return AbstractPoset(self.up)


class SubalgebraPoset(AbstractPoset):
    """Inclusion order on an enumerated family of subalgebras of one lattice."""

    def __init__(self, up, owner: FiniteOrtholattice,
                 nodes: Sequence[SubalgebraSet], flavor: str):
        super().__init__(up)
        self._attach(owner, nodes, flavor)

    @classmethod
    def _enumerated(cls, up: Sequence[int], down: Sequence[int], owner: FiniteOrtholattice,
                    nodes: Sequence[SubalgebraSet], flavor: str) -> "SubalgebraPoset":
        """The poset ``enumerate_subalgebras`` built, without validating the
        order: the inclusion order of distinct sets is always a partial order."""
        self = cls.__new__(cls)
        self.up, self.size, self.down = tuple(up), len(up), tuple(down)
        self._attach(owner, nodes, flavor)
        return self

    def _attach(self, owner: FiniteOrtholattice, nodes: Sequence[SubalgebraSet], flavor: str):
        self.owner = owner
        self.nodes = tuple(nodes)
        self.flavor = flavor
        self._index = {s.members: i for i, s in enumerate(self.nodes)}
        if not self.nodes or self.nodes[0].members != 1 | 1 << (owner.n - 1):
            raise MalformedInput("the first node must be the trivial subalgebra {0, n-1}")

    def node_index(self, members) -> int:
        mask = members.members if isinstance(members, SubalgebraSet) else members
        try:
            return self._index[mask]
        except KeyError:
            raise MalformedInput("element set is not a node of this poset") from None

    def labels(self) -> list[tuple[int, ...]]:
        return [s.elements for s in self.nodes]


def _node_cap(cap: Optional[int]) -> int:
    if cap is not None:
        return cap
    raw = os.environ.get(NODE_CAP_ENV)
    if raw is None:
        return DEFAULT_NODE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise MalformedInput(f"{NODE_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise MalformedInput(f"{NODE_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


def close_by_one(candidates: Sequence[int], bottom: int, state, extend,
                 cap: int) -> list[int]:
    """Every closed set of a closure system, each exactly once.

    Kuznetsov's Close-by-One, depth first from the least closed set
    ``bottom``: from a closed set s reached by adding element e, try each of
    the ascending ``candidates`` above e not in s (elements never added
    canonically may be left out).  ``extend(s, state, e)`` returns the
    closure of s plus e with its state; or, if that closure adds an element
    w below e (it is reached from another parent), w; or None if the caller
    rejects it, which skips its subtree (sound for families closed under
    closed subsets, such as Boolean subalgebras).  As in Outrata and
    Vychodil's Fast Close-by-One, children inherit the witnesses: w is in
    the closure of any closed s' above s plus e, so a child missing w fails
    at e untried.  Stops once more than ``cap`` sets are found, returning
    them unsorted.
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
    the nodes containing each element.  A node's up row is the AND of its
    members' columns, its down row the AND of the other columns' complements.
    ``enumerate_subalgebras`` calls it on one summand's masks or on a product
    of at most 64 nodes; larger products of summands are composed from these
    rows (``_compose``) without transposing the product again.
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


def _split_closure(L: FiniteOrtholattice, s: int, atoms: list[int], e: int):
    """``close_by_one``'s extension of the Boolean subalgebra s, with atoms
    ``atoms``, by an element e that commutes with all of s.

    By Foulis-Holland each atom a splits into a ^ e and a ^ e', and the
    nonzero parts are the atoms of the closure, whose elements are their
    joins.  A new atom below e is returned as the witness as soon as it
    appears; otherwise the joins are formed by doubling and checked.
    """
    meet_e, meet_o, join = L._meet[e], L._meet[L.ortho[e]], L._join
    parts = []
    for a in atoms:
        t, u = meet_e[a], meet_o[a]
        if not (t and u):
            parts.append(a)
        elif t < e or u < e:
            return min(t, u)
        else:
            parts += (t, u)
    members = [0]
    for t in parts:
        row = join[t]
        members += [row[x] for x in members]
    mask = 0
    for x in members:
        mask |= 1 << x
    new_below = mask & ~s & (1 << e) - 1
    if new_below:
        return new_below.bit_length() - 1
    return mask, parts


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
    left = L.cover_up[0] & inner
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


# A product of at most this many nodes is multiplied out and transposed by
# inclusion_rows; above it the rows are composed.  Composing pays for the
# groups' own rows, two sorts and the rank columns, which a small product's
# transpose undercuts: best of 30, composing took 1.1-2.1 times as long as
# the transpose up to 32 nodes (MO5), 0.8-0.9 times at 50-64 and 0.4 times
# at 225 (hsum(2^4,2^4)).  The cut sits at the top of the even range.
_COMPOSE_ABOVE = 64


def _product_order(parts: list[list[int]]) -> tuple[list[int], list[int], list[int]]:
    """Sorted node masks, up rows and down rows of the product of the
    summands' Sub, ``parts`` holding each summand's node masks.

    A small product, or one summand alone, is multiplied out (every mask
    holds the bottom, so one summand's masks are its product) and sorted in
    place, then transposed.  A larger one is split into two groups of about
    equal product, each built the same way, and their orders composed.
    """
    size = 1
    for found in parts:
        size *= len(found)
    if len(parts) == 1 or size <= _COMPOSE_ABOVE:
        masks = parts[0]
        for found in parts[1:]:
            masks = [m | f for m in masks for f in found]
        masks.sort()
        return (masks, *inclusion_rows(masks))
    head, heads = 1, []
    for found in parts[:-1]:
        head *= len(found)
        heads.append(head)
    k = min(range(len(heads)), key=lambda i: max(heads[i], size // heads[i])) + 1
    return _compose(_product_order(parts[:k]), _product_order(parts[k:]))


def _compose(left, right) -> tuple[list[int], list[int], list[int]]:
    """The product of two inclusion orders on masks that share only the
    bottom, each given and returned as (sorted masks, up rows, down rows).

    Product node (i, j) is the mask a_i | b_j, and (i, j) <= (k, l) exactly
    when i <= k and j <= l.  So with col[i] the product nodes whose left
    coordinate is i, by rank in sorted order, and U[i] the union of col[k]
    over k in up[i], the up row of (i, j) is U[i] & V[j], V built the same
    way on the right; down rows likewise.
    """
    (masks_a, up_a, down_a), (masks_b, up_b, down_b) = left, right
    width = len(masks_b)
    masks = [a | b for a in masks_a for b in masks_b]
    order = sorted(range(len(masks)), key=masks.__getitem__)
    rank = sorted(range(len(masks)), key=order.__getitem__)
    col_a = [sum([1 << r for r in rank[i:i + width]]) for i in range(0, len(rank), width)]
    col_b = [sum([1 << r for r in rank[j::width]]) for j in range(width)]

    def spread(rows, cols):
        # the columns are disjoint, so their union is their sum
        return [sum([cols[k] for k in bits(row)]) for row in rows]

    up_b, down_b = spread(up_b, col_b), spread(down_b, col_b)
    up = [x & y for x in spread(up_a, col_a) for y in up_b]
    down = [x & y for x in spread(down_a, col_a) for y in down_b]
    return [masks[p] for p in order], [up[p] for p in order], [down[p] for p in order]


def enumerate_subalgebras(L: FiniteOrtholattice, boolean_only: bool = False,
                          cap: Optional[int] = None) -> SubalgebraPoset:
    """Enumerate Sub(L) (or BSub(L) with ``boolean_only``) as a poset.

    Close-by-One over the subalgebra closure, with each closure built
    incrementally from its already closed parent.  For BSub of an
    orthomodular L an element is added only if it commutes with every
    element already present: by Foulis-Holland the result is then Boolean,
    and every Boolean subalgebra is reached that way.  Such a node is kept
    as its atoms: e commutes with each atom a, so a = (a ^ e) v (a ^ e'),
    and the nonzero parts are the child's atoms (``_split_closure``).  For other
    ortholattices each closure is tested with ``is_boolean``.

    Sub(L) is the product of its horizontal summands' Sub, so the search
    runs once per summand (``_summands``) and the node masks are the ORs of
    one node of each.  A summand is closed under ' by definition; across
    summands x ^ y = 0 and x v y = (x' ^ y')' = 1; and a meet of two
    elements of a summand is 0 or lies below both, so in the summand.  So
    a union of subalgebras, one of each summand, is a subalgebra, and every
    subalgebra is such a union.  This holds in any ortholattice.  A
    four-element block {0, a, a', 1} is a 2^2 summand, and MO_k is k of
    them; a connected L is one summand and gets one search.

    The inclusion order is the product of the summands' orders too, since
    their masks share only the bottom.  So each summand's rows come from
    ``inclusion_rows`` on its own masks, and the rows of a product of more
    than 64 nodes are composed from them in balanced halves
    (``_product_order``, ``_compose``) instead of transposing every product
    mask; a smaller product is multiplied out and transposed.

    ``cap`` bounds the node count (default 100000, or the OMLKIT_NODE_CAP
    environment variable); going past it raises ExplosionCap, and no list
    of more than cap + 1 masks is built on the way.
    """
    cap = _node_cap(cap)
    bottom = L.closure_mask(0)
    state = list(bits(bottom))
    extend_closed = L._extend

    if not boolean_only:
        def extend(s, members, e):
            return extend_closed(s, members, (e,), e)
    elif L.is_orthomodular:
        commuting = L.commuting
        state = [L.n - 1]

        def extend(s, atoms, e):
            if s & ~commuting[e]:
                return None
            return _split_closure(L, s, atoms, e)
    else:
        def extend(s, members, e):
            child = extend_closed(s, members, (e,), e)
            if child.__class__ is tuple and not L.is_boolean(child[0]):
                return None
            return child

    # an element above its complement drags that smaller complement in
    candidates = [e for e in range(L.n) if L.ortho[e] > e]
    # a Boolean subalgebra lies in one summand: BSub is no product
    parts, count = [], 1
    for part in [L.universe] if boolean_only else _summands(L):
        # the product so far times this summand's count stays within cap
        budget = cap // count
        found = close_by_one([e for e in candidates if part >> e & 1],
                             bottom, state, extend, budget)
        if len(found) > budget:
            raise ExplosionCap(
                f"more than {cap} subalgebras (stopped at {cap + 1} nodes); "
                f"raise the cap with {NODE_CAP_ENV}")
        parts.append(found)
        count *= len(found)
    # 2^1 has no inner elements, so no summand: its Sub is the bottom alone
    masks, up, down = _product_order(parts or [[bottom]])
    nodes = [SubalgebraSet(L, m) for m in masks]
    return SubalgebraPoset._enumerated(up, down, L, nodes, BSUB if boolean_only else SUB)


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
    along the map, must equal target's.
    """
    mapping = tuple(mapping)
    if len(mapping) != source.size or not target._is_permutation(mapping):
        raise NotAnIso("node map is not a bijection between the posets")
    renamed = _permuted(source.up, mapping)
    for i, v in enumerate(mapping):
        if renamed[v] & ~target.up[v]:
            j = next(j for j in bits(source.up[i]) if not target.up[v] >> mapping[j] & 1)
            raise NotAnIso(f"node map does not preserve node order at {i} <= {j}")
    if renamed != list(target.up):
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
