"""Finite ortholattices and orthomodular lattices over bit-set universes.

Elements are the integers 0..n-1 with 0 the least and n-1 the greatest
element.  Every subset of the lattice is a Python int used as a bit set,
which is why the universe is capped at 64 elements: one machine word per
subset keeps the exhaustive searches cheap.

Validated lattices are immutable after construction; all operations here are
pure functions of their inputs, so instances are safe to share freely.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    BadOrthocomplement,
    FlavorError,
    MalformedInput,
    NoBoundedLattice,
    NotAMorphism,
    NotAPartialOrder,
    SizeCap,
    UnknownName,
)

MAX_ELEMENTS = 64

ORTHOLATTICE = "ortholattice"
ORTHOMODULAR = "orthomodular"


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(elements: Iterable[int]) -> int:
    mask = 0
    for e in elements:
        mask |= 1 << e
    return mask


def _is_int(v) -> bool:
    """Whether ``v`` is an integer and not a bool (JSON's true is no index)."""
    return isinstance(v, int) and not isinstance(v, bool)


class _Order:
    """A finite partial order on 0..size-1, the core of lattices and posets:
    ``up[i]`` and ``down[i]`` are the bit sets of the points above and below
    i.  The constructor checks the partial-order axioms."""

    def __init__(self, up: Sequence[int]):
        self.up = tuple(up)
        self.size = len(self.up)
        self.down = _order_down(self.up)

    @staticmethod
    def _read_pairs(size: int, pairs: Iterable, noun: str) -> list[int]:
        """The ``up`` rows of the (lower, upper) ``pairs`` on 0..size-1: two
        integers in range each, none twice, and at least one per point (as
        reflexivity needs), which is checked before any row is allocated."""
        seen = set()
        for pair in pairs:
            try:
                i, j = pair
            except (TypeError, ValueError):
                raise MalformedInput(f"bad relation pair {pair!r}") from None
            if not (_is_int(i) and _is_int(j)):
                raise MalformedInput(f"bad relation pair {pair!r}")
            if not (0 <= i < size and 0 <= j < size):
                raise MalformedInput(f"pair {pair!r} out of range")
            if (i, j) in seen:
                raise MalformedInput(f"duplicate pair {pair!r}")
            seen.add((i, j))
        if size > len(seen):
            raise NotAPartialOrder(f"{len(seen)} pairs cannot be reflexive on {size} {noun}")
        rows = [0] * size
        for i, j in seen:
            rows[i] |= 1 << j
        return rows

    def _is_permutation(self, perm: Sequence) -> bool:
        """Whether ``perm`` lists each point 0..size-1 once, as integers."""
        return (len(perm) == self.size
                and all(map(_is_int, perm))
                and sorted(perm) == list(range(self.size)))

    def __len__(self):
        return self.size

    def leq(self, a: int, b: int) -> bool:
        return bool(self.up[a] >> b & 1)

    def pairs(self) -> list[tuple[int, int]]:
        """The (lower, upper) pairs of the order, ascending."""
        return [(i, j) for i in range(self.size) for j in bits(self.up[i])]

    @cached_property
    def cover_up(self) -> tuple[int, ...]:
        """cover_up[a] is the bit set of the points covering a."""
        return _covers(self.up)

    @cached_property
    def cover_down(self) -> tuple[int, ...]:
        return _transpose(self.cover_up)

    @cached_property
    def heights(self) -> tuple[int, ...]:
        """Length of a longest chain up to each point (0 for minimal ones)."""
        return _heights(self.down, self.cover_down)

    @cached_property
    def depths(self) -> tuple[int, ...]:
        return _heights(self.up, self.cover_up)

    @cached_property
    def _above(self) -> dict[int, int]:
        """{up row: point}.  The least upper bound of a set, if any, is the
        point whose up row is the AND of the set's up rows."""
        return {row: x for x, row in enumerate(self.up)}

    @cached_property
    def _below(self) -> dict[int, int]:
        """{down row: point}, for greatest lower bounds likewise."""
        return {row: x for x, row in enumerate(self.down)}

    def _order_signatures(self) -> list[tuple]:
        """Per point: cone sizes, height and cover degrees (order invariants)."""
        return [(
            self.down[x].bit_count(), self.up[x].bit_count(),
            self.heights[x],
            self.cover_up[x].bit_count(), self.cover_down[x].bit_count(),
        ) for x in range(self.size)]


class FiniteOrtholattice(_Order):
    """A validated finite ortholattice, possibly orthomodular.

    ``up[i]`` is the bit set of elements j with i <= j.  The constructor
    checks the partial-order axioms, that 0 and n-1 are the bounds, that
    every pair has a meet and a join, and the orthocomplementation laws
    (involutive, order-reversing, complementing).  ``flavor`` records
    whether the orthomodular law  a <= b  implies  b = a v (a' ^ b)  holds.
    """

    def __init__(self, up: Sequence[int], ortho: Sequence[int], name: Optional[str] = None):
        up = tuple(up)
        n = len(up)
        if n < 2:
            raise NoBoundedLattice("a bounded lattice needs at least 2 elements")
        if n > MAX_ELEMENTS:
            raise SizeCap(f"{n} elements exceed the bit-set cap of {MAX_ELEMENTS}")
        super().__init__(up)
        universe = (1 << n) - 1
        down = self.down
        if up[0] != universe:
            raise NoBoundedLattice("element 0 is not the least element")
        if down[n - 1] != universe:
            raise NoBoundedLattice(f"element {n - 1} is not the greatest element")

        # rows are distinct, so meet(a, b) is the element whose down row is
        # down[a] & down[b], if there is one; joins likewise on up rows
        below, above = self._below, self._above
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
        if not self._is_permutation(ortho):
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

        self.n = n
        self.ortho = ortho
        self.name = name
        self._meet = tuple(tuple(row) for row in meet)
        self._join = tuple(tuple(row) for row in join)
        self.flavor = ORTHOMODULAR if self._orthomodular_on(universe) else ORTHOLATTICE

    # -- basic queries ----------------------------------------------------

    def __repr__(self):
        tag = self.name or f"{self.n} elements"
        return f"<FiniteOrtholattice {tag}: {self.flavor}>"

    @property
    def universe(self) -> int:
        return (1 << self.n) - 1

    @property
    def top(self) -> int:
        return self.n - 1

    @property
    def is_orthomodular(self) -> bool:
        return self.flavor == ORTHOMODULAR

    @cached_property
    def is_boolean_algebra(self) -> bool:
        """Whether the whole lattice is a Boolean algebra (checked once): by
        Foulis-Holland, an orthomodular lattice whose elements all commute."""
        return self.flavor == ORTHOMODULAR and all(
            row == self.universe for row in self.commuting)

    def meet(self, a: int, b: int) -> int:
        return self._meet[a][b]

    def join(self, a: int, b: int) -> int:
        return self._join[a][b]

    def ocomp(self, a: int) -> int:
        return self.ortho[a]

    def atoms(self) -> tuple[int, ...]:
        return tuple(bits(self.cover_up[0]))

    def coatoms(self) -> tuple[int, ...]:
        return tuple(bits(self.cover_down[self.n - 1]))

    # -- commutation and subalgebras --------------------------------------

    def commutes(self, a: int, b: int) -> bool:
        """Whether a = (a^b) v (a^b'); only meaningful on orthomodular lattices."""
        if self.flavor != ORTHOMODULAR:
            raise FlavorError("commutation is only defined on orthomodular lattices")
        return self._commutes(a, b)

    def _orthomodular_on(self, mask: int) -> bool:
        """Whether a <= b implies b = a v (a' ^ b) for a, b in ``mask``."""
        up, meet, join, ortho = self.up, self._meet, self._join, self.ortho
        for a in bits(mask):
            row, co_row = join[a], meet[ortho[a]]
            for b in bits(up[a] & mask):
                if row[co_row[b]] != b:
                    return False
        return True

    def _commutes(self, a: int, b: int) -> bool:
        row = self._meet[a]
        return self._join[row[b]][row[self.ortho[b]]] == a

    @cached_property
    def commuting(self) -> tuple[int, ...]:
        """commuting[a] is the bit set of elements that commute with a.

        a C b reads a = (a ^ b) v (a ^ b'), symmetric in b and b', and C is
        symmetric, so a and a' share a row.  Comparable and orthogonal elements
        commute (a <= b gives a v (a ^ b') = a), so the cones of a and a' are
        set untested, and each other pair {b, b'} is tested once.
        """
        if self.flavor != ORTHOMODULAR:
            raise FlavorError("commutation is only defined on orthomodular lattices")
        up, down, ortho, meet, join = self.up, self.down, self.ortho, self._meet, self._join
        out = [up[a] | down[a] | up[o] | down[o] for a, o in enumerate(ortho)]
        for a, (o, row) in enumerate(zip(ortho, meet)):
            # the pairs below a were tested from their side
            for b in bits(self.universe & ~out[a] & -(2 << a) if a < o else 0):
                c = ortho[b]
                if b < c and join[row[b]][row[c]] == a:
                    out[a] |= 1 << b | 1 << c
                    out[b] |= 1 << a | 1 << o
        return tuple(out[min(a, o)] for a, o in enumerate(ortho))

    def closure_mask(self, mask: int) -> int:
        """Close ``mask`` under complement, meet and join, plus the bounds."""
        if not _is_int(mask):
            raise MalformedInput(f"element set must be an integer bit set, got {mask!r}")
        if mask & ~self.universe:
            raise MalformedInput(f"element set mentions elements outside 0..{self.n - 1}")
        return self._extend(0, (), tuple(bits(mask | 1 | 1 << (self.n - 1))))[0]

    def _extend(self, mask: int, members: Sequence[int], new: Sequence[int],
                floor: int = 0) -> tuple[int, list[int]] | int:
        """Close ``mask`` plus ``new`` under complement and meet.

        ``mask`` must already be closed, with ``members`` listing its
        elements.  Semi-naive: each new element is combined only with the
        elements listed before it, so pairs of old members are never
        revisited.  Joins come for free, since a v b = (a' ^ b')' in an
        ortholattice.  Returns the closed mask and its member list or, as
        soon as an element below ``floor`` outside ``mask`` appears, that
        element (the Close-by-One canonicity test fails, and the element
        witnesses it).
        """
        meet, ortho = self._meet, self.ortho
        members = list(members)
        have = set(members)
        i = len(members)
        for v in new:
            if v not in have:
                if v < floor:
                    return v
                have.add(v)
                members.append(v)
                mask |= 1 << v
        while i < len(members):
            x = members[i]
            fresh = set(map(meet[x].__getitem__, members[:i]))
            fresh.add(ortho[x])
            fresh -= have
            if fresh:
                if min(fresh) < floor:
                    return min(fresh)
                have |= fresh
                members.extend(fresh)
                for v in fresh:
                    mask |= 1 << v
            i += 1
        return mask, members

    def generated_subalgebra(self, seed: Iterable[int] = ()) -> "SubalgebraSet":
        """Least subalgebra containing ``seed`` (and always 0 and n-1)."""
        mask = 0
        for e in seed:
            if not (_is_int(e) and 0 <= e < self.n):
                raise MalformedInput(f"element {e!r} out of range")
            mask |= 1 << e
        return SubalgebraSet(self, self.closure_mask(mask))

    def subalgebra(self, members) -> "SubalgebraSet":
        """Wrap an element set as a SubalgebraSet, insisting it is closed."""
        mask = members
        if isinstance(members, Iterable):
            # a negative or non-integer element has no bit: give it one
            # outside the universe (closure_mask rejects a non-integer mask)
            mask = mask_of(self.n if not _is_int(e) or e < 0 else e for e in members)
        if self.closure_mask(mask) != mask:
            raise MalformedInput("element set is not a closed subalgebra")
        return SubalgebraSet(self, mask)

    def is_boolean(self, s) -> bool:
        """Whether the closed set ``s`` is a Boolean subalgebra: whether its
        elements pairwise commute, a = (a ^ b) v (a ^ b'), bounds skipped.
        For a <= b, b commuting with a reads b = a v (a' ^ b), so s is then
        orthomodular, and Boolean by Foulis-Holland."""
        mask = s.members if isinstance(s, SubalgebraSet) else s
        els = [e for e in bits(mask) if e != 0 and e != self.n - 1]
        meet, join, ortho = self._meet, self._join, self.ortho
        for a in els:
            row = meet[a]
            for b in els:
                if join[row[b]][row[ortho[b]]] != a:
                    return False
        return True

    def blocks(self) -> list["SubalgebraSet"]:
        """All maximal Boolean subalgebras, ascending by bit-set value.

        These are the maximal nodes of BSub(L), read off its enumeration, so
        the enumerator's node cap applies (100000 nodes, or the
        OMLKIT_NODE_CAP environment variable): past it, ExplosionCap.
        """
        if self.flavor != ORTHOMODULAR:
            raise FlavorError("blocks are defined for orthomodular lattices")
        from .subalgebra_posets import bsub

        p = bsub(self)
        return [p.nodes[x] for x in p.maximal_elements()]


# -- order core helpers ----------------------------------------------------

def _order_down(up: Sequence[int]) -> tuple[int, ...]:
    """Check that the ``up`` rows are a partial order; return its ``down`` rows."""
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
    return _transpose(up)


def _transpose(rows: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in bits(row):
            out[j] |= 1 << i
    return tuple(out)


def _covers(up: Sequence[int]) -> tuple[int, ...]:
    """Bit b of row a is set when b covers a: the strict up-set of a minus
    the strict up-sets of its members.  A member already removed lies above
    one still kept, so its up-set is gone too and it need not be walked."""
    out = []
    for a, row in enumerate(up):
        cov = rest = row ^ 1 << a
        while rest:
            low = rest & -rest
            cov &= ~up[low.bit_length() - 1] | low
            rest &= cov ^ low
        out.append(cov)
    return tuple(out)


def _heights(down: Sequence[int], cover_down: Sequence[int]) -> tuple[int, ...]:
    """Length of a longest chain ending at each element (0 for minimal ones)."""
    h = [0] * len(down)
    for x in sorted(range(len(down)), key=lambda v: down[v].bit_count()):
        h[x] = 1 + max((h[y] for y in bits(cover_down[x])), default=-1)
    return tuple(h)


def _induced(rows: Sequence[int], mask: int) -> list[int]:
    """The order induced on ``mask``, renumbered 0..k-1 in ascending order."""
    local = {g: 1 << i for i, g in enumerate(bits(mask))}
    out = []
    for g in local:
        row = 0
        for h in bits(rows[g] & mask):
            row |= local[h]
        out.append(row)
    return out


def _permuted(rows: Sequence[int], perm: Sequence[int]) -> list[int]:
    """Rows of the same order with element i renamed perm[i]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        renamed = 0
        while row:
            low = row & -row
            renamed |= 1 << perm[low.bit_length() - 1]
            row ^= low
        out[perm[i]] = renamed
    return out


class _Record:
    """Value semantics for a slotted class, as a frozen dataclass has them.

    A subclass names its fields in ``__slots__``, in ``__init__`` order, and
    sets them with ``object.__setattr__``.  Equal fields mean equal objects
    with equal hashes; assigning or deleting a field raises AttributeError.
    Unlike ``dataclasses``, nothing is generated at class creation.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}"
                         for name, value in zip(self.__slots__, self._fields()))
        return f"{self.__class__.__qualname__}({body})"


class SubalgebraSet(_Record):
    """A closed subset of a fixed lattice, stored as a bit set of elements."""

    __slots__ = ("owner", "members")

    def __init__(self, owner: FiniteOrtholattice, members: int):
        object.__setattr__(self, "owner", owner)
        object.__setattr__(self, "members", members)

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(bits(self.members))

    def __len__(self):
        return self.members.bit_count()

    def __contains__(self, e: int) -> bool:
        return bool(self.members >> e & 1)

    def is_boolean(self) -> bool:
        return self.owner.is_boolean(self.members)

    def __repr__(self):
        return f"SubalgebraSet({{{','.join(map(str, self.elements))}}})"


# -- morphisms -------------------------------------------------------------

HOM = "hom"
EMBEDDING = "embedding"
ISO = "iso"


class Morphism(_Record):
    """A validated structure map; kind is 'hom', 'embedding' or 'iso'."""

    __slots__ = ("source", "target", "mapping", "kind")

    def __init__(self, source: FiniteOrtholattice, target: FiniteOrtholattice,
                 mapping: tuple[int, ...], kind: str):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "mapping", mapping)
        object.__setattr__(self, "kind", kind)

    def __call__(self, a: int) -> int:
        return self.mapping[a]

    def apply_mask(self, mask: int) -> int:
        out = 0
        for e in bits(mask):
            out |= 1 << self.mapping[e]
        return out

    def image_mask(self) -> int:
        return self.apply_mask(self.source.universe)

    def __repr__(self):
        return f"Morphism({self.kind}: {list(self.mapping)})"


def morphism(source: FiniteOrtholattice, target: FiniteOrtholattice,
             mapping: Sequence[int]) -> Morphism:
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
    for a in range(n):
        for b in range(a, n):
            fa, fb = mapping[a], mapping[b]
            if mapping[source._meet[a][b]] != target._meet[fa][fb]:
                raise NotAMorphism(f"mapping does not preserve meet({a},{b})")
            if mapping[source._join[a][b]] != target._join[fa][fb]:
                raise NotAMorphism(f"mapping does not preserve join({a},{b})")
    kind = HOM
    if len(set(mapping)) == n:
        # an injective lattice homomorphism reflects order: f(a) <= f(b)
        # gives f(a ^ b) = f(a), so a ^ b = a; a bijective one is an iso
        kind = ISO if n == m else EMBEDDING
    return Morphism(source, target, mapping, kind)


def identity_morphism(L: FiniteOrtholattice) -> Morphism:
    return Morphism(L, L, tuple(range(L.n)), ISO)


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f, revalidated."""
    if g.source is not f.target:
        raise NotAMorphism("composition mismatch: target of f is not source of g")
    return morphism(f.source, g.target, tuple(g.mapping[v] for v in f.mapping))


# -- isomorphism search (verification oracle) ------------------------------

def _iso_signatures(L: FiniteOrtholattice) -> list[tuple]:
    """Order signatures plus depth and the complement's down cone and covers."""
    return [sig + (L.depths[a], L.down[o].bit_count(), L.cover_up[o].bit_count())
            for a, (sig, o) in enumerate(zip(L._order_signatures(), L.ortho))]


def isomorphisms(L: FiniteOrtholattice, M: FiniteOrtholattice) -> Iterator[Morphism]:
    """All isomorphisms L -> M, in a canonical order.

    Backtracking over element bijections that preserve order and complement,
    pruned by per-element signatures (heights, cover degrees, the same data
    for the complement).  Deterministic: elements are processed in a fixed
    order and candidates tried ascending.
    """
    if L.n != M.n or L.flavor != M.flavor:
        return
    for mapping in _order_isos(L, M, _iso_signatures(L), _iso_signatures(M),
                               (L.ortho, M.ortho)):
        yield morphism(L, M, tuple(mapping))


def _order_isos(src, tgt, sig_src: list, sig_tgt: list, partner=None) -> Iterator[list[int]]:
    """Bijections between two orders (``up``/``down`` rows) that preserve
    and reflect it and map each element to one with an equal signature.

    Elements with the fewest candidates go first.  Yields the live mapping.
    """
    if sorted(sig_src) != sorted(sig_tgt):
        return iter(())
    n = len(sig_src)
    candidates = [[y for y in range(n) if sig_tgt[y] == sig_src[x]] for x in range(n)]
    order = sorted(range(n), key=lambda x: (len(candidates[x]), x))
    mapping = [-1] * n
    up_s, down_s, up_t, down_t = src.up, src.down, tgt.up, tgt.down

    def consistent(x: int, y: int) -> bool:
        ux, dx, uy, dy = up_s[x], down_s[x], up_t[y], down_t[y]
        for c, d in enumerate(mapping):
            if d >= 0 and (ux >> c & 1 != uy >> d & 1 or dx >> c & 1 != dy >> d & 1):
                return False
        return True

    return _backtrack(order, candidates, consistent, mapping, partner)


def _backtrack(order: Sequence[int], candidates: Sequence[Iterable[int]], consistent,
               mapping: list[int], partner=None, injective: bool = True) -> Iterator[list[int]]:
    """Every completion of ``mapping`` (-1 marks an unmapped element).

    The one backtracking search behind the isomorphism and homomorphism
    enumerators.  It takes the next unmapped element a in ``order`` and
    tries each b of ``candidates[a]`` in turn, keeping a -> b when
    ``consistent(a, b)`` holds for the assignments made so far (and b is
    unused, if ``injective``).  ``partner = (src, tgt)`` forces
    src[a] -> tgt[b] along with a -> b, checked the same way; the
    orthocomplements on both sides are the partners.  Iterative, so the
    depth is not bounded by the recursion limit.  Yields the live
    ``mapping`` list at each complete assignment.
    """
    used = {v for v in mapping if v >= 0}

    def place(a: int, b: int, placed: list[int]) -> bool:
        if injective and b in used or not consistent(a, b):
            return False
        mapping[a] = b
        used.add(b)
        placed.append(a)
        if partner is None:
            return True
        ao, bo = partner[0][a], partner[1][b]
        if mapping[ao] < 0:
            return place(ao, bo, placed)
        return mapping[ao] == bo

    def undo(placed: list[int]):
        while placed:
            a = placed.pop()
            used.discard(mapping[a])
            mapping[a] = -1

    def next_free(pos: int) -> int:
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


def find_isomorphism(L: FiniteOrtholattice, M: FiniteOrtholattice) -> Optional[Morphism]:
    """Some isomorphism L -> M if one exists, else None (brute-force oracle)."""
    return next(isomorphisms(L, M), None)


def automorphisms(L: FiniteOrtholattice) -> list[Morphism]:
    return list(isomorphisms(L, L))


# -- constructions and the catalog -----------------------------------------

def boolean_algebra(num_atoms: int, name: Optional[str] = None) -> FiniteOrtholattice:
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


def product(L: FiniteOrtholattice, M: FiniteOrtholattice,
            name: Optional[str] = None) -> FiniteOrtholattice:
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


def horizontal_sum(summands: Sequence[FiniteOrtholattice],
                   name: Optional[str] = None) -> FiniteOrtholattice:
    """Glue the summands at their bounds; everything else stays incomparable.

    Each summand needs at least 4 elements (a 2-element summand would
    contribute nothing).  For Boolean summands the result is orthomodular
    with the summands as its blocks.
    """
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

    def glob(s_idx: int, e: int) -> int:
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


def mo(k: int) -> FiniteOrtholattice:
    """Bounds plus k orthogonal atom pairs (horizontal sum of k diamonds)."""
    if k < 1:
        raise UnknownName("MO index must be at least 1")
    return horizontal_sum([boolean_algebra(2)] * k, name=f"MO{k}")


def benzene() -> FiniteOrtholattice:
    """The 6-element hexagon 0 < x < y < 1, 0 < y' < x' < 1.

    An ortholattice that is not orthomodular; useful as a counterexample
    input only.
    """
    up = [
        0b111111,        # 0
        0b100110,        # x
        0b100100,        # y
        0b111000,        # y'
        0b110000,        # x'
        0b100000,        # 1
    ]
    ortho = [5, 4, 3, 2, 1, 0]
    return FiniteOrtholattice(up, ortho, "benzene")


def example22() -> FiniteOrtholattice:
    """Two 8-element Boolean blocks pasted along a shared atom pair.

    Elements: 0; atoms a,b,c,d,e = 1..5; coatoms a'..e' = 6..10; 1 = 11.
    The blocks are {0,a,a',b,b',c,c',1} and {0,c,c',d,d',e,e',1}.
    """
    n = 12
    pairs = [
        (1, 7), (1, 8),
        (2, 6), (2, 8),
        (3, 6), (3, 7), (3, 9), (3, 10),
        (4, 8), (4, 10),
        (5, 8), (5, 9),
    ]
    up = [0] * n
    up[0] = (1 << n) - 1
    for e in range(1, n - 1):
        up[e] = (1 << e) | (1 << (n - 1))
    up[n - 1] = 1 << (n - 1)
    for a, b in pairs:
        up[a] |= 1 << b
    ortho = [11, 6, 7, 8, 9, 10, 1, 2, 3, 4, 5, 0]
    return FiniteOrtholattice(up, ortho, "example22")


_BOOLEAN_NAME = re.compile(r"b?2\^(\d+)")
_MO_NAME = re.compile(r"mo(\d+)")
_HSUM_NAME = re.compile(r"hsum\((.*)\)")


def catalog(name: str) -> FiniteOrtholattice:
    """Construct a lattice by name.

    Accepted: ``2^n`` or ``B2^n`` (n <= 5), ``MOk`` (k <= 4), ``MO2x2``,
    ``example22``, ``benzene``, and ``hsum(2^a,2^b,...)`` with Boolean
    summands.  Raises UnknownName for anything else and SizeCap when a
    horizontal sum would pass 64 elements.
    """
    key = name.strip().lower().replace(" ", "")
    if key == "example22":
        return example22()
    if key == "benzene":
        return benzene()
    if key == "mo2x2":
        return product(mo(2), boolean_algebra(1), name="MO2x2")
    m = _BOOLEAN_NAME.fullmatch(key)
    if m:
        k = int(m.group(1))
        if not 1 <= k <= 5:
            raise UnknownName(f"Boolean catalog covers 2^1 .. 2^5, not {name!r}")
        return boolean_algebra(k)
    m = _MO_NAME.fullmatch(key)
    if m:
        k = int(m.group(1))
        if not 1 <= k <= 4:
            raise UnknownName(f"MO catalog covers MO1 .. MO4, not {name!r}")
        return mo(k)
    m = _HSUM_NAME.fullmatch(key)
    if m:
        args = [a for a in m.group(1).split(",") if a]
        if not args:
            raise UnknownName("hsum needs at least one summand")
        summands = []
        for a in args:
            bm = _BOOLEAN_NAME.fullmatch(a)
            if not bm or not 1 <= int(bm.group(1)) <= 5:
                raise UnknownName(f"hsum summands must be 2^1 .. 2^5, got {a!r}")
            summands.append(boolean_algebra(int(bm.group(1))))
        label = "hsum(" + ",".join(f"2^{s.n.bit_length() - 1}" for s in summands) + ")"
        return horizontal_sum(summands, name=label)
    raise UnknownName(name)


# -- structural helpers -----------------------------------------------------

def validate(size: int, leq: Iterable[tuple[int, int]], ortho: Sequence[int],
             name: Optional[str] = None) -> FiniteOrtholattice:
    """Validate raw order data given as (lower, upper) pairs.

    The pairs must spell out the full reflexive-transitive relation; nothing
    is closed or repaired here.  The pair rule (two integer indices in
    range, no pair twice, at least one pair per element) is the order
    core's, shared with ``AbstractPoset.from_pairs`` and the file parsers.
    """
    if size < 1:
        raise MalformedInput("size must be positive")
    if size > MAX_ELEMENTS:
        raise SizeCap(f"{size} elements exceed the bit-set cap of {MAX_ELEMENTS}")
    return FiniteOrtholattice(_Order._read_pairs(size, leq, "elements"), ortho, name)


def relabel(L: FiniteOrtholattice, perm: Sequence[int],
            name: Optional[str] = None) -> FiniteOrtholattice:
    """Copy of L with element i renamed perm[i]; bounds must stay pinned."""
    perm = tuple(perm)
    if not L._is_permutation(perm):
        raise MalformedInput("relabeling is not a permutation")
    if perm[0] != 0 or perm[L.n - 1] != L.n - 1:
        raise MalformedInput("relabeling must fix the bounds 0 and n-1")
    ortho = [0] * L.n
    for i in range(L.n):
        ortho[perm[i]] = perm[L.ortho[i]]
    return FiniteOrtholattice(_permuted(L.up, perm), ortho, name)


def sublattice(L: FiniteOrtholattice, members) -> tuple[FiniteOrtholattice, tuple[int, ...]]:
    """Standalone copy of a closed subalgebra.

    Returns (lattice, backmap) where backmap[local] is the element of L the
    local index came from.  Local indices keep the ambient ascending order,
    so 0 and the local top stay pinned.
    """
    mask = members.members if isinstance(members, SubalgebraSet) else members
    if L.closure_mask(mask) != mask:
        raise MalformedInput("element set is not a closed subalgebra")
    backmap = tuple(bits(mask))
    # the local index of an element is the number of members below it
    ortho = [(mask & (1 << L.ortho[g]) - 1).bit_count() for g in backmap]
    return FiniteOrtholattice(_induced(L.up, mask), ortho), backmap
