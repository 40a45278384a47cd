"""Finite ortholattices and orthomodular lattices over bit-set universes.

Elements are the integers 0..n-1 with 0 the least and n-1 the greatest
element.  Every subset of the lattice is a Python int used as a bit set,
which is why the universe is capped at 64 elements: one machine word per
subset keeps the exhaustive searches cheap.

Validated lattices are immutable after construction; all operations here are
pure functions of their inputs, so instances are safe to share freely.

A lattice of n elements with k atoms, 4k <= n, is first offered to one
certificate through its atom frame, the atoms with p orthogonal to q when
q <= p' (``_frame_down``): when x -> {atoms below x} carries the order
and the complement onto inclusion and perp among the frame's n closed
sets, L is the lattice of orthoclosed sets of the frame, an ortholattice,
and no law needs a test of its own; the certificate also gives the rows
that the orthomodular test reads.  The certificate holds exactly on the
atomistic ortholattices, every finite OML among them, in O(n k) steps done
in C.  Every other input, and every lattice with more atoms, is validated
row by row: its rows are spelled in binary once,
the spelling's columns are the down rows, and each law is one test over
whole rows.  Transitivity needs no test of its own: a reflexive,
antisymmetric relation in which every two down rows meet in a down row is
transitive.  That is also the test that every meet exists: the AND of
each two down rows is looked up among the down rows, in one set, and no
table is kept.  A meet is read where it is needed, as the point whose down
row is that AND (``_below``), and every join through the complement,
a v b = (a' ^ b')', which holds once the complement is known to reverse
the order (a finite order with a top and all meets has all joins, so no
join can be missing then).  The searches that read meets pair by pair
(the closure, the hom search and ``morphism``) read them the same way.
Booleanness reads no meet pair and no block: a closed set is Boolean
exactly when it is orthomodular and has 2^k elements for its k atoms
(``is_boolean``).  The orthomodular law is tested in its zero-meet form,
a <= b and a' ^ b = 0 imply a = b, with the zero meets read off the
atoms.  When a row test fails, the pair scan it replaced names the first
faulty pair, so the first fault and its message are those of a
pair-by-pair check.
Posets are still checked pair by pair: their rows have no size cap, and a
spelling costs n^2 even for an antichain.

Renaming an order's points (``_permuted``: ``relabel``, ``morphism``'s
test of a bijection, and ``check_order_iso``) is the same transposition
(``_columns``): the renamed rows are the columns of the spelled transpose,
placed along the renaming, read back in stripes of bounded size.  The
lifts rename the element sets of a subalgebra poset by it, each way.

The blocks of an orthomodular lattice are found here and nowhere else: the
maximal sets of pairwise orthogonal atoms (``_blocks``), each joined out to
its block (``_joins``).  ``blocks()`` and BSub read them.

The constructions and the catalog live in ``constructions``, and the
isomorphism search in ``search``, so that a verb compiles them only when
it builds a lattice by name or searches.  ``validate`` stays here, as
every lattice file is read through it.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import combinations, compress, repeat, starmap
from operator import and_, invert, itemgetter, lshift, or_, rshift
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    BadOrthocomplement,
    FlavorError,
    MalformedInput,
    NoBoundedLattice,
    NotAMorphism,
    NotAPartialOrder,
    SizeCap,
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


def _row_tuple(up) -> tuple:
    """The rows ``up`` as a tuple, or MalformedInput when they are not a
    sequence; each row is checked later."""
    try:
        return tuple(up)
    except TypeError:
        raise MalformedInput("rows are not a sequence of integer bit sets") from None


def _as_tuple(values) -> Optional[tuple]:
    """``values`` as a tuple, or None when they are no sequence, so that a
    map handed in that is no sequence is refused as no map."""
    try:
        return tuple(values)
    except TypeError:
        return None


def _is_int(v) -> bool:
    """Whether ``v`` is an integer and not a bool (JSON's true is no index)."""
    return isinstance(v, int) and not isinstance(v, bool)


class _Order:
    """A finite partial order on 0..size-1, the core of lattices and posets:
    ``up[i]`` and ``down[i]`` are the bit sets of the points above and below
    i.  The constructor checks the partial-order axioms."""

    def __init__(self, up: Sequence[int]):
        self.up = _row_tuple(up)
        self.size = len(self.up)
        self.down = _order_down(self.up)

    @classmethod
    def _trusted(cls, up: Sequence[int], down: Sequence[int]):
        """The order with rows ``up`` and ``down``, unchecked: only for rows
        derived from an order already checked, or built as one, by a
        derivation that says why they are an order.  Data from outside goes
        through the constructor."""
        self = cls.__new__(cls)
        self.up, self.size, self.down = tuple(up), len(up), tuple(down)
        return self

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
        """Whether ``perm`` lists each point 0..size-1 once, as integers.
        The entries' types are read in one pass first; only a list with
        some other type than int has each entry tested."""
        return (len(perm) == self.size
                and (set(map(type, perm)) == {int} or all(map(_is_int, perm)))
                and sorted(perm) == list(range(self.size)))

    def __len__(self):
        return self.size

    def leq(self, a: int, b: int) -> bool:
        """Whether a <= b.  Unchecked, as the constant-time predicate of
        every order: an index out of range wraps or raises IndexError."""
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
    def _ranked(self) -> tuple[int, ...]:
        """The points in a linear extension of the order: by down-cone size,
        ties by index (the sort is stable).  a < b makes down[a] a proper
        subset of down[b], so every point comes after those below it."""
        return tuple(sorted(range(self.size), key=[d.bit_count() for d in self.down].__getitem__))

    @cached_property
    def heights(self) -> tuple[int, ...]:
        """Length of a longest chain up to each point (0 for minimal ones),
        read off the down rows alone, without covers."""
        return _heights(self.down, self._ranked)

    @cached_property
    def depths(self) -> tuple[int, ...]:
        # the reverse of a linear extension is one of the dual order
        return _heights(self.up, reversed(self._ranked))

    @cached_property
    def _above(self) -> dict[int, int]:
        """{up row: point}.  The least upper bound of a set, if any, is the
        point whose up row is the AND of the set's up rows."""
        return {row: x for x, row in enumerate(self.up)}

    @cached_property
    def _below(self) -> dict[int, int]:
        """{down row: point}, for greatest lower bounds likewise."""
        return {row: x for x, row in enumerate(self.down)}

    def _order_signatures(self, lower: Optional[Iterable[int]] = None, *extra) -> list[tuple]:
        """Per point: cone sizes, height and cover degrees (order invariants),
        then one entry of each of ``extra``.  ``lower`` gives the lower-cover
        counts, read off ``cover_down`` when it is None."""
        if lower is None:
            lower = map(int.bit_count, self.cover_down)
        return list(zip(map(int.bit_count, self.down), map(int.bit_count, self.up),
                        self.heights, map(int.bit_count, self.cover_up), lower, *extra))


class FiniteOrtholattice(_Order):
    """A validated finite ortholattice, possibly orthomodular.

    ``up[i]`` is the bit set of elements j with i <= j.  The constructor
    checks the partial-order axioms, that 0 and n-1 are the bounds, that
    every pair has a meet and a join, and the orthocomplementation laws
    (involutive, order-reversing, complementing).  ``flavor`` records
    whether the orthomodular law  a <= b  implies  b = a v (a' ^ b)  holds.
    """

    def __init__(self, up: Sequence[int], ortho: Sequence[int], name: Optional[str] = None):
        """Validate the rows ``up`` and the complement ``ortho``.

        A lattice with few atoms, k of them with 4k <= n, is first offered
        to one certificate through its atom frame (``_frame_down``), in
        O(n k) steps done in C.  It holds exactly for the atomistic
        ortholattices, every finite OML among them, and then every law
        below holds: (L, <=, ') is the lattice of orthoclosed sets of the
        frame, an ortholattice (see ``_frame_down``).  Otherwise, a
        lattice that is not atomistic or an invalid input, the row tests
        below run unchanged, so the rows, flavor and first fault named are
        those of the row tests alone.  Past the 4k <= n rule the
        certificate's steps, growing with n k, cost more than the row
        tests (forced on MO8, 16 atoms of 18 elements, it took 3.5 times as
        long), and the row tests run alone.  The atoms are found once, on
        either path, and kept as ``_atoms``.  An ``ortho`` that is no
        sequence is read as empty, and refused where the permutation is
        checked.  The orthomodular law is tested after either path, by
        atoms (``_orthomodular_on``'s test, a row at a time), on the
        ``_reach`` rows the certificate returns, or on the row path on
        rows walked from the atoms."""
        up = _row_tuple(up)
        n = len(up)
        if n < 2:
            raise NoBoundedLattice("a bounded lattice needs at least 2 elements")
        if n > MAX_ELEMENTS:
            raise SizeCap(f"{n} elements exceed the bit-set cap of {MAX_ELEMENTS}")
        # only integers in range can be spelled in n binary digits
        if set(map(type, up)) != {int} or min(up) < 0 or max(up) >> n:
            _check_rows(up)
        ortho = _as_tuple(ortho) or ()
        atoms = _cover_row(up, 0)
        certified = _frame_down(up, ortho, atoms) if _FRAME_RULE * atoms.bit_count() <= n else None
        if certified is None:
            self._test_rows(up, ortho)
        else:
            self.up, self.size = up, n
            self.down, self._reach = certified
        self._atoms = atoms
        self._with_complement(ortho, name)

    def _test_rows(self, up: tuple[int, ...], ortho: tuple) -> None:
        """The row tests: set ``up``, ``size`` and ``down``, or raise on the
        first fault.  ``up`` holds integers in range.

        The laws are tested in the order they always were, each on whole
        rows.  When a row test fails, the pair scan it replaced
        (``_check_rows``, ``_order_pairs``, ``_bound_pairs`` or
        ``_reversal_pairs``) names the first fault.  No meet table is
        built: every meet exists when the ANDs of all pairs of down rows,
        gathered in one set, are down rows, and a and a' are complements
        when their down rows share 0 alone.  Every meet, here and after,
        is read off ``_below`` at an AND of down rows.

        Transitivity has no test of its own.  A relation that is reflexive
        and antisymmetric, and in which every two down rows meet in a down
        row, is transitive: for a <= b <= c, down[b] & down[c] = down[x]
        holds b, so b <= x, and x <= b as x is in down[b]; by antisymmetry
        x = b, so down[b] lies in down[c], and a <= c.  So on every fault
        path past reflexivity and antisymmetry (a bound that fails, or a
        missing meet) ``_order_pairs`` runs first, and a relation that is
        not transitive fails there, first, as it did when the order was
        checked whole before the bounds."""
        n = len(up)
        # the rows spelled in binary (``_spelled``): digit j of row i sits
        # at (n-1-i)*d + d-1-j.  Column d-1-j spells down[j]; read
        # backwards, row i starts at i*d, with digit j at i*d + j.
        spelled, d = _spelled(up, n)
        down = [int(spelled[c::d], 2) for c in range(d - 1, d - 1 - n, -1)]
        # compress selectors of the members of each up row
        members = spelled[::-1].encode().translate(_DIGIT_BITS)
        rows = [members[i:i + n] for i in range(0, n * d, d)]
        # reflexive and antisymmetric: i is the one point both above and
        # below i.  A row without its own point is named by _check_rows.
        # Transitivity follows from the meets (see above).
        if tuple(map(and_, up, down)) != _POINTS[:n]:
            _check_rows(up)
            _order_pairs(up)
        self.up, self.size, self.down = up, n, tuple(down)
        universe = (1 << n) - 1
        if up[0] != universe or down[n - 1] != universe:
            _order_pairs(up)
            if up[0] != universe:
                raise NoBoundedLattice("element 0 is not the least element")
            raise NoBoundedLattice(f"element {n - 1} is not the greatest element")

        # rows are distinct, so meet(a, b) is the element whose down row is
        # down[a] & down[b], if there is one: every meet exists when each
        # AND of two down rows is a down row, one set built in C.  A finite
        # order with a top and all meets has all joins, so only a missing
        # meet can leave a join missing, and the pairs are scanned only then.
        below = self._below
        if not below.keys() >= set(starmap(and_, combinations(down, 2))):
            _order_pairs(up)
            _bound_pairs(up, down, below, self._above)

        if not self._is_permutation(ortho):
            raise BadOrthocomplement("ortho is not a permutation of the elements")
        for a in range(n):
            if ortho[ortho[a]] != a:
                raise BadOrthocomplement(f"ortho is not an involution at {a}")
        # a <= b gives b' <= a' exactly when the image of up[a] lies in
        # down[a'].  The two orders have equally many pairs, so then every
        # image equals its down row, and the rows are compared whole.
        renamed = itemgetter(*ortho)
        image = renamed(_POINTS)
        if tuple(map(sum, map(compress, repeat(image), rows))) != renamed(down):
            _reversal_pairs(up, ortho)
        # 0' is the top now, and a v a' = (a' ^ a)', so a' ^ a = 0 suffices:
        # the down rows of a and a' share 0 alone
        for a, row in enumerate(map(and_, down, renamed(down))):
            if row != 1:
                raise BadOrthocomplement(f"element {a} and its image are not complements")

    def _with_complement(self, ortho, name):
        """Set the complement ``ortho``, the name and the flavor, and return
        the lattice: the constructor's last step, and the whole check of a
        derivation that builds an ortholattice (``_trusted`` rows)."""
        self.n, self.ortho, self.name = self.size, ortho, name
        # ``_orthomodular_on`` the whole lattice, a row at a time in C:
        # up[a] & ~_reach[a'] is a alone for every a
        co_reach = map(self._reach.__getitem__, ortho)
        orthomodular = tuple(map(and_, self.up, map(invert, co_reach))) == _POINTS[:self.n]
        self.flavor = ORTHOMODULAR if orthomodular else ORTHOLATTICE
        return self

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
        """Whether the whole lattice is a Boolean algebra (checked once), by
        the atom rule of ``is_boolean``: 2^k elements for k atoms, and
        orthomodular."""
        return self.is_boolean(self.universe)

    @cached_property
    def _block_atoms(self) -> tuple[int, ...]:
        """The atom sets of the blocks (``_blocks``), searched once per lattice."""
        return tuple(_blocks(self))

    def meet(self, a: int, b: int) -> int:
        return self._below[self.down[a] & self.down[b]]

    def join(self, a: int, b: int) -> int:
        down, ortho = self.down, self.ortho
        return ortho[self._below[down[ortho[a]] & down[ortho[b]]]]

    def ocomp(self, a: int) -> int:
        return self.ortho[a]

    def atoms(self) -> tuple[int, ...]:
        return tuple(bits(self._atoms))

    @cached_property
    def _atoms(self) -> int:
        """The bit set of the atoms, the covers of 0, without every
        element's covers."""
        return _cover_row(self.up, 0)

    def coatoms(self) -> tuple[int, ...]:
        return tuple(bits(self.cover_down[self.n - 1]))

    @cached_property
    def _earlier(self) -> tuple[int, ...]:
        """_earlier[e] is the bit set of the elements before e in ``_ranked``."""
        earlier, seen = [0] * self.n, 0
        for e in self._ranked:
            earlier[e] = seen
            seen |= 1 << e
        return tuple(earlier)

    # -- commutation and subalgebras --------------------------------------

    def commutes(self, a: int, b: int) -> bool:
        """Whether a = (a^b) v (a^b'); only meaningful on orthomodular lattices."""
        if self.flavor != ORTHOMODULAR:
            raise FlavorError("commutation is only defined on orthomodular lattices")
        return self.join(self.meet(a, b), self.meet(a, self.ortho[b])) == a

    def _orthomodular_on(self, mask: int) -> bool:
        """Whether a <= b and a' ^ b = 0 imply a = b for a, b in ``mask``;
        the constructor runs the same test on the whole lattice, a row at a
        time (``_with_complement``).

        ``mask`` must be closed (a subalgebra), for there this zero-meet form
        is the orthomodular law a <= b implies b = a v (a' ^ b).  The law
        gives it, as b = a v 0.  Conversely, for a <= b in the mask,
        c = a v (a' ^ b) lies in it too, with c <= b and
        c' ^ b = (a' ^ b) ^ (a' ^ b)' = 0, so c = b.  On a set that is not
        closed, c may lie outside it and the two forms differ.

        The zero meets are read off the atoms, with no meet table: in a
        finite lattice a' ^ b = 0 exactly when no atom lies under both, so
        the b >= a with a' ^ b = 0 are those outside ``_reach[a']``, the
        elements above some atom under a'.  a ^ a' = 0, so each a must be
        the one such b.  The meet of two elements of the mask is L's, so
        L's atoms serve for any closed mask.
        """
        up, ortho, reach = self.up, self.ortho, self._reach
        return all(up[a] & mask & ~reach[ortho[a]] == 1 << a for a in bits(mask))

    @cached_property
    def _reach(self) -> tuple[int, ...]:
        """_reach[x] is the bit set of the elements above some atom under x,
        built once, as ``is_boolean`` tests subalgebras one at a time.  A
        lattice the atom-frame certificate validates has it from the
        certificate (``_frame_down``); any other walks the atoms' up rows."""
        up = self.up
        reach = [0] * self.n
        for p in bits(self._atoms):
            row = up[p]
            for x in bits(row):
                reach[x] |= row
        return tuple(reach)

    def _checked_mask(self, mask) -> int:
        """``mask`` if it is an integer bit set of elements, else
        MalformedInput: a negative int has no end of set bits to walk."""
        if not _is_int(mask):
            raise MalformedInput(f"element set must be an integer bit set, got {mask!r}")
        if mask & ~self.universe:
            raise MalformedInput(f"element set mentions elements outside 0..{self.n - 1}")
        return mask

    def closure_mask(self, mask: int) -> int:
        """Close ``mask`` under complement, meet and join, plus the bounds."""
        mask = self._checked_mask(mask)
        return self._extend(0, (), tuple(bits(mask | 1 | 1 << (self.n - 1))))[0]

    def _extend(self, mask: int, members: Sequence[int], new: Sequence[int],
                earlier: int = 0) -> tuple[int, list[int]] | int:
        """Close ``mask`` plus ``new`` under complement and meet.

        ``mask`` must already be closed, with ``members`` listing its
        elements, and ``new`` must lie outside ``earlier``: callers pass
        ``earlier`` = 0, or one new element and the elements before it.
        Semi-naive: each new element is combined only with the
        elements listed before it, so pairs of old members are never
        revisited.  Joins come for free, since a v b = (a' ^ b')' in an
        ortholattice.  Returns the closed mask and its member list or, as
        soon as an element of the bit set ``earlier`` outside ``mask``
        appears, that element (the Close-by-One canonicity test fails: the
        closure adds an element earlier in the order, which witnesses it).
        """
        below, down, ortho = self._below, self.down, self.ortho
        members = list(members)
        have = set(members)
        i = len(members)
        for v in new:
            if v not in have:
                have.add(v)
                members.append(v)
                mask |= 1 << v
        while i < len(members):
            x = members[i]
            row = down[x]
            fresh = {below[row & down[y]] for y in members[:i]}
            fresh.add(ortho[x])
            fresh -= have
            if fresh:
                added = 0
                for v in fresh:
                    added |= 1 << v
                if added & earlier:
                    return (added & earlier).bit_length() - 1
                have |= fresh
                members.extend(fresh)
                mask |= added
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
        """Wrap an element set (a bit set, a SubalgebraSet or an iterable of
        elements) as a SubalgebraSet, insisting it is closed.  The one place
        that refuses an element set that is not closed, or a SubalgebraSet
        of another lattice, whose element numbers mean other elements."""
        mask = members.members if isinstance(members, SubalgebraSet) else members
        if isinstance(members, SubalgebraSet) and members.owner is not self:
            raise MalformedInput("element set belongs to another lattice")
        if isinstance(mask, Iterable):
            # a negative or non-integer element has no bit: give it one
            # outside the universe (closure_mask rejects a non-integer mask)
            mask = mask_of(self.n if not _is_int(e) or e < 0 else e for e in mask)
        if self.closure_mask(mask) != mask:
            raise MalformedInput("element set is not a closed subalgebra")
        return SubalgebraSet(self, mask)

    def is_boolean(self, s) -> bool:
        """Whether the closed set ``s`` is a Boolean subalgebra: whether it
        is orthomodular and has 2^k elements for its k atoms, the minimal
        nonzero elements of s.  Orthomodularity is free when L is an OML, as
        the law holds for all of L; otherwise it is ``_orthomodular_on``.

        s is closed, so its meets and joins are L's and s is an ortholattice.
        An orthomodular s is atomistic: if y, the join of the atoms of s
        below x, were below x and not x, then x ^ y', which is in s, would not
        be 0 (x = y v (x ^ y') by the law), so an atom a of s would lie under
        it, under x and so under y, and a <= y ^ y' = 0.  So x -> the atoms
        below x is one to one, and x <= z exactly when x's atoms are among
        z's: s has at most 2^k elements, and exactly 2^k when every set of
        atoms is some element's, that is when s is ordered as the subsets of
        k points.  s is then distributive, where a complement is unique, so
        x' is x's Boolean complement and s is Boolean.  A Boolean s with k
        atoms has 2^k elements and is orthomodular."""
        mask = s.members if isinstance(s, SubalgebraSet) else s
        if mask.__class__ is not int or mask >> self.n:
            # only a mask that may be malformed pays for the check: BSub's
            # search passes plain ints inside the universe
            mask = self._checked_mask(mask)
        down = self.down
        atoms = sum(1 for x in bits(mask & ~1) if down[x] & mask == 1 | 1 << x)
        return (mask.bit_count() == 1 << atoms
                and (self.flavor == ORTHOMODULAR or self._orthomodular_on(mask)))

    def blocks(self) -> list["SubalgebraSet"]:
        """All maximal Boolean subalgebras, ascending by bit-set value: the
        joins of each maximal set of pairwise orthogonal atoms (``_blocks``)."""
        if self.flavor != ORTHOMODULAR:
            raise FlavorError("blocks are defined for orthomodular lattices")
        return [SubalgebraSet(self, mask) for mask in
                sorted(sum(_joins(self, list(bits(atoms)))) for atoms in self._block_atoms)]


# -- blocks ----------------------------------------------------------------

def _joins(L: FiniteOrtholattice, parts: Sequence[int]) -> list[int]:
    """The joins of every subset of ``parts``, nonzero and pairwise
    orthogonal, as one-bit masks indexed by the subset (bit i for parts[i]),
    formed by doubling: each part is joined to every join found before it.
    The doubling runs on complements, t v x = (t' ^ x')', so it ANDs down
    rows and reads no table: ``co`` holds the down rows of the complements
    of the joins found so far, as down[t' ^ y] = down[t'] & down[y].  For
    the atoms of a Boolean subalgebra they are its elements.  A part a
    orthogonal to a set B lies below (v B)', so a <= v B would make a = 0:
    the joins are distinct, and a sum of them is their union."""
    down, below, ortho = L.down, L._below, L.ortho
    co = [down[L.n - 1]]
    for t in parts:
        row = down[ortho[t]]
        co += [row & x for x in co]
    return [_POINTS[ortho[below[x]]] for x in co]


def _blocks(L: FiniteOrtholattice) -> list[int]:
    """The atom sets of the blocks (maximal Boolean subalgebras) of an
    orthomodular L, as bit sets.

    They are the maximal cliques of the orthogonality graph on L's atoms, b
    adjacent to a when b <= a', found by Bron-Kerbosch with pivoting (Bron
    and Kerbosch 1973) over bit sets.  A block B is the joins of its atoms,
    which are pairwise orthogonal.  They are atoms of L: an L-atom c under
    a block atom a lies below or orthogonal to every element of B, as a
    does, so c commutes with the whole block; by Foulis-Holland B and c
    generate a Boolean subalgebra, so c is in B and c = a.  They join to 1,
    so no other atom is orthogonal to them all.  Conversely a maximal
    orthogonal atom set joins to 1, because an atom under the complement of
    its join would extend the set, so its joins are a Boolean subalgebra.
    A block above it has L-atoms for atoms, and each atom of the set is a
    join of them, so one of them: by maximality the set is that block's
    atoms.
    """
    down, ortho = L.down, L.ortho
    out, stack = [], [(0, L._atoms, 0)]
    while stack:
        clique, cand, done = stack.pop()
        # any candidate is a sound pivot, and the lowest costs nothing to
        # find; cand and done hold atoms only, so down[a'] is a's neighbours
        low = cand & -cand
        branch = cand & ~down[ortho[low.bit_length() - 1]]
        while branch:
            bit = branch & -branch
            branch ^= bit
            near = down[ortho[bit.bit_length() - 1]]
            if cand & near:
                stack.append((clique | bit, cand & near, done & near))
            elif not done & near:
                out.append(clique | bit)
            cand ^= bit
            done |= bit
    return out


# -- order core helpers ----------------------------------------------------

# binary digits to compress selectors, by bytes.translate
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")
_POINTS = tuple(1 << i for i in range(MAX_ELEMENTS))
# a lattice of n elements with k atoms, _FRAME_RULE * k <= n, is offered to
# the atom-frame certificate first (see the constructor)
_FRAME_RULE = 4


def _frame_down(up: tuple[int, ...], ortho: tuple,
                atoms: int) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The down rows and the ``_reach`` rows of (L, <=, ') when a
    certificate through the atom frame shows it an ortholattice with bounds
    0 and n-1, else None; never raises.  ``up`` holds n integers in range,
    ``ortho`` is a tuple, and ``atoms`` is a bit set of points, the atoms
    for the constructor.  The frame has these points, p orthogonal to q
    when q <= p'.  With A(x) the set of points below x, it checks:
    - x -> A(x) is one to one, and ``up[x]`` is the AND of the up rows of
      the points in A(x), so y >= x exactly when A(y) holds A(x): ``up`` is
      the inclusion order of the A(x);
    - ``up[0]`` and the down row of n-1 are the universe, and ``ortho`` is
      a permutation and an involution;
    - orthogonality is symmetric and irreflexive, and A(x') = A(x)-perp
      for every x;
    - the frame has exactly n closed sets, the intersections of the perps
      (``_closed_sets``).
    Then each A(x) = A(x'') = A(x)-perp-perp is closed, and the n distinct
    A(x) are all n closed sets: x -> A(x) maps L onto the closed sets, the
    order onto inclusion and ' onto S -> S-perp.  Those form an
    ortholattice (``reconstruction.orthoclosed_lattice`` proves it for any
    symmetric, irreflexive frame), so L is one, with 0 and n-1 its bounds,
    and every law the row tests check holds.  Conversely, in an atomistic
    ortholattice each x is the join of A(x), so every check holds, the
    closed sets being the A(x) as A preserves meets; in one that is not,
    x -> A(x) is not one to one.

    Each step is a C call over the n elements or the k points: the
    points' up rows and their complements are spelled in binary, and
    column x of the spelling, as compress selectors, picks the rows whose
    AND is up[x] and the down row of x, and whose complements' AND is the
    complement of ``_reach[x]``, the elements above some point below x,
    which the orthomodular test reads: one AND a point, over three fields.
    The column of p' is A(p'), the perp of p: those columns make the
    orthogonality matrix, compared with its transpose.  A(x') = A(x)-perp
    is read a point at a time: q lies in A(x') for the x in the image
    under ' of up[q], and in A(x)-perp for the x below no point outside
    perp[q]."""
    n, k = len(up), atoms.bit_count()
    universe = (1 << n) - 1
    if (up[0] != universe or set(map(type, ortho)) != {int}
            or sorted(ortho) != list(range(n)) or itemgetter(*ortho)(ortho) != tuple(range(n))):
        return None
    rows = [up[p] for p in bits(atoms)]
    others = [universe ^ row for row in rows]
    # digit x of row i sits at i*n + n-1-x: column n-1-x spells A(x), the
    # first point its most significant digit, then the points not below x
    width = f"0{n}b"
    digits = "".join([format(row, width) for row in rows + others]).encode().translate(_DIGIT_BITS)
    selectors = [digits[c::n] for c in range(n - 1, -1, -1)]
    if len(set(selectors)) != n:
        return None
    # one AND a point, in three fields of n bits: up[x] in the high field,
    # the AND of the complements of the up rows of A(x) in the middle, and
    # down[x] in the low field
    parts = ([(row << n | universe ^ row) << n | universe for row in rows]
             + [(universe << n | universe) << n | row for row in others])
    fields = list(map(reduce, repeat(and_), map(compress, repeat(parts), selectors),
                      repeat((1 << 3 * n) - 1)))
    if tuple(map(rshift, fields, repeat(2 * n))) != up:
        return None
    # the selectors of A(p'), p-perp, and of the points outside it; byte j
    # of row i of the matrix is whether point j is orthogonal to point i
    perps = [selectors[ortho[p]] for p in bits(atoms)]
    matrix = b"".join([col[:k] for col in perps])
    image = itemgetter(*ortho[::-1])(_POINTS)
    # the perps as bit sets, byte j for point j, for the closed sets
    perp = [int.from_bytes(col[:k], "big") for col in perps]
    if (b"\1" in matrix[::k + 1] or matrix != b"".join([matrix[j::k] for j in range(k)])
            or [sum(compress(image, digits[i:i + n])) for i in range(0, k * n, n)]
            != [reduce(and_, compress(others, col[k:]), universe) for col in perps]
            or len(_closed_sets(perp, int.from_bytes(b"\1" * k, "big"), n)) != n):
        return None
    down = tuple(map(and_, fields, repeat(universe)))
    if down[n - 1] != universe:
        return None
    # the OR of the up rows of A(x) is the complement of the middle field
    return down, tuple([universe ^ (x >> n & universe) for x in fields])


def _closed_sets(perp: Sequence[int], universe: int, cap: int) -> set[int]:
    """The intersections of the rows ``perp``, the empty one being
    ``universe``: the closed sets of a frame whose points have those perps.
    The family is built from ``universe`` by adding, row by row, the AND of
    the row with every set found so far, and stops once it holds more than
    ``cap`` sets; one row at most doubles it."""
    closed = {universe}
    for row in perp:
        closed |= set(map(and_, repeat(row), closed))
        if len(closed) > cap:
            break
    return closed


def _order_down(up: Sequence[int]) -> tuple[int, ...]:
    """Check that the ``up`` rows are a partial order; return its ``down`` rows.

    Poset rows have no size cap, and spelling n rows of n digits, as the
    lattice constructor does, costs n^2 even on an antichain, so posets are
    checked pair by pair."""
    _check_rows(up)
    _order_pairs(up)
    return _transpose(up)


def _check_rows(up: Sequence[int]) -> None:
    """Check that each row is an integer bit set in range holding its own point."""
    n = len(up)
    universe = (1 << n) - 1
    for i, row in enumerate(up):
        if not _is_int(row):
            raise MalformedInput(f"row {i} is not an integer bit set, got {row!r}")
        if row & ~universe:
            raise MalformedInput(f"row {i} mentions elements outside 0..{n - 1}")
        if not row >> i & 1:
            raise NotAPartialOrder(f"relation is not reflexive at {i}")


def _order_pairs(up: Sequence[int]) -> None:
    """Raise on the first pair i <= j, i != j, in row order, that breaks
    antisymmetry or transitivity."""
    for i, row in enumerate(up):
        strict = row ^ 1 << i
        if strict:
            outside = ~row
            for j in bits(strict):
                if up[j] >> i & 1:
                    raise NotAPartialOrder(f"antisymmetry fails on {i}, {j}")
                if up[j] & outside:
                    raise NotAPartialOrder(f"transitivity fails above {i} <= {j}")


def _bound_pairs(up: Sequence[int], down: Sequence[int], below: dict, above: dict) -> None:
    """Raise on the first pair of elements a, b (a <= b as numbers, in row
    order) without a meet or a join."""
    n = len(up)
    for a in range(n):
        for b in range(a, n):
            if down[a] & down[b] not in below:
                raise NoBoundedLattice(f"elements {a} and {b} have no meet")
            if up[a] & up[b] not in above:
                raise NoBoundedLattice(f"elements {a} and {b} have no join")


def _reversal_pairs(up: Sequence[int], ortho: Sequence[int]) -> None:
    """Raise on the first pair a <= b, in row order, without b' <= a'."""
    for a, row in enumerate(up):
        for b in bits(row):
            if not up[ortho[b]] >> ortho[a] & 1:
                raise BadOrthocomplement(f"ortho does not reverse {a} <= {b}")


def _transpose(rows: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in bits(row):
            out[j] |= 1 << i
    return tuple(out)


def _cover_row(up: Sequence[int], a: int) -> int:
    """The bit set of the covers of a: the strict up-set of a minus the
    strict up-sets of its members.  A member already removed lies above one
    still kept, so its up-set is gone too and it need not be walked."""
    cov = rest = up[a] ^ 1 << a
    while rest:
        low = rest & -rest
        cov &= ~up[low.bit_length() - 1] | low
        rest &= cov ^ low
    return cov


def _covers(up: Sequence[int]) -> tuple[int, ...]:
    """Bit b of row a is set when b covers a."""
    return tuple([_cover_row(up, a) for a in range(len(up))])


def _heights(down: Sequence[int], ranked: Iterable[int]) -> tuple[int, ...]:
    """Length of a longest chain ending at each element (0 for minimal ones).

    Elements are taken in ``ranked``, a linear extension of the order, so
    all below x come first, and x lands one level above the highest level
    that meets its strict down-cone.  ``levels[k]`` is the bit set of level
    k so far and ``top`` the number of levels begun; x looks at no more
    levels than it has elements below it, so a tall chain costs no more
    than a wide one.
    """
    h, levels, top = [0] * len(down), [0] * len(down), 0
    for x in ranked:
        below, k = down[x] ^ 1 << x, top
        while k and not below & levels[k - 1]:
            k -= 1
        levels[k] |= 1 << x
        h[x], top = k, max(top, k + 1)
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


def _permuted(rows: Sequence[int], cols: Sequence[int], perm: Sequence[int]) -> list[int]:
    """Rows of the same order with element i renamed perm[i], read off
    ``cols``, the transpose of ``rows`` (``down`` for ``up``, ``up`` for
    ``down``), by the constructor's transposition (``_columns``): column j
    is placed at row perm[j], the placed rows are spelled in binary, and
    each column of the spelling, read back with one strided slice and
    ``int(..., 2)``, is row i renamed, put at perm[i].  That is O(n) Python
    steps and O(n^2) digits handled in C, where a walk over the set bits
    takes a Python step per bit.

    The spelling is made in stripes of placed rows, by one rule: one stripe
    up to 1024 rows, and stripes of an eighth of the rows (rounded up)
    beyond, each stripe's columns shifted into place.  A row takes n digits
    rounded up to whole bytes, so the text is at most 1024^2 digits, and
    beyond that at most n^2 / 8 + 2n + 7: about as many bytes as the
    two tables' ints hold, as each row holds its own point, so rows[i] and
    cols[i] are each at least i + 1 bits long, n^2 + n bits in all, and
    each int has a header of its own."""
    n = len(rows)
    # inverse[k] is the point renamed k
    inverse = sorted(range(n), key=perm.__getitem__)
    step = n if n <= 1024 else -(-n // 8)
    renamed = None
    for s in range(0, n, step):
        stripe = _columns([cols[j] for j in inverse[s:s + step]], n)
        renamed = stripe if s == 0 else list(map(or_, renamed, map(lshift, stripe, repeat(s))))
    return [renamed[i] for i in inverse]


def _spelled(rows: Sequence[int], width: int) -> tuple[str, int]:
    """The bit rows ``rows``, each ``width`` bits wide, spelled in binary,
    last row first and most significant digit first, each row in d digits,
    the whole bytes ``width`` fills; and d.  Digit j of row r sits at
    (len(rows)-1-r)*d + d-1-j.  The rows' bytes are joined, read as one
    integer and formatted once: a few C calls, where a format call a row
    costs a Python step each."""
    size = -(-width // 8)
    joined = b"".join(map(int.to_bytes, reversed(rows), repeat(size), repeat("big")))
    return format(int.from_bytes(joined, "big"), f"0{len(rows) * 8 * size}b"), 8 * size


def _columns(rows: Sequence[int], width: int) -> list[int]:
    """The transpose of the bit matrix ``rows``, each row ``width`` bits
    wide: entry j is the bit set of the rows holding bit j.  Column d-1-j
    of the spelling (``_spelled``), read back with one strided slice and
    ``int(..., 2)``, is entry j: O(width) Python steps, the digits handled
    in C."""
    spelled, d = _spelled(rows, width)
    return [int(spelled[c::d], 2) for c in range(d - 1, d - 1 - width, -1)]


class _Record:
    """Value semantics for a slotted class, as a frozen dataclass has them.

    A subclass names its fields in ``__slots__``, in ``__init__`` order, and
    sets them with ``object.__setattr__``, or, where many are built, through
    the slots' member descriptors.  Equal fields mean equal objects
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
        _set_owner(self, owner)
        _set_members(self, members)

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


# the slots' member descriptors set a field in one C call
_set_owner, _set_members = SubalgebraSet.owner.__set__, SubalgebraSet.members.__set__


# -- morphisms -------------------------------------------------------------

HOM = "hom"
EMBEDDING = "embedding"
ISO = "iso"


class Morphism(_Record):
    """A validated structure map; kind is 'hom', 'embedding' or 'iso'."""

    __slots__ = ("source", "target", "mapping", "kind")

    def __init__(self, source: FiniteOrtholattice, target: FiniteOrtholattice,
                 mapping: tuple[int, ...], kind: str):
        _set_source(self, source)
        _set_target(self, target)
        _set_mapping(self, mapping)
        _set_kind(self, kind)

    def __call__(self, a: int) -> int:
        return self.mapping[a]

    def apply_mask(self, mask: int) -> int:
        out = 0
        for e in bits(self.source._checked_mask(mask)):
            out |= 1 << self.mapping[e]
        return out

    def image_mask(self) -> int:
        return self.apply_mask(self.source.universe)

    def __repr__(self):
        return f"Morphism({self.kind}: {list(self.mapping)})"


_set_source, _set_target, _set_mapping, _set_kind = (
    Morphism.source.__set__, Morphism.target.__set__, Morphism.mapping.__set__,
    Morphism.kind.__set__)


def morphism(source: FiniteOrtholattice, target: FiniteOrtholattice,
             mapping: Sequence[int]) -> Morphism:
    """Validate ``mapping`` as an ortholattice homomorphism and classify it.

    Raises NotAMorphism unless 0, 1, complement, meet and join are all
    preserved.  The returned kind is the strongest that applies.

    After the bounds and the complement, one test decides with the outcome
    of a scan of every pair for meet and join, and cheaper:
    - a bijection is accepted when it maps the elements above each a onto
      those above its image (``up`` rows renamed).  It is then an order
      isomorphism, which preserves meets and joins, as they are greatest
      lower and least upper bounds.  Conversely a bijective homomorphism
      preserves the order (a <= b gives f(a) = f(a ^ b) = f(a) ^ f(b)) and
      reflects it (f(a) <= f(b) gives f(a ^ b) = f(a), so a ^ b = a), so
      it maps the elements above a onto those above f(a);
    - any other map is accepted when it preserves the meet of every pair
      a <= b (as numbers).  With the complement it then preserves joins:
      f(a v b) = f((a' ^ b')') = (f(a)' ^ f(b)')' = f(a) v f(b).
    When the test fails, so does the pair scan (``_first_fault``), which
    then names the first pair that fails.
    """
    mapping = _as_tuple(mapping)
    n, m = source.n, target.n
    if mapping is None or len(mapping) != n or not all(_is_int(v) and 0 <= v < m for v in mapping):
        raise NotAMorphism("mapping is not a total map into the target")
    if mapping[0] != 0 or mapping[n - 1] != m - 1:
        raise NotAMorphism("mapping does not preserve the bounds")
    for a in range(n):
        if mapping[source.ortho[a]] != target.ortho[mapping[a]]:
            raise NotAMorphism(f"mapping does not preserve the complement of {a}")
    injective = len(set(mapping)) == n
    if injective and n == m:
        preserved = _permuted(source.up, source.down, mapping) == list(target.up)
    else:
        images = [target.down[v] for v in mapping]
        preserved = ([mapping[c] for c in _pair_meets(source._below, source.down)]
                     == _pair_meets(target._below, images))
    if not preserved:
        _first_fault(source, target, mapping)
    kind = HOM
    if injective:
        # an injective lattice homomorphism reflects order: f(a) <= f(b)
        # gives f(a ^ b) = f(a), so a ^ b = a; a bijective one is an iso
        kind = ISO if n == m else EMBEDDING
    return Morphism(source, target, mapping, kind)


def _pair_meets(below: dict, rows: Sequence[int]) -> list[int]:
    """The meet of every pair a <= b (as indices) of the down rows
    ``rows``, a before b, read off ``below``."""
    return [below[row & other] for a, row in enumerate(rows) for other in rows[a:]]


def _first_fault(source: FiniteOrtholattice, target: FiniteOrtholattice,
                 mapping: tuple[int, ...]) -> None:
    """Raise NotAMorphism naming the first pair a <= b (as numbers) whose
    meet, then join, ``mapping`` does not preserve.  Only ``morphism`` calls
    it, once its test has failed, so some pair fails."""
    for a, fa in enumerate(mapping):
        for b, fb in enumerate(mapping[a:], a):
            if mapping[source.meet(a, b)] != target.meet(fa, fb):
                raise NotAMorphism(f"mapping does not preserve meet({a},{b})")
            if mapping[source.join(a, b)] != target.join(fa, fb):
                raise NotAMorphism(f"mapping does not preserve join({a},{b})")


def identity_morphism(L: FiniteOrtholattice) -> Morphism:
    return Morphism(L, L, tuple(range(L.n)), ISO)


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f, revalidated."""
    if g.source is not f.target:
        raise NotAMorphism("composition mismatch: target of f is not source of g")
    return morphism(f.source, g.target, tuple(g.mapping[v] for v in f.mapping))


# -- lattices from raw pairs -------------------------------------------------

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
