"""Dual and principal-dual subalgebras of finite Boolean algebras.

A dual subalgebra is an ideal together with its complementary filter; it is
principal dual (p.d.) when the ideal is [0,a] for a single element a.  Both
kinds admit purely order-theoretic descriptions inside the subalgebra
lattice.  Lifting a subalgebra-lattice isomorphism needs neither: the atoms'
nodes {0, a, a', 1} alone fix it (``iso_lifting.lift_bsub_iso``).  This
module also holds the partition side of the classical duality between
Sub(2^n) and the partition lattice.  A subalgebra argument x may be
anything ``FiniteOrtholattice.subalgebra`` takes: a bit set, a
SubalgebraSet or an iterable of elements, closed.
"""

from __future__ import annotations

from typing import Optional

from .errors import MalformedInput, NotBoolean
from .lattice_core import FiniteOrtholattice, SubalgebraSet, _joins, _Record, bits
from .subalgebra_posets import AbstractPoset, SubalgebraPoset, _partition_table, inclusion_rows


def is_boolean_algebra(L: FiniteOrtholattice) -> bool:
    return L.is_boolean_algebra


def _require_boolean(B: FiniteOrtholattice):
    if not is_boolean_algebra(B):
        raise NotBoolean("operation needs a Boolean algebra")


class DualDecomposition(_Record):
    """A subalgebra split as ideal plus complementary filter (bit sets)."""

    __slots__ = ("subalgebra", "ideal", "filter")

    def __init__(self, subalgebra: SubalgebraSet, ideal: int, filter: int):
        super().__init__(subalgebra, ideal, filter)


def dual_decomposition(B: FiniteOrtholattice, x) -> Optional[DualDecomposition]:
    """Split x into I = {a : [0,a] in x} and its complementary filter.

    Returns the decomposition when x = I u I', i.e. when x is a dual
    subalgebra, else None.
    """
    _require_boolean(B)
    x = B.subalgebra(x)
    ideal, filt = _dual_parts(B, B.universe, x.members)
    if ideal | filt != x.members:
        return None
    return DualDecomposition(x, ideal, filt)


def _dual_parts(B: FiniteOrtholattice, Y: int, mask: int) -> tuple[int, int]:
    """(I, I') for a subalgebra ``mask`` of the Boolean subalgebra Y of B:
    I = {a : [0,a] within Y lies in mask}, I' its complements (bit sets)."""
    ideal = filt = 0
    for a in bits(mask):
        if not B.down[a] & Y & ~mask:
            ideal |= 1 << a
            filt |= 1 << B.ortho[a]
    return ideal, filt


def pd_mask(B: FiniteOrtholattice, a: int) -> int:
    """The principal dual subalgebra [0,a] u [a',1] as a bit set."""
    return B.down[a] | B.up[B.ortho[a]]


def principal_element(B: FiniteOrtholattice, x) -> Optional[int]:
    """Some a with x = [0,a] u [a',1], or None; the direct p.d. oracle."""
    _require_boolean(B)
    mask = B.subalgebra(x).members
    for a in bits(mask):
        if pd_mask(B, a) == mask:
            return a
    return None


def dual_order_test(sub_b: SubalgebraPoset, x: int) -> bool:
    """Order-theoretic dual-subalgebra test inside Sub(B).

    True when every atom incomparable to x joins with x to a cover of x
    (vacuously true when no atom is incomparable).  A node x that is not
    an index of sub_b raises MalformedInput.
    """
    return _dual_order_test(sub_b, sub_b._node(x))


def _dual_order_test(sub_b: SubalgebraPoset, x: int) -> bool:
    """``dual_order_test`` on a node x known to be in range."""
    for y in sub_b.atoms():
        if sub_b.leq(y, x) or sub_b.leq(x, y):
            continue
        j = sub_b._join(x, y)
        if j is None or not sub_b.cover_up[x] >> j & 1:
            return False
    return True


def pd_order_test(sub_b: SubalgebraPoset, x: int) -> bool:
    """Order-theoretic principal-dual test inside Sub(B).

    True when x is the bottom or the top, or an atom passing the dual order
    test, or passes the dual order test and meets some dual node in an atom
    that fails it.  A node x that is not an index of sub_b raises
    MalformedInput.
    """
    x = sub_b._node(x)
    if x == sub_b.bottom() or x == sub_b.top():
        return True
    if not _dual_order_test(sub_b, x):
        return False
    atom_set = set(sub_b.atoms())
    if x in atom_set:
        return True
    for y in range(sub_b.size):
        if not _dual_order_test(sub_b, y):
            continue
        m = sub_b._meet(x, y)
        if m in atom_set and not _dual_order_test(sub_b, m):
            return True
    return False


# -- partitions --------------------------------------------------------------

class Partition(_Record):
    """A partition of {1..n}: disjoint sorted blocks, sorted by least member."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[tuple[int, ...], ...]):
        super().__init__(blocks)
        seen = set()
        for blk in blocks:
            if not blk or list(blk) != sorted(blk):
                raise MalformedInput("partition blocks must be nonempty and sorted")
            if seen & set(blk):
                raise MalformedInput("partition blocks overlap")
            seen.update(blk)
        if list(blocks) != sorted(blocks, key=lambda b: b[0]):
            raise MalformedInput("partition blocks must be sorted by least member")

    @classmethod
    def of(cls, blocks) -> "Partition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        return cls(canon)

    @property
    def universe(self) -> frozenset[int]:
        return frozenset(i for blk in self.blocks for i in blk)

    def refines(self, other: "Partition") -> bool:
        """Every block of self sits inside a block of other."""
        lookup = {}
        for k, blk in enumerate(other.blocks):
            for i in blk:
                lookup[i] = k
        for blk in self.blocks:
            ks = {lookup.get(i) for i in blk}
            if len(ks) != 1 or None in ks:
                return False
        return True

    def __str__(self):
        return "|".join("".join(str(i) for i in blk) for blk in self.blocks)

    def __len__(self):
        return len(self.blocks)


def subalgebra_to_partition(B: FiniteOrtholattice, x) -> Partition:
    """Partition of B's atoms by the atoms of the subalgebra x.

    Atom positions are 1-based in ascending element order, so finer
    partitions correspond to larger subalgebras.
    """
    _require_boolean(B)
    mask = B.subalgebra(x).members
    atoms = B.atoms()
    pos = {a: i + 1 for i, a in enumerate(atoms)}
    blocks = []
    for s in bits(mask):
        if s == 0:
            continue
        if B.down[s] & mask == (1 << s) | 1:  # s is an atom of x
            blocks.append(tuple(pos[p] for p in atoms if B.leq(p, s)))
    return Partition.of(blocks)


def partition_to_subalgebra(B: FiniteOrtholattice, p: Partition) -> SubalgebraSet:
    """The subalgebra whose atoms are the joins of the partition blocks.

    Its elements are the joins of the unions of blocks, read off the joins
    of every set of atoms (``_joins``) as the enumerator reads them."""
    _require_boolean(B)
    atoms = B.atoms()
    if p.universe != frozenset(range(1, len(atoms) + 1)):
        raise MalformedInput("partition does not cover the atom positions")
    point, members = _joins(B, atoms), [0]
    for blk in p.blocks:
        block = sum([1 << i - 1 for i in blk])
        members += [m | block for m in members]
    return B.subalgebra(sum([point[m] for m in members]))


def partition_lattice(n: int) -> tuple[AbstractPoset, tuple[Partition, ...]]:
    """All partitions of {1..n} ordered by refinement (finer below).

    Node 0 is the all-singletons partition; the one-block partition is the
    top.  Returns (poset, partitions) with partitions in node order.  p
    refines q exactly when q keeps together every pair that p does.
    """
    if n < 1:
        raise MalformedInput("partition lattice needs n >= 1")
    pairs = (1 << n * (n - 1) // 2) - 1
    # block b of a table row is member 2^b; as tuples of 1..n they sort as blocks do
    nodes = sorted((tuple(tuple(i + 1 for i in bits(ms[1 << b]))
                          for b in range(len(ms).bit_length() - 1)), pairs ^ key)
                   for ms, key in _partition_table(n))
    # refinement is a partial order on partitions
    return (AbstractPoset._trusted(*inclusion_rows([key for _, key in nodes])),
            tuple(Partition(blocks) for blocks, _ in nodes))
