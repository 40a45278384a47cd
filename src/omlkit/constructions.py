"""Lattices built from their definitions: the Boolean algebras, products,
horizontal sums, MO_k, the hexagon and example 2.2, the catalog that names
them, and relabeled and subalgebra copies of a lattice.

Every construction ends in the validating constructor of
``lattice_core.FiniteOrtholattice``, so a lattice built here is checked as
one read from a file is.  The command-line verbs that read their lattices
from files never load this module.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from .errors import MalformedInput, SizeCap, UnknownName
from .lattice_core import MAX_ELEMENTS, FiniteOrtholattice, _induced, _permuted, bits


def boolean_algebra(num_atoms: int, name: Optional[str] = None) -> FiniteOrtholattice:
    """Power-set lattice on ``num_atoms`` atoms; element i is the subset i."""
    if not 1 <= num_atoms <= 6:
        raise SizeCap("Boolean construction supports 1..6 atoms")
    # 2^k is 2^(k-1) x 2: the subsets without atom k-1, then those with it
    up = [1]
    for k in range(num_atoms):
        half = 1 << k
        up = [r | r << half for r in up] + [r << half for r in up]
    full = len(up) - 1
    return FiniteOrtholattice(up, [full ^ i for i in range(full + 1)], name or f"2^{num_atoms}")


def product(L: FiniteOrtholattice, M: FiniteOrtholattice,
            name: Optional[str] = None) -> FiniteOrtholattice:
    """Direct product with componentwise order and complement."""
    if L.n * M.n > MAX_ELEMENTS:
        raise SizeCap(f"product would have {L.n * M.n} elements")
    # (x, y) is element x * m + y, so the row of (x, y) holds one copy of
    # M.up[y] shifted to each x2 above x; the copies are disjoint, so sum is OR
    m = M.n
    up = [sum(M.up[y] << x2 * m for x2 in bits(L.up[x])) for x in range(L.n) for y in range(m)]
    ortho = [L.ortho[x] * m + M.ortho[y] for x in range(L.n) for y in range(m)]
    return FiniteOrtholattice(up, ortho, name)


def horizontal_sum(summands: Sequence[FiniteOrtholattice],
                   name: Optional[str] = None) -> FiniteOrtholattice:
    """Glue the summands at their bounds; everything else stays incomparable.

    Each summand needs at least 4 elements (a 2-element summand would
    contribute nothing).  For Boolean summands the result is orthomodular
    with the summands as its blocks.  Each summand's inner elements keep
    their order and follow the previous summand's, so its inner rows are
    its own, shifted, plus the top.
    """
    if not summands:
        raise MalformedInput("horizontal sum of nothing")
    if any(s.n < 4 for s in summands):
        raise MalformedInput("horizontal sum needs summands with at least 4 elements")
    n = sum(s.n - 2 for s in summands) + 2
    if n > MAX_ELEMENTS:
        raise SizeCap(f"horizontal sum would have {n} elements")
    top = 1 << n - 1
    up, ortho = [(1 << n) - 1], [n - 1]
    for s in summands:
        # inner element e lands on e + shift; its row drops s's top for L's
        shift, inner = len(up) - 1, (1 << s.n - 1) - 1
        up += [(s.up[e] & inner) << shift | top for e in range(1, s.n - 1)]
        ortho += [s.ortho[e] + shift for e in range(1, s.n - 1)]
    return FiniteOrtholattice(up + [top], ortho + [0], name)


def mo(k: int) -> FiniteOrtholattice:
    """Bounds plus k orthogonal atom pairs (horizontal sum of k diamonds)."""
    if k < 1:
        raise UnknownName("MO index must be at least 1")
    # refused before k summands are listed
    if 2 * k + 2 > MAX_ELEMENTS:
        raise SizeCap(f"horizontal sum would have {2 * k + 2} elements")
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


def _index(digits: str) -> int:
    """The number a name's index spells.  An index of more digits (leading
    zeros aside) than the cap has elements is past the cap whatever they
    are, and raises SizeCap before ``int`` reads it: neither ``int`` nor a
    message would take the text of a number thousands of digits long."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > MAX_ELEMENTS:
        raise SizeCap(f"an index of {len(digits)} digits is past the {MAX_ELEMENTS}-element cap")
    return int(digits)


def catalog(name: str) -> FiniteOrtholattice:
    """Construct a lattice by name.

    Accepted: ``2^n`` or ``B2^n``, ``MOk``, ``MO2x2``, ``example22``,
    ``benzene``, and ``hsum(2^a,2^b,...)`` with Boolean summands.  The
    catalog keeps no ranges of its own: the constructors decide, so 2^1 ..
    2^6 and MO1 .. MO31 build, and a name past the 64-element cap raises
    SizeCap.  Raises UnknownName for a name of no accepted form, and as
    ``mo`` does for MO0.  An index is read by ``_index``.
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
        return boolean_algebra(_index(m.group(1)))
    m = _MO_NAME.fullmatch(key)
    if m:
        return mo(_index(m.group(1)))
    m = _HSUM_NAME.fullmatch(key)
    if m:
        args = [a for a in m.group(1).split(",") if a]
        if not args:
            raise UnknownName("hsum needs at least one summand")
        summands = []
        for a in args:
            bm = _BOOLEAN_NAME.fullmatch(a)
            if not bm:
                raise UnknownName(f"hsum summands must be Boolean algebras 2^k, got {a!r}")
            summands.append(boolean_algebra(_index(bm.group(1))))
        label = "hsum(" + ",".join(f"2^{s.n.bit_length() - 1}" for s in summands) + ")"
        return horizontal_sum(summands, name=label)
    raise UnknownName(name)


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
    return FiniteOrtholattice(_permuted(L.up, L.down, perm), ortho, name)


def sublattice(L: FiniteOrtholattice, members) -> tuple[FiniteOrtholattice, tuple[int, ...]]:
    """Standalone copy of a closed subalgebra.

    Returns (lattice, backmap) where backmap[local] is the element of L the
    local index came from.  Local indices keep the ambient ascending order,
    so 0 and the local top stay pinned.
    """
    mask = L.subalgebra(members).members
    backmap = tuple(bits(mask))
    # the local index of an element is the number of members below it
    ortho = [(mask & (1 << L.ortho[g]) - 1).bit_count() for g in backmap]
    return FiniteOrtholattice(_induced(L.up, mask), ortho), backmap
