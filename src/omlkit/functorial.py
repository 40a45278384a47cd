"""Preimage maps of homomorphisms and how much they remember.

Every homomorphism f: L -> M induces the preimage map f-inverse from Sub(M)
to Sub(L); it preserves all meets but the assignment is neither dense, full
nor faithful as a contravariant construction.  The recovery trichotomy
below pins down exactly when f-inverse determines f: never informative for
two-element images, ambiguous exactly through four-element blocks of the
image, unique otherwise.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, Optional, Sequence

from .errors import FlavorError, NotAMorphism, SizeCap
from .lattice_core import (
    FiniteOrtholattice,
    Morphism,
    SubalgebraSet,
    _Record,
    bits,
    mask_of,
    morphism,
)
from .search import _backtrack
from .subalgebra_posets import SubalgebraPoset, enumerate_subalgebras

HOM_SEARCH_CAP = 256


class PreimageMap(_Record):
    """The node map x -> f^{-1}[x] from Sub(target) to Sub(source)."""

    __slots__ = ("source_poset", "target_poset", "mapping")

    def __init__(self, source_poset: SubalgebraPoset,   # Sub(M) for f: L -> M
                 target_poset: SubalgebraPoset,         # Sub(L)
                 mapping: tuple[int, ...]):
        super().__init__(source_poset, target_poset, mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def preserves_meets(self) -> bool:
        """Binary meets and the top; enough for all meets at finite size."""
        P, Q = self.source_poset, self.target_poset
        if self.mapping[P.top()] != Q.top():
            return False
        f = self.mapping
        for x in range(P.size):
            for y in range(x, P.size):
                if Q._meet(f[x], f[y]) != f[P._meet(x, y)]:
                    return False
        return True


def image_subalgebra(f: Morphism) -> SubalgebraSet:
    """The image of f as a subalgebra of the target."""
    return f.target.subalgebra(f.image_mask())


def _preimage_masks(f: Morphism, sub_m: SubalgebraPoset) -> Iterator[int]:
    """f^{-1}[x] for each node x of sub_m in order: an OR of fibres f^{-1}[v]."""
    fibre = [0] * f.target.n
    for a, v in enumerate(f.mapping):
        fibre[v] |= 1 << a
    for mask in sub_m.masks:
        pre = 0
        for v in bits(mask):
            pre |= fibre[v]
        yield pre


def preimage_functor(f: Morphism,
                     sub_m: Optional[SubalgebraPoset] = None,
                     sub_l: Optional[SubalgebraPoset] = None) -> PreimageMap:
    """The preimage node map induced by a homomorphism f: L -> M."""
    if sub_m is None:
        sub_m = enumerate_subalgebras(f.target)
    if sub_l is None:
        sub_l = enumerate_subalgebras(f.source)
    return PreimageMap(sub_m, sub_l, tuple(map(sub_l.node_index, _preimage_masks(f, sub_m))))


def enumerate_homs(L: FiniteOrtholattice, M: FiniteOrtholattice) -> list[Morphism]:
    """All homomorphisms L -> M, sorted by their mapping tuples.

    The shared search over element assignments in height order: the bounds
    are pinned, complements forced, and each placement narrows the targets
    left to the points above and below it, so every map is monotone; a
    placement is tested for meets against the assigned elements, and
    complete assignments are revalidated.  Only for small inputs: |L| * |M|
    is capped at 256.
    """
    if L.n * M.n > HOM_SEARCH_CAP:
        raise SizeCap(f"hom search capped at |L|*|M| <= {HOM_SEARCH_CAP}")
    return _homs(L, M, [range(M.n)] * L.n)


def _homs(L: FiniteOrtholattice, M: FiniteOrtholattice,
          candidates: Sequence[Iterable[int]]) -> list[Morphism]:
    """The homomorphisms f: L -> M with f(a) in ``candidates[a]`` for every
    a, sorted by mapping.  The candidates are the domains of ``_backtrack``,
    and the bounds are pinned by one-target domains.  A forced complement
    must lie in its own domain, so the lists must be closed under
    complement: v in candidates[a] exactly when v' is in candidates[a'].

    The engine's narrowing keeps every map monotone, so a placement is
    tested for meets alone.  Joins need no test: the partner rule places a'
    right after a, and a v c = (a' ^ c')', so the meet test at (a', c')
    cuts a join that fails at (a, c), one placement later.  Every complete
    map is revalidated by ``morphism``."""
    n = L.n
    domain = [mask_of(c) for c in candidates]
    domain[0], domain[n - 1] = 1, 1 << (M.n - 1)
    mapping = [-1] * n

    below_l, down_l, below_m, down_m = L._below, L.down, M._below, M.down

    def consistent(a: int, v: int) -> bool:
        row_a, row_v = down_l[a], down_m[v]
        for c, w in enumerate(mapping):
            if w >= 0:
                fm = mapping[below_l[row_a & down_l[c]]]
                if fm >= 0 and below_m[row_v & down_m[w]] != fm:
                    return False
        return True

    results = []
    for found in _backtrack(L._ranked, domain, L, M, mapping, (L.ortho, M.ortho),
                            consistent=consistent):
        try:
            results.append(morphism(L, M, tuple(found)))
        except NotAMorphism:
            pass
    results.sort(key=lambda f: f.mapping)
    return results


class RecoveryKind(enum.Enum):
    TWO_ELEMENT_IMAGE = "TwoElementImage"
    FOUR_BLOCK_IMAGE = "FourBlockImage"
    DETERMINED = "Determined"


class RecoveryReport(_Record):
    """How much the preimage map of a homomorphism determines it."""

    __slots__ = ("kind", "image_size", "witness", "unique")

    def __init__(self, kind: RecoveryKind, image_size: int,
                 witness: Optional[Morphism],   # a g != f with the same preimage map
                 unique: Optional[bool]):       # set on the Determined branch
        super().__init__(kind, image_size, witness, unique)

    def lines(self) -> list[str]:
        out = [f"classification: {self.kind.value}",
               f"image size: {self.image_size}"]
        if self.witness is not None:
            out.append(f"witness with equal preimage map: {list(self.witness.mapping)}")
        if self.unique is not None:
            out.append(f"unique among all homomorphisms: {'yes' if self.unique else 'no'}")
        return out


def classify_recovery(f: Morphism) -> RecoveryReport:
    """Trichotomy for recovering f from its preimage map.

    Two-element image: nothing beyond the image is recoverable.  An image
    with a four-element block: swapping that block's atom pair after f gives
    a different homomorphism with the same preimage map; the witness is
    constructed.  Otherwise f is the unique homomorphism with its preimage
    map.  That is checked by searching only the homomorphisms g with the
    same preimage map, so the search needs no |L|*|M| cap.
    """
    # g^{-1}[x] = f^{-1}[x] for every node x of Sub(M) exactly when each g(a)
    # lies in the same nodes as f(a).  A node holds v exactly when it holds
    # v'; the node {0, v, v', 1} holds nothing else, and {0, 1} only the
    # bounds.  So g has f's preimage map exactly when g(a) is f(a) or f(a)'
    # for every a, and Sub(M) need not be enumerated.  The candidate lists
    # {f(a), f(a)'} are closed under complement, as _homs needs.
    im = image_subalgebra(f)
    if len(im) == 2:
        return RecoveryReport(RecoveryKind.TWO_ELEMENT_IMAGE, 2, None, None)
    M, mask = f.target, im.members
    if not M._orthomodular_on(mask):
        raise FlavorError("blocks are defined for orthomodular lattices")
    # the image's four-element blocks are its atom-coatom pairs {0, p, q, 1}
    # (see iso_lifting._lift_through_atoms); the least has the least q.
    # Swapping p and q after f gives a homomorphism g != f with each g(a)
    # equal to f(a) or f(a)'
    ortho, top = M.ortho, 1 << (M.n - 1)
    for q in bits(mask):
        p = ortho[q]
        if p < q and M.down[q] & mask == 1 | 1 << q and M.up[q] & mask == 1 << q | top:
            swap = {p: q, q: p}
            g = morphism(f.source, M, tuple(swap.get(v, v) for v in f.mapping))
            return RecoveryReport(RecoveryKind.FOUR_BLOCK_IMAGE, len(im), g, None)
    candidates = [sorted({w, ortho[w]}) for w in f.mapping]
    matches = len(_homs(f.source, f.target, candidates))
    return RecoveryReport(RecoveryKind.DETERMINED, len(im), None, matches == 1)


class MeetMapReport(_Record):
    """A meet-preserving self-map of Sub(2^3) no homomorphism induces."""

    __slots__ = ("poset", "mapping", "meets_preserved", "realized_by_hom", "hom_count")

    def __init__(self, poset: SubalgebraPoset, mapping: tuple[int, ...],
                 meets_preserved: bool, realized_by_hom: bool, hom_count: int):
        super().__init__(poset, mapping, meets_preserved, realized_by_hom, hom_count)

    def lines(self) -> list[str]:
        return [
            f"map on Sub(2^3): {list(self.mapping)}",
            f"preserves all meets: {'yes' if self.meets_preserved else 'no'}",
            f"realized as a preimage map: {'yes' if self.realized_by_hom else 'no'}",
            f"homomorphisms checked: {self.hom_count}",
        ]


def unrealized_meet_preserving_map() -> MeetMapReport:
    """Send one atom node of Sub(2^3) to the bottom, fix everything else.

    The result preserves all meets (and trivially all up-directed joins at
    this size) yet differs from the preimage map of every endomorphism of
    the 8-element Boolean algebra: collapsing that node would force the
    endomorphism to be simultaneously one-one and not onto.
    """
    from .constructions import boolean_algebra

    B = boolean_algebra(3)
    s = enumerate_subalgebras(B)
    collapsed = s.atoms()[-1]
    mapping = tuple(s.bottom() if i == collapsed else i for i in range(s.size))
    pm = PreimageMap(s, s, mapping)
    homs = enumerate_homs(B, B)
    realized = any(preimage_functor(h, s, s).mapping == mapping for h in homs)
    return MeetMapReport(s, mapping, pm.preserves_meets(), realized, len(homs))
