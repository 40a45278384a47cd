"""The one backtracking search, and the isomorphisms it lists.

``_backtrack`` maps the points of one order into another, preserving the
order and narrowing the domains left to the unmapped points as it places
each one.  ``_order_isos`` lists the bijections among those maps whose
points agree on per-point signatures: the lattice isomorphisms here
(``isomorphisms``, with the complement as a partner), the brute-force
oracle of the determination check, and the poset isomorphisms of
``subalgebra_posets.poset_isomorphisms``, which imports this module when
it first runs.  The homomorphism search of ``functorial`` passes
``_backtrack`` its own domains and a consistency test.  Only the verbs
that search load this module: the lifts check a node map with
``subalgebra_posets.check_order_iso`` and search nothing.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .lattice_core import ISO, FiniteOrtholattice, Morphism, bits


def _iso_signatures(L: FiniteOrtholattice) -> list[tuple]:
    """Order signatures plus depth, read without ``cover_down`` or
    ``depths``: since ' reverses the order, the lower covers of a are the
    complements of the upper covers of a', and the depth of a is the height
    of a'.  So the complement's cone and cover counts would repeat the
    element's own."""
    renamed = itemgetter(*L.ortho)
    return L._order_signatures(renamed([row.bit_count() for row in L.cover_up]),
                               renamed(L.heights))


def isomorphisms(L: FiniteOrtholattice, M: FiniteOrtholattice) -> Iterator[Morphism]:
    """All isomorphisms L -> M, in a canonical order.

    Backtracking over element bijections that preserve order and complement,
    pruned by per-element signatures (cone sizes, height, depth and cover
    degrees).  Deterministic: elements are processed in a fixed
    order and candidates tried ascending.

    The maps are not re-checked by ``morphism``: a map the order search
    yields is an order isomorphism (see ``_order_isos``), and its partner
    rule makes it commute with the complement.  Meets and joins are fixed
    by the order, so ``morphism`` could not reject the map, and would
    return this same iso.
    """
    if L.n != M.n or L.flavor != M.flavor:
        return
    for mapping in _order_isos(L, M, _iso_signatures(L), _iso_signatures(M),
                               (L.ortho, M.ortho)):
        yield Morphism(L, M, tuple(mapping), ISO)


def _order_isos(src, tgt, sig_src: list, sig_tgt: list, partner=None) -> Iterator[list[int]]:
    """Bijections between two orders (``up``/``down`` rows) that preserve
    and reflect it and map each element to one with an equal signature.

    Each point's domain is at first its signature class, the points with
    the smallest classes go first, and ``_backtrack`` narrows the domains
    along the order.  A complete map preserves the order (see
    ``_backtrack``), and the signatures' equal cone sizes give both orders
    as many comparable pairs, so the map, a bijection, reflects the order
    too.  Yields the live mapping.
    """
    if sorted(sig_src) != sorted(sig_tgt):
        return iter(())
    domain = _classes(sig_src, sig_tgt)
    order = sorted(range(len(domain)), key=[d.bit_count() for d in domain].__getitem__)
    return _backtrack(order, domain, src, tgt, [-1] * len(domain), partner, distinct=True)


def _classes(sig_src: list, sig_tgt: list) -> list[int]:
    """For each source point, the bit set of the target points with its
    signature: the targets grouped by signature in one pass."""
    by_sig = {}
    for y, sig in enumerate(sig_tgt):
        by_sig[sig] = by_sig.get(sig, 0) | 1 << y
    return [by_sig.get(sig, 0) for sig in sig_src]


def _backtrack(order: Sequence[int], domain: Sequence[int], src, tgt, mapping: list[int],
               partner=None, distinct: bool = False, consistent=None) -> Iterator[list[int]]:
    """Every map a -> b from ``src``'s points to ``tgt``'s with b in
    ``domain[a]`` that preserves the order (``up``/``down`` rows), one to
    one when ``distinct``, and passes ``consistent(a, b)`` at each
    placement, if given.  ``mapping`` starts all -1 (unmapped) and is
    yielded live at each complete map.

    The one backtracking search behind the isomorphism and homomorphism
    enumerators.  It checks forward (Haralick and Elliott, Artif. Intell.
    14, 1980): placing a -> b narrows the domain of every unmapped point
    below a to the targets below b, and of every unmapped point above a to
    those above b (a b comparable to every target narrows nothing), and is
    refused when a point it narrows has no target left (none unused, when
    ``distinct``), since then no completion is left.  So a complete map
    preserves the order: each comparable pair was narrowed when its first
    point was placed.  The next unmapped point a in ``order`` tries the
    targets of ``domain[a]`` not in use, ascending, read when it is
    reached: placements are undone last in, first out, so every later try
    there sees that same set.  ``partner = (src, tgt)`` forces
    src[a] -> tgt[b] along with a -> b, which must lie in its domain and
    is placed the same way; the orthocomplements on both sides are the
    partners.  Iterative, so the depth is not bounded by the recursion
    limit.
    """
    domain = list(domain)
    up_s, down_s, up_t, down_t = src.up, src.down, tgt.up, tgt.down
    everything = (1 << len(up_t)) - 1
    free, unused = (1 << len(up_s)) - 1, everything   # unmapped points, targets not in use

    def place(a: int, b: int, placed: list) -> bool:
        nonlocal free, unused
        if consistent is not None and not consistent(a, b):
            return False
        left = unused ^ 1 << b if distinct else everything
        others = free ^ 1 << a
        saved = []   # (point, its domain before this placement)
        for cone, row in ((down_s[a] & others, down_t[b]), (up_s[a] & others, up_t[b])):
            if row == everything:
                continue
            while cone:
                low = cone & -cone
                z = low.bit_length() - 1
                cone ^= low
                old = domain[z]
                d = old & row
                if not d & left:
                    for z, old in saved:
                        domain[z] = old
                    return False
                if d != old:
                    domain[z] = d
                    saved.append((z, old))
        mapping[a] = b
        free, unused = others, left
        placed.append((a, saved))
        if partner is None:
            return True
        ao, bo = partner[0][a], partner[1][b]
        if mapping[ao] >= 0:
            return mapping[ao] == bo
        return (domain[ao] & unused) >> bo & 1 and place(ao, bo, placed)

    def undo(placed: list):
        nonlocal free, unused
        while placed:
            a, saved = placed.pop()
            for z, old in saved:
                domain[z] = old
            free |= 1 << a
            unused |= 1 << mapping[a]
            mapping[a] = -1

    def next_free(pos: int) -> int:
        while pos < len(order) and mapping[order[pos]] >= 0:
            pos += 1
        return pos

    if not order:
        yield mapping
        return
    # one frame per point being tried: its position in ``order``, the
    # targets left to try, and the placements its current choice made
    stack = [(0, bits(domain[order[0]] & unused), [])]
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
            stack.append((nxt, bits(domain[order[nxt]] & unused), []))


def find_isomorphism(L: FiniteOrtholattice, M: FiniteOrtholattice) -> Optional[Morphism]:
    """Some isomorphism L -> M if one exists, else None (brute-force oracle)."""
    return next(isomorphisms(L, M), None)


def automorphisms(L: FiniteOrtholattice) -> list[Morphism]:
    return list(isomorphisms(L, L))
