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
the same order.

``legacy_recognize_boolean_node`` is the Boolean-node recognizer that built
the interval and a fresh partition lattice for every node, with no cheap
invariants in front of the isomorphism search.
"""

from omlkit import sachs_boolean
from omlkit.errors import NoLeastElement, NotAMorphism
from omlkit.lattice_core import bits, morphism
from omlkit.subalgebra_posets import poset_isomorphic


def _close_from_scratch(L, mask):
    # the closure as it was before it became incremental: re-closed in full
    mask |= 1 | 1 << (L.n - 1)
    members = list(bits(mask))
    meet, join, ortho = L._meet, L._join, L.ortho
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
            if boolean_only and not L.is_boolean(t):
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


def _iso_signatures(L):
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


def legacy_isomorphisms(L, M):
    """All isomorphisms L -> M, as the old lattice search listed them."""
    n = L.n
    if n != M.n or L.flavor != M.flavor:
        return
    sig_l = _iso_signatures(L)
    sig_m = _iso_signatures(M)
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
