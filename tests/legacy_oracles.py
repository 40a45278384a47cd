"""Earlier enumeration algorithms, kept as test oracles for Close-by-One.

``frontier_subalgebras`` is the breadth-first frontier search that listed
Sub(L) and BSub(L) before Close-by-One: extend every known subalgebra by
each missing element, close from scratch, dedup by bit set.
``subset_scan_orthoclosed`` is the exhaustive 2^points scan for the
orthoclosed sets of a frame.  Both are slow and obviously complete, which
is what an oracle should be.
"""

from omlkit.lattice_core import bits


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
