"""Core lattice validation, operations, and the brute-force iso oracle."""

import functools
import itertools
import random
import re
import subprocess
import sys
import tracemalloc

import pytest

from omlkit import (
    BadOrthocomplement,
    FlavorError,
    MalformedInput,
    NoBoundedLattice,
    NotAMorphism,
    NotAnIso,
    NotAPartialOrder,
    ORTHOLATTICE,
    OmlkitError,
    ORTHOMODULAR,
    SizeCap,
    UnknownName,
    automorphisms,
    benzene,
    boolean_algebra,
    bsub,
    catalog,
    classify_recovery,
    enumerate_homs,
    example22,
    find_isomorphism,
    horizontal_sum,
    identity_morphism,
    lift_bsub_iso,
    mo,
    morphism,
    orthoclosed_lattice,
    OrthoFrame,
    poset_isomorphic,
    product,
    reconstruct,
    relabel,
    sub,
    sublattice,
    verify_determination,
)
from omlkit import lattice_core
from omlkit.cli import main
from omlkit.lattice_core import (
    FiniteOrtholattice,
    _blocks,
    _cover_row,
    _covers,
    _permuted,
    _transpose,
    bits,
    mask_of,
    validate,
)
from omlkit.subalgebra_posets import AbstractPoset, check_order_iso

from legacy_oracles import (
    cone_scan_tables,
    legacy_blocks,
    legacy_boolean_algebra,
    legacy_bound_tables,
    legacy_check_order_iso,
    legacy_commuting,
    legacy_covers,
    legacy_finite_ortholattice,
    legacy_horizontal_sum,
    legacy_is_boolean,
    legacy_morphism,
    legacy_permuted,
    legacy_product,
    legacy_unique_bound,
)

CATALOG_OMLS = ["2^2", "2^3", "2^4", "MO2", "MO3", "MO4",
                "MO2x2", "example22", "hsum(2^3,2^3)"]


def full_relation(n, strict_pairs):
    rows = [1 << i for i in range(n)]
    rows[0] = (1 << n) - 1
    for i in range(1, n - 1):
        rows[i] |= 1 << (n - 1)
    rows[n - 1] = 1 << (n - 1)
    for a, b in strict_pairs:
        rows[a] |= 1 << b
    return rows


# MO2 written out by hand: 0 < a,a',b,b' < 1 with ortho pairs (a,a'), (b,b').
# Used as an order-table oracle independent of the catalog constructors.
MO2_LEQ = {(i, i) for i in range(6)} | {(0, j) for j in range(6)} | \
    {(j, 5) for j in range(6)}
MO2_ORTHO = [5, 2, 1, 4, 3, 0]


def brute_glb(leq, n, a, b):
    lowers = [x for x in range(n) if (x, a) in leq and (x, b) in leq]
    best = [x for x in lowers if all((y, x) in leq for y in lowers)]
    return best[0] if len(best) == 1 else None


def brute_lub(leq, n, a, b):
    uppers = [x for x in range(n) if (a, x) in leq and (b, x) in leq]
    best = [x for x in uppers if all((x, y) in leq for y in uppers)]
    return best[0] if len(best) == 1 else None


def test_validate_diamond_is_orthomodular():
    rows = full_relation(4, [])
    L = FiniteOrtholattice(rows, [3, 2, 1, 0])
    assert L.flavor == ORTHOMODULAR
    assert L.meet(1, 2) == 0 and L.join(1, 2) == 3


def test_validate_benzene_is_ortholattice_only():
    L = benzene()
    assert L.flavor == ORTHOLATTICE
    assert not L.is_orthomodular
    # the orthomodular law fails at x <= y
    assert L.join(1, L.meet(L.ortho[1], 2)) != 2


def test_validate_rejects_self_complementary_chain():
    # chain 0 < a < 1 with ortho fixing a: a ^ a' = a != 0
    rows = [0b111, 0b110, 0b100]
    with pytest.raises(BadOrthocomplement):
        FiniteOrtholattice(rows, [2, 1, 0])


def test_validate_rejects_non_transitive():
    rows = [0b011, 0b110, 0b100]  # 0 <= 1 <= 2 but 0 <= 2 is missing
    with pytest.raises(NotAPartialOrder):
        FiniteOrtholattice(rows, [2, 1, 0])


def test_validate_rejects_missing_meets():
    # 0 < a,b < c,d < 1: c and d have no meet
    rows = full_relation(6, [(1, 3), (1, 4), (2, 3), (2, 4)])
    with pytest.raises(NoBoundedLattice):
        FiniteOrtholattice(rows, [5, 4, 3, 2, 1, 0])


def test_validate_rejects_unpinned_bounds():
    rows = [0b101, 0b111, 0b100]  # element 1 is the real bottom
    with pytest.raises(NoBoundedLattice):
        FiniteOrtholattice(rows, [2, 1, 0])


def test_validate_rejects_non_involution():
    rows = full_relation(4, [])
    with pytest.raises(BadOrthocomplement):
        FiniteOrtholattice(rows, [3, 1, 2, 0][::-1])  # not an involution


def test_meet_join_match_hand_table_on_mo2():
    L = mo(2)
    for a in range(6):
        for b in range(6):
            assert L.leq(a, b) == ((a, b) in MO2_LEQ)
            assert L.meet(a, b) == brute_glb(MO2_LEQ, 6, a, b)
            assert L.join(a, b) == brute_lub(MO2_LEQ, 6, a, b)
    assert L.join(1, 3) == 5  # distinct atom pairs join at the top
    assert L.ocomp(0) == 5


def _bound_tables(L):
    """The tables of ``L.meet`` and ``L.join``, row by row."""
    return tuple(tuple(tuple(bound(a, b) for b in range(L.n)) for a in range(L.n))
                 for bound in (L.meet, L.join))


TABLE_LATTICES = ["2^1", "2^2", "2^3", "2^4", "2^5", "MO1", "MO2", "MO3", "MO4", "MO2x2",
                  "example22", "benzene", "hsum(2^3,2^3)", "hsum(2^2,2^3,2^4)"]


JOIN_LATTICES = TABLE_LATTICES + ["2^6", "MO31", "hsum(2^5,2^5)"]


@pytest.mark.parametrize("name", JOIN_LATTICES)
def test_bound_tables_match_the_cone_scan(name):
    # the lattice keeps no meet table: meet reads the row index at an AND
    # of down rows, and join reads it through the complement
    L = catalog(name)
    for M in (L, relabel(L, [0] + random.Random(name).sample(range(1, L.n - 1), L.n - 2)
                         + [L.n - 1])):
        assert _bound_tables(M) == cone_scan_tables(M.up, M.down)


def _relabeled(L):
    """L with its inner elements shuffled, seeded by its name."""
    inner = random.Random(L.name).sample(range(1, L.n - 1), L.n - 2)
    return relabel(L, [0, *inner, L.n - 1])


@pytest.mark.parametrize("name", JOIN_LATTICES)
def test_join_is_the_least_upper_bound(name):
    # join reads (a' ^ b')': its up row is the common up rows of a and b
    L = catalog(name)
    for M in (L, _relabeled(L)):
        up = M.up
        assert all(up[M.join(a, b)] == up[a] & up[b] for a in range(M.n) for b in range(M.n))


@pytest.mark.parametrize("name", JOIN_LATTICES)
def test_the_fault_scan_names_the_pair_scans_first_fault(name):
    # maps that fail morphism's test, fed to the scan alone: it raises the
    # first fault of the pair scan on cone-scan joins; a map that keeps
    # every bound reaches no fault
    rng = random.Random(f"fault scan {name}")
    L = catalog(name)
    M = _relabeled(L)
    assert lattice_core._first_fault(L, L, tuple(range(L.n))) is None
    for _ in range(6):
        mapping = tuple(_complement_respecting(rng, L, M))
        expected = _verdict(legacy_morphism, L, M, mapping)
        if isinstance(expected, str):
            assert expected.startswith(("mapping does not preserve meet",
                                        "mapping does not preserve join"))
            with pytest.raises(NotAMorphism) as exc:
                lattice_core._first_fault(L, M, mapping)
            assert str(exc.value) == expected


def test_the_cone_scan_tables_are_kept_per_order():
    # the oracles' tables are scanned once per order, not once per read
    L = catalog("hsum(2^3,2^3)")
    M = _relabeled(L)
    tables = cone_scan_tables(L.up, L.down)
    assert cone_scan_tables(tuple(L.up), tuple(L.down)) is tables
    assert tables == _bound_tables(L) and cone_scan_tables(M.up, M.down) == _bound_tables(M)
    assert cone_scan_tables(M.up, M.down) != tables


def test_the_hot_paths_never_enter_the_fault_scan(monkeypatch):
    # Sub, BSub, a lift's final check, a recovery and a hom search check
    # maps through morphism, and every map they check passes its test
    calls = []
    scan = lattice_core._first_fault
    monkeypatch.setattr(lattice_core, "_first_fault",
                        lambda *args: calls.append(args) or scan(*args))
    H, S = catalog("hsum(2^5,2^5)"), catalog("hsum(2^4,2^4)")
    B3, B5, B6 = catalog("2^3"), catalog("2^5"), catalog("2^6")
    P = bsub(H)
    bsub(B6)
    lift_bsub_iso(H, H, tuple(range(P.size)), P, P)
    sub(S)
    # atoms 0 and 1 to themselves, atom 2 to the join of atoms 2, 3 and 4
    classify_recovery(morphism(B3, B5, [a & 3 | (a >> 2 & 1) * 28 for a in range(8)]))
    enumerate_homs(B3, B5)
    assert calls == []
    # a map that fails the test enters it: atoms 1 and 2 to themselves,
    # their join 3 to the atom 4
    with pytest.raises(NotAMorphism, match=r"^mapping does not preserve join\(1,2\)$"):
        morphism(B3, B5, [0, 1, 2, 4, 27, 29, 30, 31])
    assert len(calls) == 1


def test_the_commutation_tests_match_the_cone_scan_tables():
    # BSub of an ortholattice that is not orthomodular runs is_boolean on
    # every closure; it and commutes read joins through the complement
    L = product(benzene(), boolean_algebra(3))
    P = bsub(L)
    # every node is Boolean by the pairwise and distributive test, and so
    # is no one-element extension of a maximal node that is closed
    assert all(legacy_is_boolean(L, m) for m in P.masks)
    for x in P.maximal_elements():
        for e in bits(L.universe & ~P.masks[x]):
            grown = L.closure_mask(P.masks[x] | 1 << e)
            assert not legacy_is_boolean(L, grown) and not L.is_boolean(grown)
    M = catalog("example22")
    verdicts = {(a, b): M.commutes(a, b) for a in range(M.n) for b in range(M.n)}
    meet, join = cone_scan_tables(M.up, M.down)
    assert verdicts == {(a, b): join[meet[a][b]][meet[a][M.ortho[b]]] == a
                        for a in range(M.n) for b in range(M.n)}


def test_the_blocks_are_searched_once_per_lattice(monkeypatch):
    # BSub, blocks(), Booleanness and a lift all read one search's cliques
    calls = []
    search = lattice_core._blocks
    monkeypatch.setattr(lattice_core, "_blocks", lambda L: calls.append(L) or search(L))
    L, M = catalog("hsum(2^5,2^5)"), catalog("hsum(2^5,2^5)")
    P, Q = bsub(L), bsub(M)
    assert not L.is_boolean_algebra and len(L.blocks()) == 2
    lift_bsub_iso(L, M, tuple(range(P.size)), P, Q)
    assert calls == [L, M]


def _random_order(rng, n, bounded, levels=3):
    """A random partial order on 0..n-1 as up rows, on ``levels`` levels:
    i < j with probability 0.6 when j is on a higher level, closed
    transitively.  With ``bounded``, 0 and n-1 become its least and greatest
    elements."""
    level = sorted(rng.randrange(levels) for _ in range(n))
    up = [1 << i for i in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if level[i] < level[j] and rng.random() < 0.6:
                up[i] |= up[j]
    if bounded:
        up = [row | 1 << (n - 1) for row in up]
        up[0] = (1 << n) - 1
    return up


def test_a_non_lattice_fails_on_the_same_first_pair():
    rng = random.Random(11)
    non_lattices = lattices = 0
    for _ in range(400):
        n = rng.randrange(4, 10)
        up = _random_order(rng, n, bounded=True)
        ortho = list(range(n))[::-1]
        try:
            meet, join = legacy_bound_tables(up, _transpose(up))
        except NoBoundedLattice as exc:
            non_lattices += 1
            with pytest.raises(NoBoundedLattice) as got:
                FiniteOrtholattice(up, ortho)
            assert str(got.value) == str(exc)
            continue
        try:
            L = FiniteOrtholattice(up, ortho)
        except BadOrthocomplement:
            continue
        lattices += 1
        assert _bound_tables(L) == (tuple(map(tuple, meet)), tuple(map(tuple, join)))
    assert non_lattices > 50 and lattices > 50
    with pytest.raises(NoBoundedLattice, match="^elements 1 and 2 have no join$"):
        FiniteOrtholattice(full_relation(6, [(1, 3), (1, 4), (2, 3), (2, 4)]), range(6)[::-1])


def test_poset_bounds_match_the_cone_scan():
    # posets share the row index: joins, meets and bounds, None where absent
    rng = random.Random(12)
    for _ in range(150):
        n = rng.randrange(1, 9)
        P = AbstractPoset(_random_order(rng, n, bounded=rng.random() < 0.3))
        everything = (1 << n) - 1
        assert P.bottom() == legacy_unique_bound(P.up, everything)
        assert P.top() == legacy_unique_bound(P.down, everything)
        for x in range(n):
            for y in range(n):
                assert P.join(x, y) == legacy_unique_bound(P.up, P.up[x] & P.up[y])
                assert P.meet(x, y) == legacy_unique_bound(P.down, P.down[x] & P.down[y])


def test_covers_match_legacy_covers_on_random_posets():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randrange(1, 14)
        up = _random_order(rng, n, bounded=rng.random() < 0.5, levels=rng.randrange(1, 7))
        assert _covers(up) == legacy_covers(up, _transpose(up))


def test_permuted_matches_legacy_permuted_on_random_posets():
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randrange(1, 14)
        up = _random_order(rng, n, bounded=rng.random() < 0.5, levels=rng.randrange(1, 7))
        perm = rng.sample(range(n), n)
        assert _permuted(up, _transpose(up), perm) == legacy_permuted(up, perm)


def _dimension_order(rng, n, d):
    """(up, down) rows of a random order of dimension d on 0..n-1: i <= j
    when j comes at or after i in each of d random linear orders.  Built
    from cumulative bit sets, so large orders cost no pair loop."""
    up, down = [-1] * n, [-1] * n
    for _ in range(d):
        line, after, before = rng.sample(range(n), n), 0, 0
        for p in reversed(line):
            after |= 1 << p
            up[p] &= after
        for p in line:
            before |= 1 << p
            down[p] &= before
    return up, down


@pytest.mark.parametrize("n", [1, 2, 3, 14, 64, 225, 1024, 1025, 1030, 2100])
def test_permuted_matches_legacy_permuted_across_the_stripe_rule(n):
    # one stripe up to 1024 rows, eighths of the rows beyond: 1025 and
    # 1030 leave a short last stripe, 2100 eight stripes of 263 rows or fewer
    rng = random.Random(n)
    for d in (2, 4):
        up, down = _dimension_order(rng, n, d)
        assert down == list(_transpose(up))
        perm = rng.sample(range(n), n)
        assert _permuted(up, down, perm) == legacy_permuted(up, perm)
        assert _permuted(down, up, perm) == legacy_permuted(down, perm)
    antichain = [1 << i for i in range(n)]
    perm = rng.sample(range(n), n)
    assert _permuted(antichain, antichain, perm) == antichain


RENAMED = ["2^1", "2^3", "2^6", "MO3", "MO30", "example22", "benzene", "hsum(2^5,2^5)"]


@pytest.mark.parametrize("name", RENAMED)
def test_permuted_matches_legacy_permuted_on_relabeled_lattices(name):
    L = catalog(name)
    rng = random.Random(name)
    for _ in range(5):
        perm = rng.sample(range(L.n), L.n)
        assert _permuted(L.up, L.down, perm) == legacy_permuted(L.up, perm)
        assert _permuted(L.down, L.up, perm) == legacy_permuted(L.down, perm)
        inner = [0] + rng.sample(range(1, L.n - 1), L.n - 2) + [L.n - 1]
        assert relabel(L, inner).up == tuple(legacy_permuted(L.up, inner))


def _traced_peak(call):
    """The peak of the memory ``call`` allocates, in bytes, and its result."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, d", [(3000, 2), (3000, None)])
def test_renaming_scratch_stays_within_the_stripe_rule(n, d):
    # a stripe of an eighth of the rows spells n^2 / 8 + n digits, joined
    # from as many again, and the result rows, at most n^2 / 8 bytes, are
    # held twice while a stripe is merged in: about 4 n^2 / 8 bytes at the
    # peak.  One spelling of all n rows would take 2 n^2 bytes (16 n^2 / 8)
    rng = random.Random(n)
    up, down = _dimension_order(rng, n, d) if d else ([1 << i for i in range(n)],) * 2
    perm = rng.sample(range(n), n)
    peak, renamed = _traced_peak(lambda: _permuted(up, down, perm))
    assert renamed == legacy_permuted(up, perm)
    assert peak < 6 * n * n // 8


def test_a_poset_checks_a_large_antichain_in_linear_scratch():
    # posets are checked pair by pair and transposed by their set bits, as
    # their rows have no size cap: past the down rows it must return,
    # checking an antichain allocates O(n), where spelling its rows, even
    # in eighths, would take n^2 / 8 bytes at once
    n = 20000
    up = [1 << i for i in range(n)]
    peak, poset = _traced_peak(lambda: AbstractPoset(up))
    assert poset.down == tuple(up)
    rows = sum(map(sys.getsizeof, poset.down)) + sys.getsizeof(poset.down)
    assert peak - rows < 200 * n


def _iso_outcome(check, mapping, source, target):
    try:
        return check(mapping, source, target)
    except NotAnIso as exc:
        return str(exc)


def _chain_on_a_linear_extension(P):
    """A chain on P's points in ``_ranked`` order, and the map placing each
    point at its rank: it preserves P's order and reflects it only if P is a
    chain."""
    rank = [0] * P.size
    for k, x in enumerate(P._ranked):
        rank[x] = k
    return AbstractPoset([((1 << P.size) - 1) >> k << k for k in range(P.size)]), rank


@pytest.mark.parametrize("name, enumerate_", [
    ("MO3", sub), ("2^4", sub), ("hsum(2^3,2^3)", sub), ("hsum(2^4,2^4)", bsub),
    ("example22", bsub), ("hsum(2^5,2^5)", bsub), ("hsum(2^4,2^4)", sub), ("MO10", sub)])
def test_order_iso_faults_read_as_the_node_walk_named_them(name, enumerate_):
    # isos onto a relabeled copy, and maps into a chain on a linear
    # extension, each with two nodes swapped and with one node moved.  The
    # node walk takes 20 ms a map on Sub(MO10)'s 1,024 nodes: 3 rounds there
    P = enumerate_(catalog(name))
    rng = random.Random(name)
    perm = rng.sample(range(P.size), P.size)
    chain, ranks = _chain_on_a_linear_extension(P)
    seen = set()
    for target, base in ((P.relabel(perm), perm), (chain, ranks), (P, list(range(P.size)))):
        maps = [base]
        for _ in range(3 if P.size > 1000 else 30):
            i, j = rng.sample(range(P.size), 2)
            swapped = list(base)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            moved = list(base)
            moved.insert(j, moved.pop(i))
            maps += [swapped, moved]
        for mapping in maps:
            got = _iso_outcome(check_order_iso, mapping, P, target)
            assert got == _iso_outcome(legacy_check_order_iso, mapping, P, target)
            seen.add(re.sub(r"\d+", "#", got) if isinstance(got, str) else "iso")
    assert seen == {"iso", "node map does not preserve node order at # <= #",
                    "node map does not reflect node order"}


# a negative mask once closed forever, growing until memory ran out, and
# the bit walk of ``is_boolean`` and ``apply_mask`` never ended on one, so
# the calls run in a child interpreter with a deadline and a capped heap;
# a mask past the top raised a bare IndexError there
OUT_OF_RANGE_MASKS = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
import omlkit
from omlkit import sachs_boolean
L, B, C = omlkit.mo(2), omlkit.boolean_algebra(2), omlkit.boolean_algebra(3)
f = omlkit.identity_morphism(L)
for call in (lambda: L.subalgebra(-1), lambda: omlkit.sublattice(L, -1),
             lambda: sachs_boolean.dual_decomposition(B, -1),
             lambda: L.subalgebra(1 << 6), lambda: L.closure_mask(-1 << 7 | 5),
             lambda: L.is_boolean(-3), lambda: C.is_boolean(1 << 20),
             lambda: f.apply_mask(-1), lambda: f.apply_mask(1 << 6)):
    try:
        call()
    except omlkit.MalformedInput as exc:
        print(type(exc).__name__, exc)
"""


def test_masks_outside_the_universe_are_malformed_input(subprocess_env):
    out = subprocess.run([sys.executable, "-c", OUT_OF_RANGE_MASKS], env=subprocess_env,
                         capture_output=True, text=True, timeout=30)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.splitlines() == [
        f"MalformedInput element set mentions elements outside 0..{top}"
        for top in (5, 5, 3, 5, 5, 5, 7, 5, 5)]


def test_negative_members_are_malformed_input():
    # a negative element has no bit; it is reported as a mask is
    L = mo(2)
    for members in ([-1], [0, -3, 5], (e for e in (0, -1)), [9]):
        with pytest.raises(MalformedInput) as exc:
            L.subalgebra(members)
        assert str(exc.value) == "element set mentions elements outside 0..5"


@pytest.mark.parametrize("entry", [1.0, "a", True, None])
def test_a_map_entry_that_is_no_integer_is_not_a_morphism(entry):
    # a bool or float indexed the tables like an int, or raised a TypeError
    L = mo(2)
    with pytest.raises(NotAMorphism, match="not a total map"):
        morphism(L, L, [0, entry, 2, 3, 4, 5])
    # the entry as the whole map: a non-sequence raised a bare TypeError
    with pytest.raises(NotAMorphism, match="^mapping is not a total map into the target$"):
        morphism(L, L, entry)


@pytest.mark.parametrize("call, text", [
    (lambda L: L.generated_subalgebra([0.5]), "element 0.5 out of range"),
    (lambda L: L.generated_subalgebra(["a"]), "element 'a' out of range"),
    (lambda L: L.generated_subalgebra([True]), "element True out of range"),
    (lambda L: L.subalgebra([0, 2.0, 5]), "element set mentions elements outside 0..5"),
    (lambda L: L.subalgebra(2.0), "element set must be an integer bit set, got 2.0"),
    (lambda L: L.subalgebra(True), "element set must be an integer bit set, got True"),
    (lambda L: L.closure_mask(0.5), "element set must be an integer bit set, got 0.5"),
    (lambda L: L.is_boolean(0.5), "element set must be an integer bit set, got 0.5"),
    (lambda L: identity_morphism(L).apply_mask("a"),
     "element set must be an integer bit set, got 'a'"),
    (lambda L: sub(L).interval_below(1.5), "node 1.5 out of range"),
    (lambda L: sub(L).interval_below(-1), "node -1 out of range"),
    (lambda L: sub(L).interval_below(4), "node 4 out of range"),
], ids=["generated-float", "generated-str", "generated-bool", "subalgebra-float",
        "subalgebra-float-mask", "subalgebra-bool-mask", "closure-float",
        "is-boolean-float", "apply-mask-str",
        "interval-float", "interval-negative", "interval-past-end"])
def test_elements_and_nodes_that_are_no_valid_index_are_malformed_input(call, text):
    with pytest.raises(MalformedInput) as exc:
        call(mo(2))
    assert str(exc.value) == text


def test_meet_of_distinct_atoms_is_zero():
    B = boolean_algebra(3)
    a1, a2, _ = B.atoms()
    assert B.meet(a1, a2) == 0


def test_commutes_examples():
    L = example22()
    # comparable elements commute, in every catalog lattice
    for name in CATALOG_OMLS:
        M = catalog(name)
        for a in range(M.n):
            for b in bits(M.up[a]):
                assert M.commutes(a, b) and M.commutes(b, a)
    # distinct atom pairs of MO2 do not commute: (a^b) v (a^b') = 0
    m = mo(2)
    assert not m.commutes(1, 3)
    assert m.join(m.meet(1, 3), m.meet(1, m.ortho[3])) == 0
    # a and d share no block
    assert not L.commutes(1, 4)


def test_commutes_needs_orthomodular():
    with pytest.raises(FlavorError):
        benzene().commutes(1, 2)


def test_commutes_is_symmetric_on_catalog():
    for name in CATALOG_OMLS:
        L = catalog(name)
        for a in range(L.n):
            for b in range(L.n):
                assert L.commutes(a, b) == L.commutes(b, a)


def test_generated_subalgebra_examples():
    L = example22()
    assert L.generated_subalgebra().elements == (0, 11)
    assert L.generated_subalgebra([1]).elements == (0, 1, 6, 11)
    B = boolean_algebra(3)
    a1, a2, _ = B.atoms()
    assert len(B.generated_subalgebra([a1, a2])) == 8


def test_generated_subalgebra_is_a_closure_operator():
    for L in (mo(2), boolean_algebra(3), example22()):
        universe = range(L.n)
        for seed in itertools.chain(
                itertools.combinations(universe, 1),
                itertools.combinations(universe, 2)):
            s = L.generated_subalgebra(seed).members
            assert mask_of(seed) & ~s == 0              # extensive
            assert L.closure_mask(s) == s               # idempotent
            for e in range(L.n):                        # monotone
                t = L.generated_subalgebra(list(seed) + [e]).members
                assert s & ~t == 0


def test_commutation_matches_boolean_generation():
    # the algebraic test agrees with "the generated subalgebra is Boolean"
    for name in CATALOG_OMLS:
        L = catalog(name)
        for a in range(L.n):
            for b in range(L.n):
                generated = L.generated_subalgebra([a, b])
                assert L.commutes(a, b) == L.is_boolean(generated)


def test_is_boolean_examples():
    L = example22()
    assert L.is_boolean(mask_of((0, 11)))
    assert L.is_boolean(mask_of((0, 1, 2, 3, 6, 7, 8, 11)))
    m = mo(2)
    assert not m.is_boolean(m.universe)


BENZENE_LATTICES = {
    "benzene x 2^2": lambda: product(benzene(), boolean_algebra(2)),
    "benzene x 2^3": lambda: product(benzene(), boolean_algebra(3)),
    "hsum(benzene,2^3)": lambda: horizontal_sum([benzene(), boolean_algebra(3)]),
    "hsum(benzene,benzene)": lambda: horizontal_sum([benzene(), benzene()]),
}


@pytest.mark.parametrize("name", CATALOG_OMLS + ["benzene", *BENZENE_LATTICES])
def test_is_boolean_matches_the_distributivity_check(name):
    # the atom count, with orthomodularity, decides as the pairwise
    # commutation and distributivity loops of the oracle do, on every
    # subalgebra, orthomodular or not, relabeled or not
    L = BENZENE_LATTICES[name]() if name in BENZENE_LATTICES else catalog(name)
    verdicts = set()
    for seed in (None, 1, 2):
        M = L
        if seed is not None:
            inner = random.Random(f"{name}/{seed}").sample(range(1, L.n - 1), L.n - 2)
            M = relabel(L, [0, *inner, L.n - 1])
        for node in sub(M).nodes:
            verdicts.add(M.is_boolean(node.members))
            assert M.is_boolean(node.members) == legacy_is_boolean(M, node.members)
    assert (False in verdicts) == (not L.is_boolean_algebra)


def test_blocks_examples():
    B = boolean_algebra(3)
    assert [b.members for b in B.blocks()] == [B.universe]
    L = example22()
    blks = L.blocks()
    assert [b.elements for b in blks] == \
        [(0, 1, 2, 3, 6, 7, 8, 11), (0, 3, 4, 5, 8, 9, 10, 11)]
    assert blks[0].members & blks[1].members == mask_of((0, 3, 8, 11))
    m = mo(2)
    assert [b.elements for b in m.blocks()] == [(0, 1, 2, 5), (0, 3, 4, 5)]


def test_blocks_cover_and_are_closed():
    for name in CATALOG_OMLS:
        L = catalog(name)
        union = 0
        for blk in L.blocks():
            assert 0 in blk and L.n - 1 in blk
            assert L.closure_mask(blk.members) == blk.members
            assert L.is_boolean(blk)
            union |= blk.members
        assert union == L.universe


def test_blocks_need_orthomodular():
    with pytest.raises(FlavorError):
        benzene().blocks()


BLOCK_ORACLE_LATTICES = ["2^1", "2^2", "2^3", "2^4", "2^5", "2^6", "MO1", "MO2", "MO3", "MO4",
                         "MO31", "MO2x2", "MO2x2^2", "example22", "hsum(2^3,2^3)",
                         "hsum(2^2,2^3,2^4)", "hsum(2^5,2^5)"]


def _oracle_lattice(name):
    # past the catalog: 2^6 and MO31 have 64 elements, and the 16-element
    # blocks of MO2 x 2^2 share more than the bounds
    if name == "2^6":
        return boolean_algebra(6)
    if name == "MO31":
        return mo(31)
    if name == "MO2x2^2":
        return product(mo(2), boolean_algebra(2), name=name)
    return catalog(name)


def _relabelings(base):
    """``base`` under three seeded shuffles of its inner elements."""
    for seed in (1, 2, 3):
        inner = list(range(1, base.n - 1))
        random.Random(seed).shuffle(inner)
        yield relabel(base, [0, *inner, base.n - 1])


@pytest.mark.parametrize("name", BLOCK_ORACLE_LATTICES)
def test_blocks_are_the_maximal_bsub_nodes(name):
    # a block is a maximal Boolean subalgebra: blocks() joins the maximal
    # orthogonal atom sets, BSub(L) orders all the Boolean subalgebras
    base = _oracle_lattice(name)
    for L in (base, *_relabelings(base)):
        p = bsub(L)
        assert [b.members for b in L.blocks()] == [p.masks[x] for x in p.maximal_elements()]


@pytest.mark.parametrize("name", BLOCK_ORACLE_LATTICES)
def test_blocks_decide_what_the_commutation_rows_did(name):
    # a set of elements pairwise commutes exactly when it lies in a block,
    # so the blocks answer each question that was asked of the commutation
    # rows, which the pairwise test builds here on its own
    for L in _relabelings(_oracle_lattice(name)):
        commuting = legacy_commuting(L)
        blocks = [b.members for b in L.blocks()]
        assert blocks == [b.members for b in legacy_blocks(L)]
        assert L.is_boolean_algebra == all(row == L.universe for row in commuting)
        # parts of blocks, each also with one more element, and small sets
        rng = random.Random(name)
        subsets = []
        for block in blocks:
            inside = list(bits(block))
            for _ in range(20):
                part = mask_of(rng.sample(inside, rng.randint(1, len(inside))))
                subsets += [part, part | 1 << rng.randrange(L.n)]
        subsets += [mask_of(rng.sample(range(L.n), rng.randint(1, min(L.n, 5))))
                    for _ in range(200)]
        verdicts = set()
        for s in subsets:
            pairwise = all(s & ~commuting[e] == 0 for e in bits(s))
            assert any(s & ~block == 0 for block in blocks) == pairwise
            verdicts.add(pairwise)
        assert verdicts == {True, L.is_boolean_algebra}
        for p in range(1, L.n - 1):
            four = 1 | 1 << p | 1 << L.ortho[p] | 1 << L.n - 1
            assert (four in blocks) == (commuting[p] == four)


@pytest.mark.parametrize("name", BLOCK_ORACLE_LATTICES)
def test_maximal_orthogonal_atom_sets_generate_the_blocks(name):
    # BSub reads each block off a maximal clique of the orthogonality graph
    # on atoms: its atoms are pairwise orthogonal, they join to 1, and the
    # subalgebras they generate are the blocks the commutation graph gives
    base = _oracle_lattice(name)
    for L in _relabelings(base):
        cliques = _blocks(L)
        for clique in cliques:
            atoms = list(bits(clique))
            assert set(atoms) <= set(L.atoms())
            assert all(L.meet(a, L.ortho[b]) == a for a in atoms for b in atoms if a != b)
            joined = 0
            for a in atoms:
                joined = L.join(joined, a)
            assert joined == L.n - 1
        generated = sorted(L.closure_mask(clique) for clique in cliques)
        assert generated == [b.members for b in L.blocks()]
        assert generated == [b.members for b in legacy_blocks(L)]


def test_find_isomorphism_examples():
    B = boolean_algebra(3)
    f = find_isomorphism(B, B)
    assert f is not None and f.kind == "iso"
    assert find_isomorphism(mo(2), benzene()) is None
    assert find_isomorphism(example22(), catalog("MO2x2")) is not None


def test_isomorphism_existence_is_symmetric():
    pool = [catalog(n) for n in ("2^3", "MO2", "MO3", "example22", "MO2x2")]
    for L, M in itertools.product(pool, repeat=2):
        assert (find_isomorphism(L, M) is None) == (find_isomorphism(M, L) is None)


def test_find_isomorphism_under_relabeling():
    L = example22()
    perm = [0, 3, 1, 5, 2, 4, 8, 6, 10, 7, 9, 11]
    M = relabel(L, perm)
    f = find_isomorphism(L, M)
    assert f is not None
    for a in range(L.n):
        for b in range(L.n):
            assert L.leq(a, b) == M.leq(f(a), f(b))


def test_automorphism_counts():
    assert len(automorphisms(mo(2))) == 8
    assert len(automorphisms(boolean_algebra(3))) == 6
    assert len(automorphisms(example22())) == 8
    assert len(automorphisms(catalog("hsum(2^3,2^3)"))) == 72


def test_catalog_names_and_sizes():
    assert catalog("example22").n == 12
    assert len(catalog("example22").blocks()) == 2
    assert catalog("MO2").n == 6
    assert catalog("hsum(2^3,2^3)").n == 14
    assert catalog("B2^4").n == 16
    assert catalog("2^4").n == 16
    for name in CATALOG_OMLS:
        assert catalog(name).flavor == ORTHOMODULAR
    assert catalog("benzene").flavor == ORTHOLATTICE


def test_catalog_rejections():
    with pytest.raises(UnknownName):
        catalog("nonsense")
    with pytest.raises(UnknownName, match="^MO index must be at least 1$"):
        catalog("MO0")
    assert catalog("MO7").n == 16
    for name, text in (("2^9", "Boolean construction supports 1..6 atoms"),
                       ("MO32", "horizontal sum would have 66 elements"),
                       # refused before 10^30 summands are listed
                       ("MO" + "9" * 30, f"horizontal sum would have {2 * 10 ** 30} elements"),
                       ("hsum(2^5,2^5,2^5)", "horizontal sum would have 92 elements")):
        with pytest.raises(SizeCap) as exc:
            catalog(name)
        assert str(exc.value) == text


def test_catalog_refuses_a_huge_index_by_its_digit_count(capsys):
    # past 64 digits an index is refused unread, and its message does not
    # spell it: int() and an f-string both refuse a text past 4,300 digits
    for name, digits in (("MO" + "9" * 5000, 5000), ("2^" + "9" * 4301, 4301),
                         ("MO" + "9" * 4300, 4300), ("B2^" + "1" * 65, 65),
                         ("hsum(2^3," + "2^" + "9" * 4301 + ")", 4301),
                         ("MO" + "0" * 5000 + "9" * 65, 65)):
        with pytest.raises(SizeCap) as exc:
            catalog(name)
        assert str(exc.value) == f"an index of {digits} digits is past the 64-element cap"
    assert main(["catalog", "MO" + "9" * 5000]) == 1
    assert capsys.readouterr() == (
        "", "error: an index of 5000 digits is past the 64-element cap\n")
    # leading zeros are no digits of the index; up to 64 digits the
    # constructors decide, with their own texts
    assert catalog("MO" + "0" * 5000 + "3").up == mo(3).up
    with pytest.raises(UnknownName, match="^MO index must be at least 1$"):
        catalog("MO" + "0" * 5000)
    for name, text in (("MO" + "9" * 64, f"horizontal sum would have {2 * 10 ** 64} elements"),
                       ("2^" + "9" * 64, "Boolean construction supports 1..6 atoms"),
                       ("hsum(2^" + "0" * 70 + "7)", "Boolean construction supports 1..6 atoms")):
        with pytest.raises(SizeCap) as exc:
            catalog(name)
        assert str(exc.value) == text


def test_catalog_keeps_no_ranges_of_its_own():
    # what the constructors build within the 64-element cap, the catalog names
    for name, L in [("2^6", boolean_algebra(6)), ("B2^6", boolean_algebra(6)),
                    ("hsum(2^6)", horizontal_sum([boolean_algebra(6)]))] + \
            [(f"MO{k}", mo(k)) for k in range(5, 32)]:
        got = catalog(name)
        assert (got.up, got.ortho) == (L.up, L.ortho)


def test_horizontal_sum_structure():
    h = horizontal_sum([boolean_algebra(3), boolean_algebra(3)])
    assert h.n == 14
    assert h.flavor == ORTHOMODULAR
    assert [len(b) for b in h.blocks()] == [8, 8]
    # summand copies share only the bounds
    b1, b2 = h.blocks()
    assert b1.members & b2.members == mask_of((0, 13))


def test_product_structure():
    p = product(mo(2), boolean_algebra(1), name="MO2x2")
    assert p.n == 12 and p.flavor == ORTHOMODULAR
    assert sorted(len(b) for b in p.blocks()) == [8, 8]


# -- the catalog's row builders against their element-by-element oracles -----

BUILDER_SUMMANDS = (["benzene", "example22", "MO2x2"] + [f"2^{k}" for k in range(1, 6)]
                    + [f"MO{k}" for k in range(1, 9)])


def _built(build, *args):
    """What a constructor gives: the lattice's rows, complement, flavor and
    name, or the type and text of the error it raises."""
    try:
        L = build(*args)
    except OmlkitError as exc:
        return type(exc), str(exc)
    return L.up, L.ortho, L.flavor, L.name


def _builder_summand(name):
    return mo(int(name[2:])) if name.startswith("MO") and name != "MO2x2" else catalog(name)


@pytest.mark.parametrize("k", range(1, 7))
def test_boolean_algebra_rows_match_the_element_by_element_builder(k):
    assert _built(boolean_algebra, k) == _built(legacy_boolean_algebra, k)


@pytest.mark.parametrize("bad", [0, 7])
def test_boolean_algebra_refuses_the_same_sizes(bad):
    assert _built(boolean_algebra, bad) == _built(legacy_boolean_algebra, bad) == (
        SizeCap, "Boolean construction supports 1..6 atoms")


@pytest.mark.parametrize("left", BUILDER_SUMMANDS)
def test_product_rows_match_the_pair_by_pair_builder(left):
    L = _builder_summand(left)
    for right in BUILDER_SUMMANDS:
        M = _builder_summand(right)
        assert _built(product, L, M, "P") == _built(legacy_product, L, M, "P"), right


@pytest.mark.parametrize("first", BUILDER_SUMMANDS)
def test_horizontal_sum_rows_match_the_element_by_element_builder(first):
    L = _builder_summand(first)
    for second in BUILDER_SUMMANDS:
        parts = [L, _builder_summand(second)]
        assert _built(horizontal_sum, parts, "H") == _built(legacy_horizontal_sum, parts, "H")
    for parts in ([L], [L, L, L], [L, catalog("2^2"), catalog("example22")], []):
        assert _built(horizontal_sum, parts) == _built(legacy_horizontal_sum, parts)


def test_morphism_validation():
    B = boolean_algebra(2)
    identity_morphism(B)
    assert morphism(B, B, (0, 2, 1, 3)).kind == "iso"
    with pytest.raises(NotAMorphism):
        morphism(B, B, (0, 1, 1, 3))  # breaks the complement law
    with pytest.raises(NotAMorphism):
        morphism(B, B, (0, 1, 2, 2))  # loses the top
    two = boolean_algebra(1)
    f = morphism(B, two, (0, 0, 1, 1))
    assert f.kind == "hom"
    g = morphism(two, B, (0, 3))
    assert g.kind == "embedding"


def _bounds_fixing_bijections(L, count):
    inner = list(range(1, L.n - 1))
    if count is None:
        perms = itertools.permutations(inner)
    else:
        rng = random.Random(count)
        sampled = (rng.sample(inner, len(inner)) for _ in range(count))
        perms = itertools.chain((a.mapping[1:-1] for a in automorphisms(L)), sampled)
    return [(0, *p, L.n - 1) for p in perms]


@pytest.mark.parametrize("name,count", [("2^2", None), ("MO2", None), ("2^3", None),
                                        ("MO2x2", 2000), ("example22", 2000)])
def test_a_bijective_morphism_is_an_iso(name, count):
    # f(a) <= f(b) gives f(a ^ b) = f(a) ^ f(b) = f(a), so a ^ b = a: the
    # inverse of a bijective homomorphism is one too, and needs no check
    L = catalog(name)
    accepted = set()
    for f in _bounds_fixing_bijections(L, count):
        inverse = [0] * L.n
        for a, v in enumerate(f):
            inverse[v] = a
        kinds = []
        for mapping in (f, inverse):
            try:
                kinds.append(morphism(L, L, mapping).kind)
            except NotAMorphism:
                kinds.append(None)
        assert kinds[0] == kinds[1] in (None, "iso")
        if kinds[0]:
            accepted.add(f)
    assert accepted == {a.mapping for a in automorphisms(L)}


def _verdict(check, source, target, mapping):
    """(kind, mapping) of the morphism ``check`` returns, or the text of
    the NotAMorphism it raises."""
    try:
        f = check(source, target, mapping)
    except NotAMorphism as exc:
        return str(exc)
    return f.kind, f.mapping


def _complement_respecting(rng, L, M):
    """A random map L -> M that keeps the bounds and the complement."""
    mapping = [-1] * L.n
    mapping[0], mapping[-1] = 0, M.n - 1
    for a in range(1, L.n - 1):
        if mapping[a] < 0:
            v = rng.randrange(M.n)
            mapping[a], mapping[L.ortho[a]] = v, M.ortho[v]
    return mapping


def _swapped(rng, mapping):
    """``mapping`` with the values at two random positions swapped."""
    out = list(mapping)
    i, j = rng.sample(range(len(out)), 2)
    out[i], out[j] = out[j], out[i]
    return out


def _perturbed(rng, mapping, m):
    """``mapping`` with one random entry set to a random element of 0..m-1."""
    out = list(mapping)
    out[rng.randrange(len(out))] = rng.randrange(m)
    return out


MORPHISM_LATTICES = ["2^1", "2^2", "2^3", "2^5", "MO1", "MO2", "MO3", "MO8", "MO2x2",
                     "example22", "benzene", "hsum(2^3,2^3)", "hsum(2^5,2^5)"]


@pytest.mark.parametrize("name", MORPHISM_LATTICES)
def test_morphism_matches_the_pair_scan_on_relabelings(name):
    # isos onto a relabeled copy, alone, with two values swapped and with
    # one value moved, and maps that keep the complement: the same kind and
    # mapping, or the same first fault
    rng = random.Random(f"morphism {name}")
    L = catalog(name)
    verdicts = set()
    for _ in range(12):
        perm = [0] + rng.sample(range(1, L.n - 1), L.n - 2) + [L.n - 1]
        M = relabel(L, perm)
        maps = [perm, _swapped(rng, perm), _swapped(rng, perm), _perturbed(rng, perm, L.n),
                _complement_respecting(rng, L, M), _complement_respecting(rng, L, L)]
        for target, mapping in zip([M] * 5 + [L], maps):
            got = _verdict(morphism, L, target, mapping)
            assert got == _verdict(legacy_morphism, L, target, mapping)
            verdicts.add(got if isinstance(got, str) else got[0])
    # the maps reach acceptance and each kind of fault; on four elements
    # every map that keeps the bounds and the complement is a homomorphism
    faults = {v.split("(")[0].split(" of ")[0] for v in verdicts - {"iso", "hom", "embedding"}}
    assert "iso" in verdicts
    assert L.n <= 4 or faults >= {"mapping does not preserve the complement",
                                  "mapping does not preserve meet",
                                  "mapping does not preserve join"}


HOM_LATTICES = ["2^1", "2^2", "2^3", "2^4", "MO1", "MO2", "MO3", "MO4", "MO2x2",
                "example22", "benzene", "hsum(2^3,2^3)"]
HOM_PAIRS = [(a, b) for a in HOM_LATTICES for b in HOM_LATTICES
             if catalog(a).n * catalog(b).n <= 256]


@pytest.mark.parametrize("pair", HOM_PAIRS, ids=["->".join(p) for p in HOM_PAIRS])
def test_homs_and_perturbed_homs_match_the_pair_scan(pair):
    # the homs themselves are checked against the old search in
    # test_shared_search; here they are the maps morphism must accept
    L, M = (catalog(name) for name in pair)
    homs = enumerate_homs(L, M)
    rng = random.Random("->".join(pair))
    maps = [f.mapping for f in rng.sample(homs, min(len(homs), 20))]
    maps += [_swapped(rng, f) for f in maps] + [_perturbed(rng, f, M.n) for f in maps]
    maps += [_complement_respecting(rng, L, M) for _ in range(20)]
    for mapping in maps:
        assert _verdict(morphism, L, M, mapping) == _verdict(legacy_morphism, L, M, mapping)


def test_sublattice_of_a_block():
    L = example22()
    blk = L.blocks()[0]
    B, backmap = sublattice(L, blk)
    assert B.n == 8
    assert find_isomorphism(B, boolean_algebra(3)) is not None
    for i, g in enumerate(backmap):
        for j, h in enumerate(backmap):
            assert B.leq(i, j) == L.leq(g, h)


def test_size_cap():
    with pytest.raises(SizeCap):
        horizontal_sum([boolean_algebra(5)] * 3)


# -- the order core: one pair reader, one permutation check ------------------

CHAIN_PAIRS = [(0, 0), (0, 1), (1, 1)]


@pytest.mark.parametrize("pair, text", [
    ((0.5, 1), "bad relation pair (0.5, 1)"),
    ((True, 1), "bad relation pair (True, 1)"),
    ((0, "1"), "bad relation pair (0, '1')"),
    ((0, 0), "duplicate pair (0, 0)"),
])
def test_lattices_and_posets_read_pairs_alike(pair, text):
    pairs = CHAIN_PAIRS + [pair]
    with pytest.raises(MalformedInput) as lattice:
        validate(2, pairs, [1, 0])
    with pytest.raises(MalformedInput) as poset:
        AbstractPoset.from_pairs(2, pairs)
    assert str(lattice.value) == str(poset.value) == text


@pytest.mark.parametrize("perm", [
    [0, "a", 2, 3, 4, 5], [0, 2.0, 1, 3, 4, 5], [0, True, 2, 3, 4, 5]])
def test_relabel_rejects_a_list_of_non_indices(perm):
    with pytest.raises(MalformedInput, match="^relabeling is not a permutation$"):
        relabel(catalog("MO2"), perm)


def test_poset_relabel_and_node_maps_reject_non_indices():
    chain = AbstractPoset([0b11, 0b10])
    with pytest.raises(MalformedInput, match="^relabeling is not a permutation$"):
        chain.relabel([1.0, 0])
    with pytest.raises(NotAnIso, match="^node map is not a bijection between the posets$"):
        check_order_iso([0, "a"], chain, chain)
    # maps that are no sequence raised a bare TypeError
    with pytest.raises(MalformedInput, match="^relabeling is not a permutation$"):
        chain.relabel(None)
    with pytest.raises(NotAnIso, match="^node map is not a bijection between the posets$"):
        check_order_iso(None, chain, chain)
    assert chain.relabel([0, 1]).up == chain.up
    assert check_order_iso([0, 1], chain, chain) == (0, 1)


@pytest.mark.parametrize("up, ortho", [
    ([0b11, 0b10], [1.0, 0]), ([0b11, 0b10], None), (catalog("2^5").up, None)])
def test_an_ortho_of_non_indices_is_no_permutation(up, ortho):
    # an ortho that is no sequence raised a bare TypeError, on the row path
    # and on the frame path (2^5) alike
    with pytest.raises(BadOrthocomplement, match="^ortho is not a permutation of the elements$"):
        FiniteOrtholattice(up, ortho)


@pytest.mark.parametrize("row", [3.0, "3", None, True])
def test_rows_that_are_not_integers_are_malformed_input(row):
    # a float or str row raised a bare TypeError, and a bool row was kept
    text = f"row 1 is not an integer bit set, got {row!r}"
    with pytest.raises(MalformedInput) as lattice:
        FiniteOrtholattice([3, row], [1, 0])
    with pytest.raises(MalformedInput) as poset:
        AbstractPoset([1, row])
    assert str(lattice.value) == str(poset.value) == text


def test_lattice_rows_that_are_no_sequence_are_malformed_input():
    # they raised a bare TypeError, as poset rows did
    with pytest.raises(MalformedInput, match="^rows are not a sequence of integer bit sets$"):
        FiniteOrtholattice(None, [1, 0])


# -- row validation against the pair-by-pair constructor ----------------------

VALIDATED = ["2^1", "2^2", "2^3", "2^4", "2^5", "MO1", "MO2", "MO3", "MO4", "MO2x2",
             "example22", "benzene", "hsum(2^3,2^3)", "hsum(2^2,2^3,2^4)"]
# ortholattices that are not orthomodular
BENZENE_BUILT = {
    "benzene x 2^1": lambda: product(benzene(), boolean_algebra(1)),
    "benzene x 2^2": lambda: product(benzene(), boolean_algebra(2)),
    "benzene x benzene": lambda: product(benzene(), benzene()),
    "hsum(benzene,2^2,benzene)": lambda: horizontal_sum(
        [benzene(), boolean_algebra(2), benzene()]),
}


# the 64-element lattices, more products and sums with benzene, and
# lattices built as the orthoclosed sets of a frame: the loops of 3 and 4
# blocks are ortholattices that are not orthomodular, the loop of 5 is an OML
MORE_BUILT = {
    "MO3 x 2^3": lambda: product(mo(3), boolean_algebra(3)),
    "benzene x MO2": lambda: product(benzene(), mo(2)),
    "MO2 x benzene": lambda: product(mo(2), benzene()),
    "hsum(benzene,benzene)": lambda: horizontal_sum([benzene(), benzene()]),
    "hsum(benzene,example22)": lambda: horizontal_sum([benzene(), example22()]),
    "3-loop": lambda: _loop(3),
    "4-loop": lambda: _loop(4),
    "5-loop": lambda: _loop(5),
}
NOT_ORTHOMODULAR = {"3-loop", "4-loop"}


def _loop(k, atoms=3):
    """The lattice of k blocks of ``atoms`` atoms in a cycle, each sharing
    one atom with the next, built as the orthoclosed sets of its atoms'
    orthogonality frame: block i holds atoms (atoms-1)i to (atoms-1)(i+1)
    (mod (atoms-1)k).  Loops of 3 and 4 blocks are ortholattices that are
    not orthomodular."""
    size = (atoms - 1) * k
    perp = [0] * size
    for i in range(k):
        block = [((atoms - 1) * i + t) % size for t in range(atoms)]
        for a in block:
            perp[a] |= mask_of(block) ^ 1 << a
    return orthoclosed_lattice(OrthoFrame(size, tuple(perp), tuple(map(str, range(size)))),
                               name=f"{k}-loop")


def _validated(name):
    for built in (BENZENE_BUILT, MORE_BUILT):
        if name in built:
            return built[name]()
    return catalog(name)


def _inner_relabeled(L, rng):
    return relabel(L, [0] + rng.sample(range(1, L.n - 1), L.n - 2) + [L.n - 1])


def _outcome(build, up, ortho):
    """The tables and flavor a constructor builds, or its exception type and text."""
    try:
        L = build(up, ortho)
    except OmlkitError as exc:
        return type(exc), str(exc)
    return L.up, L.down, _bound_tables(L), L.flavor


@pytest.mark.parametrize("name", VALIDATED + list(BENZENE_BUILT)
                         + ["2^6", "MO31", "hsum(2^5,2^5)"] + list(MORE_BUILT))
def test_lattices_validate_as_the_pair_by_pair_constructor_did(name):
    # the flavor read off the atoms is the one the pair-by-pair constructor
    # read off its meet and join tables
    L = _validated(name)
    rng = random.Random(name)
    for M in [L] + [_inner_relabeled(L, rng) for _ in range(3)]:
        built = _outcome(FiniteOrtholattice, M.up, M.ortho)
        assert built == _outcome(legacy_finite_ortholattice, M.up, M.ortho)
        assert built[-1] == (ORTHOLATTICE if "benzene" in name or name in NOT_ORTHOMODULAR
                             else ORTHOMODULAR)


def _faulty_inputs(rng, count):
    """(up, ortho) pairs, most of them breaking some law: random orders or
    their duals with a reversing or a random involution, and relabeled
    catalog lattices with one row bit flipped, a bit out of range, two ortho
    entries swapped, two complement pairs re-paired, or a random ortho."""
    bases = [_validated(name) for name in VALIDATED + list(BENZENE_BUILT) if name != "2^1"]
    for k in range(count):
        kind = k % 7
        if kind < 2:
            n = rng.randrange(2, 10)
            up = _random_order(rng, n, bounded=rng.random() < 0.8, levels=rng.randrange(2, 5))
            if rng.random() < 0.5:
                # the dual, renumbered i -> n-1-i: missing joins become missing meets
                up = [mask_of(n - 1 - j for j in bits(row)) for row in _transpose(up)[::-1]]
            ortho = list(range(n))[::-1]
            if kind == 1:
                inner = rng.sample(range(1, n - 1), (n - 2) // 2 * 2)
                for a, b in zip(inner[::2], inner[1::2]):
                    ortho[a], ortho[b] = b, a
            yield up, ortho
            continue
        L = _inner_relabeled(rng.choice(bases), rng)
        up, ortho, n = list(L.up), list(L.ortho), L.n
        if kind == 2:
            up[rng.randrange(n)] ^= 1 << rng.randrange(n)
        elif kind == 3:
            up[rng.randrange(n)] |= 1 << rng.randrange(n, n + 3)
        elif kind == 4:
            i, j = rng.sample(range(n), 2)
            ortho[i], ortho[j] = ortho[j], ortho[i]
        elif kind == 5:
            a, b = rng.sample(range(1, n - 1), 2)
            if ortho[a] != b:
                a2, b2 = ortho[a], ortho[b]
                ortho[a], ortho[b2], ortho[b], ortho[a2] = b2, a, a2, b
        else:
            # a list with repeats or a value out of range, or a permutation
            if rng.random() < 0.3:
                ortho = rng.choices(range(n + 1), k=n)
            else:
                ortho = rng.sample(range(n), n)
        yield up, ortho


FAULTS = {
    "row # mentions elements outside #..#", "relation is not reflexive at #",
    "antisymmetry fails on #, #", "transitivity fails above # <= #",
    "element # is not the least element", "element # is not the greatest element",
    "elements # and # have no meet", "elements # and # have no join",
    "ortho is not a permutation of the elements", "ortho is not an involution at #",
    "ortho does not reverse # <= #", "element # and its image are not complements",
}


def test_faulty_inputs_fail_as_the_pair_by_pair_constructor_failed():
    seen = set()
    for up, ortho in _faulty_inputs(random.Random(21), 1000):
        expected = _outcome(legacy_finite_ortholattice, up, ortho)
        assert _outcome(FiniteOrtholattice, up, ortho) == expected
        seen.add(re.sub(r"\d+", "#", expected[1]) if len(expected) == 2 else expected[-1])
    # every fault is met first somewhere, and both flavors pass
    assert seen == FAULTS | {ORTHOLATTICE, ORTHOMODULAR}


def _relations_mixing_faults(rng, count):
    """(up, ortho) on 2-9 points, reflexive and antisymmetric, many of them
    not transitive: random orders or their duals with one pair i < j added
    or dropped, and random relations upward in number, each with its bounds
    as drawn, made whole, or with one broken, and half of them with their
    inner points renumbered."""
    for k in range(count):
        n = rng.randrange(2, 10)
        if k % 2:
            up = _random_order(rng, n, bounded=True, levels=rng.randrange(2, 5))
            if rng.random() < 0.5:
                # the dual, renumbered i -> n-1-i: missing joins become missing meets
                up = [mask_of(n - 1 - j for j in bits(row)) for row in _transpose(up)[::-1]]
            i, j = sorted(rng.sample(range(n), 2))
            up[i] ^= 1 << j
        else:
            density = rng.random()
            up = [1 << i | sum(1 << j for j in range(i + 1, n) if rng.random() < density)
                  for i in range(n)]
        bounds = rng.randrange(3)
        if bounds == 1:
            up = [row | 1 << (n - 1) for row in up]
            up[0] = (1 << n) - 1
        elif bounds == 2:
            i = rng.randrange(n - 1)
            up[i if rng.random() < 0.5 else 0] &= ~(1 << (n - 1) if i else 1 << rng.randrange(1, n))
        if n > 3 and rng.random() < 0.5:
            # inner points renumbered, so that a missing meet can come first
            up = legacy_permuted(up, [0] + rng.sample(range(1, n - 1), n - 2) + [n - 1])
        yield up, list(range(n))[::-1]


def test_relations_mixing_transitivity_and_bound_faults_fail_as_before():
    # transitivity is not tested on its own: it follows from the meets, and
    # a relation that is not transitive must still fail on transitivity
    # first, whether its bounds or its meets fail after it
    paths = set()
    for up, ortho in _relations_mixing_faults(random.Random(23), 3000):
        expected = _outcome(legacy_finite_ortholattice, up, ortho)
        assert _outcome(FiniteOrtholattice, up, ortho) == expected
        n, universe = len(up), (1 << len(up)) - 1
        transitive = all(up[j] & ~row == 0 for row in up for j in bits(row))
        bounded = up[0] == universe and all(row >> (n - 1) & 1 for row in up)
        fault = re.sub(r"\d+", "#", expected[1]) if len(expected) == 2 else "lattice"
        paths.add((fault, transitive, bounded))
    # a transitivity fault comes first past failing bounds and past whole
    # bounds (then a meet is missing); on orders the bounds and meets fail
    assert {("transitivity fails above # <= #", False, False),
            ("transitivity fails above # <= #", False, True),
            ("element # is not the least element", True, False),
            ("element # is not the greatest element", True, False),
            ("elements # and # have no meet", True, True),
            ("elements # and # have no join", True, True),
            ("lattice", True, True)} <= paths
    assert not {path for path in paths if not path[1]} - {
        ("transitivity fails above # <= #", False, False),
        ("transitivity fails above # <= #", False, True)}


@pytest.mark.parametrize("name", ["benzene", "example22", "MO2x2", "2^4", "3-loop", "4-loop"])
def test_the_zero_meet_form_is_the_orthomodular_law_on_subalgebras(name):
    L = _validated(name)
    verdicts = set()
    for node in sub(L).nodes:
        law = all(L.join(a, L.meet(L.ortho[a], b)) == b
                  for a in node.elements for b in node.elements if L.leq(a, b))
        assert L._orthomodular_on(node.members) == law
        verdicts.add(law)
    assert verdicts == ({True, False} if name == "benzene" or name in NOT_ORTHOMODULAR else {True})



# -- validation through the atom frame -----------------------------------------

FRAME_CATALOG = ([f"2^{k}" for k in range(1, 7)] + [f"MO{k}" for k in range(1, 32)]
                 + ["MO2x2", "example22", "benzene", "hsum(2^3,2^3)", "hsum(2^4,2^4)",
                    "hsum(2^5,2^5)", "hsum(2^3,2^3,2^3)", "hsum(2^2,2^3,2^4)"])
FRAME_BUILT = {
    "MO2 x 2^2": lambda: product(mo(2), boolean_algebra(2)),
    "MO3 x 2^3": lambda: product(mo(3), boolean_algebra(3)),
    "example22 x 2^2": lambda: product(example22(), boolean_algebra(2)),
    "2^2 x 2^3": lambda: product(boolean_algebra(2), boolean_algebra(3)),
    "benzene x 2^1": lambda: product(benzene(), boolean_algebra(1)),
    "benzene x 2^3": lambda: product(benzene(), boolean_algebra(3)),
    "hsum(benzene,2^3)": lambda: horizontal_sum([benzene(), boolean_algebra(3)]),
    "5-loop": lambda: _loop(5),
    "6-loop": lambda: _loop(6),
    "7-loop": lambda: _loop(7),
    "5-loop of 4-atom blocks": lambda: _loop(5, atoms=4),
}
# 4k <= n and atomistic: the lattices the constructor certifies by frame
FRAME_PATH = {"2^4", "2^5", "2^6", "hsum(2^5,2^5)", "MO2 x 2^2", "MO3 x 2^3", "example22 x 2^2",
              "2^2 x 2^3", "5-loop of 4-atom blocks"}


def _kept(up, ortho):
    """The rows, complement, flavor, atoms and reach rows the constructor
    keeps, or its exception type and text."""
    try:
        L = FiniteOrtholattice(up, ortho)
    except OmlkitError as exc:
        return type(exc), str(exc)
    return L.up, L.down, L.ortho, L.flavor, vars(L)["_atoms"], vars(L)["_reach"]


def _walked_reach(L):
    """``_reach`` as the row path builds it, walking the atoms' up rows."""
    return FiniteOrtholattice._reach.func(L)


def _built_and_path(monkeypatch, up, ortho):
    """``_kept``, and "frame" when the certificate gave the rows, else
    "rows"; then ``_kept`` with the certificate refusing, the row tests
    alone."""
    answers = []
    certificate = lattice_core._frame_down

    def recorded(*args):
        answers.append(certificate(*args))
        return answers[-1]

    with monkeypatch.context() as patch:
        patch.setattr(lattice_core, "_frame_down", recorded)
        built = _kept(up, ortho)
        patch.setattr(lattice_core, "_frame_down", lambda *args: None)
        rows_only = _kept(up, ortho)
    return built, "frame" if answers and answers[0] is not None else "rows", rows_only


def _atomistic(L):
    """Whether every element is the join of the atoms below it."""
    return all(functools.reduce(L.join, (p for p in L.atoms() if L.leq(p, x)), 0) == x
               for x in range(L.n))


def _mutated(rng, L):
    """L's rows with one or two bits flipped, then its complement with two
    entries swapped, and with one entry overwritten by an index in 0..n."""
    n = L.n
    for flips in (1, 1, 2, 2):
        up = list(L.up)
        for _ in range(flips):
            up[rng.randrange(n)] ^= 1 << rng.randrange(n)
        yield tuple(up), L.ortho
    ortho = list(L.ortho)
    i, j = rng.sample(range(n), 2)
    ortho[i], ortho[j] = ortho[j], ortho[i]
    yield L.up, tuple(ortho)
    ortho = list(L.ortho)
    ortho[rng.randrange(n)] = rng.randrange(n + 1)
    yield L.up, tuple(ortho)


@pytest.mark.parametrize("name", FRAME_CATALOG + list(FRAME_BUILT))
def test_the_frame_certificate_accepts_exactly_the_atomistic_lattices(name, monkeypatch):
    base = FRAME_BUILT[name]() if name in FRAME_BUILT else catalog(name)
    rng = random.Random(name)
    refused = 0
    for L in [base] + [_inner_relabeled(base, rng) for _ in range(3)]:
        k = L._atoms.bit_count()
        built, path, rows_only = _built_and_path(monkeypatch, L.up, L.ortho)
        assert built == rows_only == (L.up, L.down, L.ortho, L.flavor, L._atoms, _walked_reach(L))
        assert path == ("frame" if name in FRAME_PATH else "rows")
        assert (name in FRAME_PATH) == (4 * k <= L.n and _atomistic(L))
        # the certificate itself holds on every atomistic lattice, whatever
        # k, and returns the down rows and the reach rows the walk builds
        certified = lattice_core._frame_down(L.up, L.ortho, L._atoms)
        assert certified == ((L.down, _walked_reach(L)) if _atomistic(L) else None)
        for up, ortho in _mutated(rng, L):
            built, path, rows_only = _built_and_path(monkeypatch, up, ortho)
            assert built == rows_only
            certified = lattice_core._frame_down(up, ortho, _cover_row(up, 0))
            if len(built) == 2:
                refused += 1
                assert certified is None and path == "rows"
            else:
                M = FiniteOrtholattice(up, ortho)
                assert certified == ((M.down, _walked_reach(M)) if _atomistic(M) else None)
    assert refused >= 12


def test_a_non_atomistic_lattice_with_few_atoms_ends_on_the_row_path(monkeypatch):
    # benzene x 2^3: 48 elements and 5 atoms, so 4k <= n, but not atomistic
    L = FRAME_BUILT["benzene x 2^3"]()
    built, path, _ = _built_and_path(monkeypatch, L.up, L.ortho)
    assert (L.n, L._atoms.bit_count(), path, built[3]) == (48, 5, "rows", ORTHOLATTICE)
