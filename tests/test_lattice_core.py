"""Core lattice validation, operations, and the brute-force iso oracle."""

import itertools
import random
import subprocess
import sys

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
    ORTHOMODULAR,
    SizeCap,
    UnknownName,
    automorphisms,
    benzene,
    boolean_algebra,
    bsub,
    catalog,
    classify_recovery,
    example22,
    find_isomorphism,
    horizontal_sum,
    identity_morphism,
    lift_bsub_iso,
    lift_sub_iso,
    mo,
    morphism,
    product,
    relabel,
    sub,
    sublattice,
)
from omlkit import fileio
from omlkit.cli import main
from omlkit.lattice_core import (
    FiniteOrtholattice,
    _covers,
    _permuted,
    _transpose,
    bits,
    mask_of,
    validate,
)
from omlkit.subalgebra_posets import AbstractPoset, check_order_iso

from legacy_oracles import (
    legacy_blocks,
    legacy_bound_tables,
    legacy_covers,
    legacy_is_boolean,
    legacy_permuted,
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


TABLE_LATTICES = ["2^1", "2^2", "2^3", "2^4", "2^5", "MO1", "MO2", "MO3", "MO4", "MO2x2",
                  "example22", "benzene", "hsum(2^3,2^3)", "hsum(2^2,2^3,2^4)"]


@pytest.mark.parametrize("name", TABLE_LATTICES)
def test_bound_tables_match_the_cone_scan(name):
    L = catalog(name)
    for M in (L, relabel(L, [0] + random.Random(name).sample(range(1, L.n - 1), L.n - 2)
                         + [L.n - 1])):
        meet, join = legacy_bound_tables(M.up, M.down)
        assert M._meet == tuple(map(tuple, meet))
        assert M._join == tuple(map(tuple, join))


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
        assert L._meet == tuple(map(tuple, meet)) and L._join == tuple(map(tuple, join))
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
        assert _permuted(up, perm) == legacy_permuted(up, perm)


# a negative mask once closed forever, growing until memory ran out, so
# the calls run in a child interpreter with a deadline and a capped heap
OUT_OF_RANGE_MASKS = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
import omlkit
from omlkit import sachs_boolean
L, B = omlkit.mo(2), omlkit.boolean_algebra(2)
for call in (lambda: L.subalgebra(-1), lambda: omlkit.sublattice(L, -1),
             lambda: sachs_boolean.dual_decomposition(B, -1),
             lambda: L.subalgebra(1 << 6), lambda: L.closure_mask(-1 << 7 | 5)):
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
        for top in (5, 5, 3, 5, 5)]


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


@pytest.mark.parametrize("call, text", [
    (lambda L: L.generated_subalgebra([0.5]), "element 0.5 out of range"),
    (lambda L: L.generated_subalgebra(["a"]), "element 'a' out of range"),
    (lambda L: L.generated_subalgebra([True]), "element True out of range"),
    (lambda L: L.subalgebra([0, 2.0, 5]), "element set mentions elements outside 0..5"),
    (lambda L: L.subalgebra(2.0), "element set must be an integer bit set, got 2.0"),
    (lambda L: L.subalgebra(True), "element set must be an integer bit set, got True"),
    (lambda L: L.closure_mask(0.5), "element set must be an integer bit set, got 0.5"),
    (lambda L: sub(L).interval_below(1.5), "node 1.5 out of range"),
    (lambda L: sub(L).interval_below(-1), "node -1 out of range"),
    (lambda L: sub(L).interval_below(4), "node 4 out of range"),
], ids=["generated-float", "generated-str", "generated-bool", "subalgebra-float",
        "subalgebra-float-mask", "subalgebra-bool-mask", "closure-float",
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


@pytest.mark.parametrize("name", CATALOG_OMLS + ["benzene", "benzene x 2^2"])
def test_is_boolean_matches_the_distributivity_check(name):
    # pairwise commutation alone decides, as the triple loop it dropped
    # agrees on every subalgebra, orthomodular or not, relabeled or not
    if name == "benzene x 2^2":
        L = product(benzene(), boolean_algebra(2), name=name)
    else:
        L = catalog(name)
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


@pytest.mark.parametrize("name", BLOCK_ORACLE_LATTICES)
def test_blocks_are_the_maximal_bsub_nodes(name):
    # blocks() reads BSub(L)'s maximal nodes; the clique search it replaced
    # finds maximal sets of commuting elements on its own
    base = _oracle_lattice(name)
    for seed in (None, 1, 2, 3):
        L = base
        if seed is not None:
            inner = list(range(1, base.n - 1))
            random.Random(seed).shuffle(inner)
            L = relabel(base, [0, *inner, base.n - 1])
        assert [b.members for b in L.blocks()] == [b.members for b in legacy_blocks(L)]


class _CubicCheckCalled(Exception):
    pass


def _boolean_answers(name, tmp_path, capsys):
    L = catalog(name)
    p, s = bsub(L), sub(L)
    path = tmp_path / "L.json"
    path.write_text(fileio.dump_lattice(L))
    capsys.readouterr()
    code = main(["check-sachs", str(path)])
    printed = capsys.readouterr()
    return (
        [b.members for b in L.blocks()],
        L.is_boolean_algebra,
        [node.members for node in p.nodes],
        [f.mapping for f in lift_bsub_iso(L, L, tuple(range(p.size)), p, p)],
        [f.mapping for f in lift_sub_iso(L, L, tuple(range(s.size)), s, s)],
        classify_recovery(identity_morphism(L)).lines(),
        (code, printed.out, printed.err),
    )


def test_oml_paths_never_run_the_cubic_boolean_check(monkeypatch, tmp_path, capsys):
    # by Foulis-Holland, pairwise commutation decides Booleanness on an OML
    expected = {name: _boolean_answers(name, tmp_path, capsys) for name in CATALOG_OMLS}

    def refuse(self, s):
        raise _CubicCheckCalled(f"is_boolean called on {self!r}")

    monkeypatch.setattr(FiniteOrtholattice, "is_boolean", refuse)
    for name in CATALOG_OMLS:
        assert _boolean_answers(name, tmp_path, capsys) == expected[name]
    # BSub of a lattice that is not orthomodular still tests each closure
    with pytest.raises(_CubicCheckCalled):
        bsub(benzene())


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
    with pytest.raises(UnknownName):
        catalog("2^9")
    with pytest.raises(UnknownName):
        catalog("MO7")
    with pytest.raises(SizeCap):
        catalog("hsum(2^5,2^5,2^5)")


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
    assert chain.relabel([0, 1]).up == chain.up
    assert check_order_iso([0, 1], chain, chain) == (0, 1)


def test_an_ortho_of_non_indices_is_no_permutation():
    with pytest.raises(BadOrthocomplement, match="^ortho is not a permutation of the elements$"):
        FiniteOrtholattice([0b11, 0b10], [1.0, 0])
