"""Preimage maps, homomorphism enumeration, and the recovery trichotomy."""

import itertools
import random

import pytest

from omlkit import (
    AbstractPoset,
    FiniteOrtholattice,
    FlavorError,
    MalformedInput,
    OmlkitError,
    RecoveryKind,
    RecoveryReport,
    SizeCap,
    automorphisms,
    boolean_algebra,
    bsub,
    catalog,
    classify_recovery,
    compose,
    enumerate_homs,
    identity_morphism,
    image_subalgebra,
    mo,
    morphism,
    poset_isomorphic,
    preimage_functor,
    relabel,
    sub,
    unrealized_meet_preserving_map,
)

from legacy_oracles import (
    legacy_classify_recovery,
    legacy_pinned_classify_recovery,
    legacy_preimage_functor,
)


def boolean_hom_oracle(src_atoms, tgt_atoms):
    """Boolean homs 2^A -> 2^C are exactly preimages of functions C -> A."""
    out = set()
    for func in itertools.product(range(len(src_atoms)), repeat=len(tgt_atoms)):
        mapping = []
        for e in range(1 << len(src_atoms)):
            mapping.append(sum(1 << c for c, a in enumerate(func) if e >> a & 1))
        out.add(tuple(mapping))
    return out


def test_enumerate_homs_counts():
    b2 = boolean_algebra(2)
    b3 = boolean_algebra(3)
    two = boolean_algebra(1)
    assert len(enumerate_homs(b2, b2)) == 4
    assert len(enumerate_homs(b3, two)) == 3
    assert len(enumerate_homs(mo(2), two)) == 0
    assert len(enumerate_homs(b3, b3)) == 27


def test_enumerate_homs_matches_boolean_oracle():
    b3 = boolean_algebra(3)
    got = {f.mapping for f in enumerate_homs(b3, b3)}
    assert got == boolean_hom_oracle(range(3), range(3))
    b2 = boolean_algebra(2)
    got = {f.mapping for f in enumerate_homs(b3, b2)}
    assert got == boolean_hom_oracle(range(3), range(2))


def test_enumerate_homs_is_sorted_and_capped():
    homs = enumerate_homs(boolean_algebra(2), boolean_algebra(2))
    assert [f.mapping for f in homs] == sorted(f.mapping for f in homs)
    with pytest.raises(SizeCap):
        enumerate_homs(boolean_algebra(5), boolean_algebra(5))


def test_preimage_functor_examples():
    b3 = boolean_algebra(3)
    s3 = sub(b3)
    pm = preimage_functor(identity_morphism(b3), s3, s3)
    assert pm.mapping == tuple(range(s3.size))
    assert pm.preserves_meets()

    two = boolean_algebra(1)
    onto = enumerate_homs(b3, two)[0]
    s_two = sub(two)
    pm = preimage_functor(onto, s_two, s3)
    assert pm.mapping == (s3.top(),)

    b2 = boolean_algebra(2)
    s2 = sub(b2)
    alpha = morphism(b2, b2, (0, 2, 1, 3))
    assert preimage_functor(alpha, s2, s2).mapping == \
        preimage_functor(identity_morphism(b2), s2, s2).mapping


def test_preimage_maps_preserve_meets_for_every_hom():
    b3 = boolean_algebra(3)
    s3 = sub(b3)
    m2 = mo(2)
    sm = sub(m2)
    for f in enumerate_homs(b3, b3):
        assert preimage_functor(f, s3, s3).preserves_meets()
    for f in enumerate_homs(m2, m2):
        assert preimage_functor(f, sm, sm).preserves_meets()


def test_contravariant_functoriality():
    b2 = boolean_algebra(2)
    s2 = sub(b2)
    homs = enumerate_homs(b2, b2)
    pre = {f.mapping: preimage_functor(f, s2, s2).mapping for f in homs}
    for f in homs:
        for g in homs:
            gf = compose(g, f)
            assert pre[gf.mapping] == tuple(pre[f.mapping][v] for v in pre[g.mapping])


def test_image_is_least_node_with_full_preimage():
    b3 = boolean_algebra(3)
    s3 = sub(b3)
    for f in enumerate_homs(b3, b3):
        pm = preimage_functor(f, s3, s3)
        full = [x for x in range(s3.size) if pm(x) == s3.top()]
        least = min(full, key=lambda x: s3.nodes[x].members.bit_count())
        assert all(s3.leq(least, x) for x in full)
        assert s3.nodes[least].members == image_subalgebra(f).members


# the source/target pairs the tests above run enumerate_homs on, plus 2^3 -> 2^4
HOM_PAIRS = [("2^2", "2^2"), ("2^3", "2^1"), ("MO2", "2^1"), ("2^3", "2^3"), ("2^3", "2^2"),
             ("MO2", "MO2"), ("example22", "example22"), ("2^3", "2^4")]


@pytest.mark.parametrize("pair", HOM_PAIRS, ids="->".join)
def test_fibre_preimages_match_the_element_scan(pair):
    L, M = catalog(pair[0]), catalog(pair[1])
    sub_l, sub_m = sub(L), sub(M)
    for f in enumerate_homs(L, M):
        assert preimage_functor(f, sub_m, sub_l).mapping == \
            legacy_preimage_functor(f, sub_m, sub_l).mapping
        assert preimage_functor(f).mapping == legacy_preimage_functor(f).mapping
        assert classify_recovery(f) == legacy_classify_recovery(f)


def _boolean_embedding(m, n, rng):
    """S -> g^-1(S) for a random surjection g from n atoms onto m."""
    g = list(range(m)) + [rng.randrange(m) for _ in range(n - m)]
    rng.shuffle(g)
    mapping = [sum(1 << c for c in range(n) if s >> g[c] & 1) for s in range(1 << m)]
    return morphism(boolean_algebra(m), boolean_algebra(n), mapping)


@pytest.mark.parametrize("seed", range(4))
def test_recovery_reports_match_on_embeddings_into_2_5(seed):
    f = _boolean_embedding(3, 5, random.Random(seed))
    assert f.kind == "embedding"
    report = classify_recovery(f)
    assert report == legacy_classify_recovery(f)
    assert report.kind == RecoveryKind.DETERMINED and report.unique


def _recovery(classify, f):
    """classify(f), or the class and message of the OmlkitError it raises."""
    try:
        return classify(f)
    except OmlkitError as exc:
        return type(exc), str(exc)


# pairs whose homomorphisms reach every branch of the trichotomy, the
# Determined one on 2^3 -> 2^4, 2^3 -> MO2x2, MO2x2 and two-block automorphisms;
# the benzene pairs reach the two-element and four-block branches with a
# non-orthomodular target, and the FlavorError of a non-orthomodular image
RECOVERY_PAIRS = [("2^3", "2^4"), ("MO2", "MO3"), ("example22", "example22"),
                  ("2^3", "MO2x2"), ("MO2x2", "MO2x2"), ("hsum(2^3,2^3)", "hsum(2^3,2^3)"),
                  ("2^2", "benzene"), ("benzene", "benzene")]


def _recovery_pair_homs():
    return [f for a, b in RECOVERY_PAIRS for f in enumerate_homs(catalog(a), catalog(b))]


def test_recovery_reports_match_the_full_enumeration():
    outcomes = set()
    for f in _recovery_pair_homs():
        outcome = _recovery(classify_recovery, f)
        assert outcome == _recovery(legacy_classify_recovery, f)
        outcomes.add(outcome.kind if isinstance(outcome, RecoveryReport) else outcome)
    assert outcomes == {*RecoveryKind,
                        (FlavorError, "blocks are defined for orthomodular lattices")}


def _relabeled_hom(f, seed):
    """f between copies of its source and target whose inner elements are
    renamed by seeded shuffles."""
    rng = random.Random(seed)
    perms = []
    for L in (f.source, f.target):
        inner = list(range(1, L.n - 1))
        rng.shuffle(inner)
        perms.append([0, *inner, L.n - 1])
    p, q = perms
    mapping = [0] * f.source.n
    for a, v in enumerate(f.mapping):
        mapping[p[a]] = q[v]
    return morphism(relabel(f.source, p), relabel(f.target, q), mapping)


def _pinned_homs():
    """Identities and seeded Boolean embeddings, most past the 256 hom-search
    cap, each as given and under two relabelings.  MO10 and hsum(2^2,2^2,2^3)
    have several four-element blocks, so the relabelings pin which one the
    witness swaps."""
    lattices = [catalog(name) for name in
                ("2^5", "hsum(2^4,2^4)", "hsum(2^5,2^5)", "MO4", "example22",
                 "hsum(2^2,2^2,2^3)")] + [mo(10)]
    homs = [identity_morphism(L) for L in (*lattices, boolean_algebra(6))]
    homs += [_boolean_embedding(3, n, random.Random(n)) for n in (5, 6)]
    return [g for f in homs for g in (f, _relabeled_hom(f, 1), _relabeled_hom(f, 2))]


def test_recovery_reports_match_the_sub_m_pinned_search():
    # the search that read each g(a)'s candidates off the enumerated Sub(M)
    for f in _pinned_homs():
        assert classify_recovery(f) == legacy_pinned_classify_recovery(f)


def test_recovery_never_enumerates_sub_m(monkeypatch):
    homs = _recovery_pair_homs() + _pinned_homs()
    expected = [_recovery(classify_recovery, f) for f in homs]

    def refuse(*args, **kwargs):
        raise AssertionError("classify_recovery enumerated a subalgebra poset")

    monkeypatch.setattr("omlkit.functorial.enumerate_subalgebras", refuse)
    monkeypatch.setattr(FiniteOrtholattice, "blocks", refuse)
    assert [_recovery(classify_recovery, f) for f in homs] == expected


def test_four_block_witness_swaps_the_least_block():
    # MO3 with atom pairs {1, 6}, {2, 3}, {4, 5}: the least block by bit set,
    # {0, 2, 3, 7}, has the least larger element, not the least smaller one
    M = relabel(mo(3), (0, 1, 6, 2, 3, 4, 5, 7))
    report = classify_recovery(identity_morphism(M))
    assert report == legacy_classify_recovery(identity_morphism(M))
    assert report.witness.mapping == (0, 1, 3, 2, 4, 5, 6, 7)


def test_recovery_answers_past_the_hom_search_cap():
    # |L|*|M| > 256: the full hom enumeration (and the old recovery check
    # built on it) is capped, the candidate-restricted search is not
    for name in ("2^5", "hsum(2^4,2^4)"):
        L = catalog(name)
        f = identity_morphism(L)
        for capped in (lambda: enumerate_homs(L, L), lambda: legacy_classify_recovery(f)):
            with pytest.raises(SizeCap, match=r"hom search capped at \|L\|\*\|M\| <= 256"):
                capped()
        report = classify_recovery(f)
        assert report.kind == RecoveryKind.DETERMINED and report.unique
        # brute force: a g with the identity's preimage map sends only 0 and 1
        # into the node {0,1}, so it is injective, hence an automorphism; only
        # the identity among the automorphisms may induce that preimage map
        s = sub(L)
        same = preimage_functor(f, s, s).mapping
        assert [g.mapping for g in automorphisms(L)
                if preimage_functor(g, s, s).mapping == same] == [f.mapping]


def test_missing_preimage_is_malformed_input():
    # the preimage of the top of Sub(L) is L itself, not a node of BSub(L)
    L = catalog("example22")
    f = identity_morphism(L)
    with pytest.raises(MalformedInput):
        preimage_functor(f, sub(L), bsub(L))


def test_classify_recovery_two_element_image():
    b3 = boolean_algebra(3)
    two = boolean_algebra(1)
    f = enumerate_homs(b3, two)[0]
    r = classify_recovery(f)
    assert r.kind == RecoveryKind.TWO_ELEMENT_IMAGE
    assert r.image_size == 2


def test_classify_recovery_four_block_image():
    m2 = mo(2)
    f = identity_morphism(m2)
    r = classify_recovery(f)
    assert r.kind == RecoveryKind.FOUR_BLOCK_IMAGE
    g = r.witness
    assert g is not None and g.mapping != f.mapping
    s = sub(m2)
    assert preimage_functor(g, s, s).mapping == preimage_functor(f, s, s).mapping


def test_classify_recovery_determined():
    b3 = boolean_algebra(3)
    r = classify_recovery(identity_morphism(b3))
    assert r.kind == RecoveryKind.DETERMINED
    assert r.unique is True


def test_recovery_trichotomy_is_exhaustive_and_exclusive():
    # endomorphisms of 2^3: 3 collapse to {0,1}, 18 land on a 4-element
    # subalgebra (one 4-element block), 6 are the automorphisms
    b3 = boolean_algebra(3)
    s3 = sub(b3)
    seen = {kind: 0 for kind in RecoveryKind}
    for f in enumerate_homs(b3, b3):
        r = classify_recovery(f)
        seen[r.kind] += 1
        if r.kind == RecoveryKind.DETERMINED:
            assert r.unique is True
        if r.kind == RecoveryKind.FOUR_BLOCK_IMAGE:
            g = r.witness
            assert g.mapping != f.mapping
            assert preimage_functor(g, s3, s3).mapping == \
                preimage_functor(f, s3, s3).mapping
    assert seen == {RecoveryKind.TWO_ELEMENT_IMAGE: 3,
                    RecoveryKind.FOUR_BLOCK_IMAGE: 18,
                    RecoveryKind.DETERMINED: 6}


def test_faithful_on_onto_homs_without_small_blocks():
    # distinct surjections get distinct preimage maps when no block is small
    for name in ("2^3", "example22"):
        L = catalog(name)
        s = sub(L)
        onto = [f for f in enumerate_homs(L, L)
                if image_subalgebra(f).members == L.universe]
        maps = {preimage_functor(f, s, s).mapping for f in onto}
        assert len(maps) == len(onto)


def test_unrealized_meet_preserving_map():
    report = unrealized_meet_preserving_map()
    assert report.meets_preserved
    assert not report.realized_by_hom
    assert report.hom_count == 27
    # it really does collapse exactly one atom node to the bottom
    changed = [i for i, v in enumerate(report.mapping) if v != i]
    assert len(changed) == 1
    assert report.mapping[changed[0]] == report.poset.bottom()
    assert changed[0] in report.poset.atoms()


def test_three_element_chain_is_not_a_subalgebra_lattice():
    chain = AbstractPoset((0b111, 0b110, 0b100))
    for name in ("2^2", "2^3", "2^4", "MO2", "MO3", "MO4",
                 "MO2x2", "example22", "benzene", "hsum(2^3,2^3)"):
        s = sub(catalog(name)).as_abstract()
        assert poset_isomorphic(chain, s) is None
