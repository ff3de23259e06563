"""Tracked maps of assemblies: verification, constructions, exponents."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from jreal import assemblies, coding
from jreal.assemblies import (
    FiniteAssembly,
    Morphism,
    NatAssembly,
    Subobject,
    TrackStatus,
    check_tracking,
    compose,
    exponent_finite,
    identity_morphism,
    morphism_from_table,
    omega_uniformity,
    pairing,
    parse_assembly,
    product,
    proj_left,
    proj_right,
    show_assembly,
    subobject_check,
    table_tracker,
)
from jreal.bracket import lam
from jreal.certs import CertSearch, CheckPolicy
from jreal.jsets import Finite, JOf, Singleton, UpFrom
from jreal.machine import DEFAULT_FUEL, apply_cached
from jreal.prog import tag0
from jreal.terms import App, K, Num, SUCC, Var, encode_term
from jreal.text import InputError
from support import per_map_listing

POL = CheckPolicy(depth=4, window=2, fuel=DEFAULT_FUEL)
EXP_POL = CheckPolicy(depth=3, window=2, fuel=600)
BIG = CheckPolicy(depth=5, window=2, fuel=120000)

SUCC_TRACKER = encode_term(lam("r", tag0(App(SUCC, Var("r")))))


def four_point():
    return FiniteAssembly(
        "F", ("a", "b", "c", "d"),
        (Finite(frozenset({0, 1})), Singleton(4), Finite(frozenset({2})),
         Singleton(3)))


def tracked(asm, table):
    code = table_tracker(asm, asm, table)
    assert code is not None
    return morphism_from_table(asm, asm, table, code)


def test_identity_tracks_on_nat_sampled():
    rep = check_tracking(identity_morphism(NatAssembly()), POL, samples=16)
    assert rep.status is TrackStatus.VERIFIED
    # the carrier is sampled; its singleton realizer sets are exact
    assert rep.note == "sampled carrier" and rep.checked == 16
    assert rep.caveats == ()


def test_identity_tracks_on_finite_carrier_exactly():
    rep = check_tracking(identity_morphism(four_point()), POL)
    assert rep.status is TrackStatus.VERIFIED
    assert rep.caveats == ()
    assert rep.note == "full carrier"


def test_successor_tracks_sampled():
    succ = Morphism(NatAssembly(), NatAssembly(), lambda n: n + 1, SUCC_TRACKER)
    rep = check_tracking(succ, POL, samples=51)
    assert rep.status is TrackStatus.VERIFIED
    assert rep.checked == 51


def test_constant_code_fails_with_pinpointed_witness():
    const0 = encode_term(App(K, Num(0)))
    bad = Morphism(NatAssembly(), NatAssembly(), lambda n: n + 1, const0)
    rep = check_tracking(bad, POL, samples=6)
    assert rep.status is TrackStatus.FAILED
    assert rep.witness == (0, 0)
    assert "not a tagged pair" in rep.note


def test_base_output_into_closure_target_verifies():
    # <0,<0,9>> is in the closure of the closure of {9}: its inner
    # certificate is searched, not refused as an undecided membership
    out = coding.pair(0, coding.pair(0, 9))
    src = FiniteAssembly("s", ("x",), (Singleton(1),))
    dst = FiniteAssembly("t", ("y",), (JOf(Singleton(9)),))
    mor = morphism_from_table(src, dst, {"x": "y"}, encode_term(App(K, Num(out))))
    rep = check_tracking(mor, POL)
    assert rep.status is TrackStatus.VERIFIED, rep.note
    assert rep.checked == 1


def test_wrong_landing_point_fails():
    # tracks n+1 as a map but is checked against the identity
    succ = Morphism(NatAssembly(), NatAssembly(), lambda n: n, SUCC_TRACKER)
    rep = check_tracking(succ, POL, samples=4)
    assert rep.status is TrackStatus.FAILED
    assert "outside the target" in rep.note


def test_compose_identity_and_successor():
    N = NatAssembly()
    succ = Morphism(N, N, lambda n: n + 1, SUCC_TRACKER)
    both = compose(identity_morphism(N), succ)
    assert both.map(7) == 8
    assert check_tracking(both, POL, samples=10).status is TrackStatus.VERIFIED
    twice = compose(succ, succ)
    assert twice.map(7) == 9
    assert check_tracking(twice, POL, samples=10).status is TrackStatus.VERIFIED


def test_compose_rejects_mismatched_ends():
    N = NatAssembly()
    f = identity_morphism(N)
    g = identity_morphism(four_point())
    with pytest.raises(ValueError, match="domain"):
        compose(f, g)


def test_associativity_extensional_and_tracked():
    fin = four_point()
    f = tracked(fin, {"a": "b", "b": "a", "c": "d", "d": "c"})
    g = tracked(fin, {"a": "b", "b": "c", "c": "a", "d": "d"})
    h = tracked(fin, {"a": "a", "b": "d", "c": "b", "d": "c"})
    lhs = compose(compose(f, g), h)
    rhs = compose(f, compose(g, h))
    assert all(lhs.map(p) == rhs.map(p) for p in fin.points)
    # nested flatten spines outgrow the default budget; both verify given fuel
    assert check_tracking(lhs, policy=BIG).status is TrackStatus.VERIFIED
    assert check_tracking(rhs, policy=BIG).status is TrackStatus.VERIFIED


def test_composition_coherence_on_random_table_pairs():
    rng = random.Random(20)
    fin = four_point()
    labels = fin.points
    done = 0
    while done < 50:
        t1 = {p: rng.choice(labels) for p in labels}
        t2 = {p: rng.choice(labels) for p in labels}
        c1 = table_tracker(fin, fin, t1)
        c2 = table_tracker(fin, fin, t2)
        if c1 is None or c2 is None:
            continue  # maps sharing realizer 0/1 across a,b need not be trackable
        f = morphism_from_table(fin, fin, t1, c1)
        g = morphism_from_table(fin, fin, t2, c2)
        gf = compose(f, g)
        assert all(gf.map(p) == t2[t1[p]] for p in labels)
        rep = check_tracking(gf, policy=BIG)
        assert rep.status is TrackStatus.VERIFIED, (t1, t2, rep)
        done += 1


def test_product_of_nats_has_exact_pair_realizers():
    NN = product(NatAssembly(), NatAssembly())
    assert NN.realizer_set((3, 5)) == Finite(frozenset({coding.pair(3, 5)}))
    assert not NN.finite


def test_projections_track():
    NN = product(NatAssembly(), NatAssembly())
    pl, pr = proj_left(NN), proj_right(NN)
    assert pl.map((3, 5)) == 3 and pr.map((3, 5)) == 5
    assert check_tracking(pl, POL, samples=12).status is TrackStatus.VERIFIED
    assert check_tracking(pr, POL, samples=12).status is TrackStatus.VERIFIED


def test_pairing_of_tracked_maps_is_tracked():
    N = NatAssembly()
    succ = Morphism(N, N, lambda n: n + 1, SUCC_TRACKER)
    both = pairing(identity_morphism(N), succ)
    assert both.map(4) == (4, 5)
    rep = check_tracking(both, POL, samples=10)
    assert rep.status is TrackStatus.VERIFIED


def test_pairing_then_projection_recovers_components():
    fin = four_point()
    f = tracked(fin, {"a": "b", "b": "a", "c": "d", "d": "c"})
    g = tracked(fin, {"a": "c", "b": "b", "c": "a", "d": "d"})
    pf = pairing(f, g)
    AB = pf.dst
    left = compose(pf, proj_left(AB))
    right = compose(pf, proj_right(AB))
    assert all(left.map(p) == f.map(p) for p in fin.points)
    assert all(right.map(p) == g.map(p) for p in fin.points)
    assert check_tracking(left, policy=BIG).status is TrackStatus.VERIFIED
    assert check_tracking(right, policy=BIG).status is TrackStatus.VERIFIED


def test_finite_product_point_count():
    fin = four_point()
    two = FiniteAssembly("two", ("p", "q"), (Singleton(0), Singleton(1)))
    both = product(fin, two)
    pts = both.sample_points(64)
    assert len(pts) == 8
    assert both.finite


def five_point():
    return FiniteAssembly("A", tuple("abcde"), tuple(Singleton(i) for i in range(5)))


def test_finite_product_is_checked_on_every_pair():
    AA = product(five_point(), five_point())
    pl = proj_left(AA)
    rep = check_tracking(pl, POL)
    assert (rep.status, rep.checked, rep.note) == (
        TrackStatus.VERIFIED, 25, "full carrier")
    # wrong at the last of the 25 pairs only, past a 16-pair sample
    wrong = Morphism(AA, AA.left,
                     lambda p: "a" if p == ("e", "e") else p[0], pl.tracker)
    rep = check_tracking(wrong, POL)
    assert rep.status is TrackStatus.FAILED
    assert rep.witness == (("e", "e"), coding.pair(4, 4)) and rep.checked == 25


def test_infinite_product_is_still_sampled():
    half = product(NatAssembly(), five_point())
    assert len(half.sample_points(16)) == 16 and not half.finite
    rep = check_tracking(proj_right(half), POL)
    assert (rep.status, rep.checked, rep.note) == (
        TrackStatus.VERIFIED, 16, "sampled carrier")


def test_exponent_of_point_is_point():
    one = FiniteAssembly("one", ("p",), (Finite(frozenset({0})),))
    res = exponent_finite(one, one, 2000, EXP_POL)
    assert res.assembly.points == (("p",),)
    assert res.unknown_maps == () and res.excluded_maps == ()
    assert len(res.morphisms) == 1
    assert res.morphisms[0].map("p") == "p"


def test_exponent_evaluation_tracks():
    one = FiniteAssembly("one", ("p",), (Finite(frozenset({0})),))
    res = exponent_finite(one, one, 2000, EXP_POL)
    rep = check_tracking(res.ev, POL)
    assert rep.status is TrackStatus.VERIFIED

    two = FiniteAssembly("two", ("p", "q"),
                         (Finite(frozenset({0})), Finite(frozenset({1}))))
    res2 = exponent_finite(two, two, 2000, EXP_POL)
    assert check_tracking(res2.ev, POL).status is TrackStatus.VERIFIED
    for m in res2.morphisms:
        assert check_tracking(m, POL).status is TrackStatus.VERIFIED


def test_exponent_excludes_provably_untrackable_map():
    shared = FiniteAssembly("sh", ("p", "q"),
                            (Finite(frozenset({0})), Finite(frozenset({0}))))
    split = FiniteAssembly("tg", ("a", "b"), (Singleton(0), Singleton(1)))
    res = exponent_finite(shared, split, 2000, EXP_POL)
    got = {lbl for lbl, _ in res.excluded_maps}
    assert got == {("a", "b"), ("b", "a")}
    for _, reason in res.excluded_maps:
        assert "disjoint" in reason
    # the two constant maps survive and carry honest tracker stockpiles
    assert set(res.assembly.points) == {("a", "a"), ("b", "b")}
    assert res.unknown_maps == ()


def test_exponent_does_not_exclude_on_sampled_image_sets():
    # the 8-element samples of upfrom 3 and upfrom 20 are disjoint, but the
    # sets meet: a tracker sending 1 to <0, 20> tracks a>p b>q
    src = FiniteAssembly("src", ("a", "b"),
                         (Finite(frozenset({1})), Finite(frozenset({1}))))
    dst = FiniteAssembly("dst", ("p", "q"), (UpFrom(3), UpFrom(20)))
    res = exponent_finite(src, dst, 8, EXP_POL)
    assert res.excluded_maps == ()
    assert ("p", "q") in res.unknown_maps
    tracker = encode_term(App(K, Num(coding.pair(0, 20))))
    m = morphism_from_table(src, dst, {"a": "p", "b": "q"}, tracker)
    assert check_tracking(m, POL).status is TrackStatus.VERIFIED
    # table trackers intersect exact sets only
    with pytest.raises(ValueError, match="finite realizer shapes"):
        table_tracker(src, dst, {"a": "p", "b": "q"})


def test_exponent_excludes_maps_whose_images_share_no_realizer():
    # the three image sets meet pairwise but have no common element, so
    # realizer 1 has nowhere to go that every image's closure contains
    src = FiniteAssembly("src", ("a", "b", "c"), (Singleton(1),) * 3)
    dst = FiniteAssembly("dst", ("p", "q", "r"),
                         (Finite(frozenset({1, 2})), Finite(frozenset({2, 3})),
                          Finite(frozenset({1, 3}))))
    res = exponent_finite(src, dst, 8, EXP_POL)
    reasons = dict(res.excluded_maps)
    assert "disjoint" in reasons[("p", "q", "r")]
    assert ("p", "q", "p") not in reasons
    assert table_tracker(src, dst, {"a": "p", "b": "q", "c": "r"}) is None
    assert table_tracker(src, dst, {"a": "p", "b": "q", "c": "q"}) is not None


def test_exponent_reports_unknown_below_small_bound():
    two = FiniteAssembly("two", ("p", "q"),
                         (Finite(frozenset({0})), Finite(frozenset({1}))))
    res = exponent_finite(two, two, 40, EXP_POL)
    assert ("p", "q") in res.unknown_maps  # identity needs a code above this bound


# source realizers are tagged pairs, which many small codes pass on, so
# outputs differ from realizer to realizer; some of their payloads lie in
# the small target sets and some do not
realizer_sets = st.frozensets(st.integers(0, 12).map(lambda x: coding.pair(0, x)),
                              min_size=1, max_size=3).map(Finite)
source_sets = st.one_of(realizer_sets, st.builds(UpFrom, st.integers(0, 41)))
small_sets = st.frozensets(st.integers(0, 5), min_size=1, max_size=3).map(Finite)
target_sets = st.one_of(small_sets, st.builds(UpFrom, st.integers(0, 5)),
                        small_sets.map(JOf))


def _assembly(name, sets):
    return st.lists(sets, min_size=1, max_size=3).map(
        lambda rs: FiniteAssembly(name, tuple(f"{name}{k}" for k in range(len(rs))),
                                  tuple(rs)))


def _exponent_run(A, B, bound, policy):
    """An exponent's result as plain values, the apply_cached hits and
    misses it caused from a cold cache, and the decide calls it made."""
    calls = Counter()

    class Recording(CertSearch):
        def decide(self, v, target):
            calls[v, target] += 1
            return super().decide(v, target)

    apply_cached.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assemblies, "CertSearch", Recording)
        res = exponent_finite(A, B, bound, policy)
    info = apply_cached.cache_info()
    maps = [(m.tracker, tuple(m.map(p) for p in A.points)) for m in res.morphisms]
    plain = (res.assembly, maps, res.ev.tracker, res.unknown_maps,
             res.excluded_maps, res.caveats)
    return plain, (info.hits, info.misses), calls


@settings(max_examples=60, deadline=None)
@given(_assembly("a", source_sets), _assembly("b", target_sets),
       st.integers(min_value=16, max_value=300),
       st.integers(min_value=50, max_value=400))
def test_mask_pass_matches_the_listing(A, B, bound, fuel):
    # the same result, the same machine runs and the same landing questions
    # as listing every candidate code for every map
    policy = CheckPolicy(depth=2, window=2, fuel=fuel)
    got = _exponent_run(A, B, bound, policy)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assemblies, "_per_map_pass", per_map_listing)
        want = _exponent_run(A, B, bound, policy)
    assert got == want


def test_subobject_full_refinement_verifies():
    fin = four_point()
    rep, live = subobject_check(Subobject(fin.realizer_set), fin, POL)
    assert rep.status is TrackStatus.VERIFIED
    assert live == fin.points


def test_subobject_empty_is_trivially_verified():
    fin = four_point()
    rep, live = subobject_check(Subobject(lambda x: Finite(frozenset())), fin, POL)
    assert rep.status is TrackStatus.VERIFIED
    assert live == () and rep.checked == 0


def test_subobject_alien_realizer_fails():
    fin = four_point()
    rep, live = subobject_check(Subobject(lambda x: Singleton(9)), fin, POL)
    assert rep.status is TrackStatus.FAILED
    assert rep.witness == ("a", 9)


def test_subobject_untagged_tracker_output_fails():
    fin = four_point()
    const0 = encode_term(App(K, Num(0)))
    rep, live = subobject_check(Subobject(fin.realizer_set, const0), fin, POL)
    assert rep.status is TrackStatus.FAILED
    assert rep.witness == ("a", 0)
    assert "not a tagged pair" in rep.note
    assert live == fin.points


def test_subobject_partial_support_reported():
    fin = four_point()
    R = {"a": Finite(frozenset({0})), "b": Finite(frozenset()),
         "c": Finite(frozenset({2})), "d": Finite(frozenset())}
    rep, live = subobject_check(Subobject(lambda x: R[x]), fin, POL)
    assert rep.status is TrackStatus.VERIFIED
    assert live == ("a", "c")


def test_omega_uniformity_across_sampled_family():
    from jreal.kit import A_CODE

    ev = omega_uniformity()
    assert ev.verified
    assert ev.checked == 29
    assert ev.element == coding.pair(A_CODE, A_CODE)


def test_assembly_validation():
    with pytest.raises(ValueError, match="duplicate"):
        FiniteAssembly("x", ("a", "a"), (Singleton(0), Singleton(1)))
    with pytest.raises(ValueError, match="empty realizer"):
        FiniteAssembly("x", ("a",), (Finite(frozenset()),))
    with pytest.raises(ValueError, match="per point"):
        FiniteAssembly("x", ("a", "b"), (Singleton(0),))


def test_format_roundtrip():
    fin = four_point()
    text = show_assembly(fin)
    back = parse_assembly(text, "F")
    assert back.points == fin.points
    assert back.realizers == fin.realizers


def test_format_errors():
    with pytest.raises(InputError, match="expected 'realizers'"):
        parse_assembly("point a {0}")
    with pytest.raises(InputError, match="expected a set"):
        parse_assembly("point a realizers wat")
    with pytest.raises(InputError, match="duplicate"):
        parse_assembly("point a realizers {0}\npoint a realizers {1}")
