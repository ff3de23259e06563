"""Certificate checking and bounded search for closure membership."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jreal import prog
from jreal.bracket import lam
from jreal.certs import (
    Accepted,
    Base,
    CertSearch,
    CheckPolicy,
    LIFT_CAVEAT,
    Lift,
    Rejected,
    SEARCH_THRESHOLD,
    check_cert,
    lifted_constant,
    parse_cert,
    search_cert,
    show_cert,
    tagged,
)
from jreal.coding import encode_seq, pair
from jreal.jsets import (
    ByPredicate,
    Cofinite,
    Finite,
    JOf,
    Singleton,
    UpFrom,
    finite,
    is_empty,
    member,
    parse_jset,
    sample,
    show_jset,
)
from jreal.terms import FIX, Num, Var, ap, encode_term
from jreal.text import MAX_DEPTH, InputError
from support import tagged_by_full_decode

P = CheckPolicy(depth=4, window=4, fuel=2000)


# ---------------------------------------------------------------------------
# the closure value format


closure_like_codes = (
    st.integers(min_value=0, max_value=2**16 - 1)
    | st.builds(pair, st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=2**200))
    | st.lists(st.integers(min_value=0, max_value=2**64), max_size=40).map(encode_seq)
)


@settings(max_examples=300, deadline=None)
@given(closure_like_codes)
def test_tagged_matches_the_inline_tag_test(v):
    got = tagged(v)
    assert got == tagged_by_full_decode(v)
    if got is not None:
        assert pair(*got) == v


def test_tagged_matches_the_full_decode_across_the_cache_bound():
    # below 4,096 tagged reads decode_seq's cache, from there at most three
    # entries
    for v in range(5000):
        assert tagged(v) == tagged_by_full_decode(v), v


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**300 - 1))
def test_tagged_matches_the_full_decode(v):
    assert tagged(v) == tagged_by_full_decode(v)


def test_tagged_on_hand_picked_codes():
    assert tagged(pair(0, 5)) == (0, 5)
    assert tagged(pair(1, 2**90)) == (1, 2**90)
    for v in (0, pair(2, 5), pair(3, 0), encode_seq([1, 0, 0]), encode_seq([0])):
        assert tagged(v) is None


# ---------------------------------------------------------------------------
# target sets


def test_membership_shapes():
    assert member(finite(1, 2, 3), 2)
    assert not member(finite(1, 2, 3), 5)
    assert member(Cofinite(frozenset({0, 5})), 7)
    assert not member(Cofinite(frozenset({0, 5})), 5)
    assert member(Singleton(4), 4)
    assert member(UpFrom(3), 3) and not member(UpFrom(3), 2)
    assert member(ByPredicate(lambda x: None), 0) is None
    assert member(JOf(Singleton(0)), pair(0, 0)) is None


def test_emptiness_passes_through_closure():
    assert is_empty(finite())
    assert is_empty(JOf(JOf(finite())))
    assert not is_empty(JOf(Singleton(2)))
    assert is_empty(Cofinite(frozenset())) is False


def test_sampling_is_sorted_members():
    assert sample(Cofinite(frozenset({0, 2})), 3) == (1, 3, 4)
    assert sample(finite(9, 1), 5) == (1, 9)
    assert sample(UpFrom(6), 2) == (6, 7)


def test_jset_text_roundtrip():
    for spec in ("{1,2,3}", "{}", "cofinite{0,5}", "upfrom 7", "single 4"):
        assert show_jset(parse_jset(spec)) == spec
    with pytest.raises(InputError):
        parse_jset("upfrom x")
    for spec in ("{-1}", "{3,-2}", "cofinite{-4}"):
        with pytest.raises(InputError, match="unexpected character '-'"):
            parse_jset(spec)


# ---------------------------------------------------------------------------
# base rule


def test_base_accepts_tagged_member():
    assert check_cert(pair(0, 5), Singleton(5), Base(5), P) == Accepted(())


def test_base_rejects_nonmember_and_wrong_shape():
    out = check_cert(pair(0, 5), Singleton(6), Base(5), P)
    assert isinstance(out, Rejected) and "not in" in out.reason
    out = check_cert(pair(1, 5), Singleton(5), Base(5), P)
    assert isinstance(out, Rejected)
    out = check_cert(pair(0, 5), Singleton(5), Base(4), P)
    assert isinstance(out, Rejected)


def test_base_against_nested_target_needs_inner():
    x = pair(0, pair(0, 9))
    target = JOf(Singleton(9))
    assert check_cert(x, target, Base(pair(0, 9), Base(9)), P) == Accepted(())
    out = check_cert(x, target, Base(pair(0, 9)), P)
    assert isinstance(out, Rejected) and "inner" in out.reason


def test_base_inner_on_plain_target_rejected():
    out = check_cert(pair(0, 5), Singleton(5), Base(5, Base(5)), P)
    assert isinstance(out, Rejected)


def test_undecided_membership_is_a_rejection():
    target = ByPredicate(lambda x: None, "stalls")
    out = check_cert(pair(0, 5), target, Base(5), P)
    assert isinstance(out, Rejected) and "undecided" in out.reason


# ---------------------------------------------------------------------------
# lift rule


def constant_tail_code(value: int) -> int:
    # a code sending every point to the same already tagged value
    return encode_term(lam("m", prog.tag0(Num(value))))


def test_lift_accepts_constant_tail():
    e = constant_tail_code(3)
    x = pair(1, e)
    cert = Lift(0, tuple((m, Base(3)) for m in range(4)))
    out = check_cert(x, Singleton(3), cert, P)
    assert out == Accepted((LIFT_CAVEAT,))


def test_lift_needs_every_window_point():
    e = constant_tail_code(3)
    cert = Lift(0, ((0, Base(3)), (1, Base(3)), (3, Base(3))))
    out = check_cert(pair(1, e), Singleton(3), cert, P)
    assert isinstance(out, Rejected) and "sample 2" in out.reason


def test_lift_respects_threshold_window():
    e = constant_tail_code(3)
    cert = Lift(5, tuple((m, Base(3)) for m in range(5, 9)))
    assert check_cert(pair(1, e), Singleton(3), cert, P) == Accepted((LIFT_CAVEAT,))


def test_lift_rejects_on_divergent_tail_code():
    omega = ap(FIX, lam("f", "x", ap(Var("f"), Var("x"))))
    e = encode_term(lam("m", ap(omega, Num(0))))
    cert = Lift(0, tuple((m, Base(0)) for m in range(4)))
    out = check_cert(pair(1, e), Singleton(0), cert, CheckPolicy(fuel=300))
    assert isinstance(out, Rejected) and "fuel" in out.reason


def test_depth_bound_rejects_deep_chains():
    x, cert = pair(0, 7), Base(7)
    for _ in range(3):
        x, cert = lifted_constant(x, cert, 0, P)
    assert check_cert(x, Singleton(7), cert, P) == Accepted((LIFT_CAVEAT,))
    x, cert = lifted_constant(x, cert, 0, P)
    out = check_cert(x, Singleton(7), cert, P)
    assert isinstance(out, Rejected) and "depth" in out.reason
    assert isinstance(check_cert(x, Singleton(7), cert, CheckPolicy(depth=5)), Accepted)


def test_policy_bounds_validated():
    with pytest.raises(ValueError):
        CheckPolicy(depth=0)
    with pytest.raises(ValueError):
        CheckPolicy(window=0)


# ---------------------------------------------------------------------------
# search


def test_search_finds_base_and_lift_chains():
    searcher = CertSearch(P, SEARCH_THRESHOLD)
    x, cert = pair(0, 2), Base(2)
    for depth in range(3):
        found = searcher.search(x, finite(0, 2))
        assert found is not None
        assert isinstance(check_cert(x, finite(0, 2), found, P), Accepted)
        x, cert = lifted_constant(x, cert, depth, P)


def test_search_empty_target_finds_nothing():
    searcher = CertSearch(CheckPolicy(depth=3, window=2, fuel=400),
                          SEARCH_THRESHOLD)
    for x in range(100):
        assert searcher.search(x, finite()) is None


def test_search_respects_nested_targets():
    x = pair(0, pair(0, 9))
    found = search_cert(x, JOf(Singleton(9)), P)
    assert found == Base(pair(0, 9), Base(9))


def test_search_handles_self_referential_codes():
    # a code that reproduces its own 1-tagged wrapper must not loop the search
    quine_like = encode_term(lam("m", prog.tag1(Num(0))))
    x = pair(1, quine_like)
    assert search_cert(x, Singleton(5), CheckPolicy(depth=3, window=2, fuel=500)) is None


def test_inclusion_reverification():
    # a certificate found for a set keeps verifying for any decidable superset
    x, cert = pair(0, 1), Base(1)
    for depth in range(3):
        for big in (finite(0, 1), Cofinite(frozenset({7})), UpFrom(0)):
            assert isinstance(check_cert(x, big, cert, P), Accepted)
        x, cert = lifted_constant(x, cert, depth, P)


# ---------------------------------------------------------------------------
# negative control: every single mutation of a valid certificate is caught


def _with_payload(cert, a):
    """cert with its innermost base payload replaced by a."""
    if isinstance(cert, Base):
        return Base(a)
    return Lift(cert.threshold,
                tuple((m, _with_payload(c, a)) for m, c in cert.tails))


@st.composite
def full_depth_chains(draw):
    """A member a of a seeded finite target, lifted until its certificate
    is exactly policy.depth levels deep: (x, target, cert, policy, a)."""
    members = draw(st.lists(st.integers(0, 40), min_size=2, max_size=4,
                            unique=True))
    policy = CheckPolicy(depth=draw(st.integers(2, 4)),
                         window=draw(st.integers(1, 3)), fuel=2000)
    a = draw(st.sampled_from(members))
    x, cert = pair(0, a), Base(a)
    for _ in range(policy.depth - 1):
        x, cert = lifted_constant(x, cert, draw(st.integers(0, 3)), policy)
    return x, finite(*members), cert, policy, a


def _mutants(x, target, cert, policy, a):
    """name -> (x, target, cert), one mutation each; cert is a Lift."""
    other = min(b for b in target.elems if b != a)
    th, tails = cert.threshold, cert.tails
    deeper_x, deeper = lifted_constant(x, cert, 0, policy)
    return {
        "payload": (x, target, _with_payload(cert, other)),
        "tail-outside-window": (x, target, Lift(
            th, ((th + policy.window, tails[0][1]),) + tails[1:])),
        "tail-dropped": (x, target, Lift(th, tails[1:])),
        "level-past-depth": (deeper_x, target, deeper),
        "target-misses-payload": (x, Finite(target.elems - {a}), cert),
    }


@settings(max_examples=40, deadline=None)
@given(full_depth_chains())
def test_every_single_mutation_is_rejected(chain):
    x, target, built, policy, a = chain
    found = CertSearch(policy, SEARCH_THRESHOLD).search(x, target)
    assert found is not None
    for cert in (built, found):
        assert check_cert(x, target, cert, policy) == Accepted((LIFT_CAVEAT,))
        for name, (mx, mtarget, mcert) in _mutants(x, target, cert, policy,
                                                   a).items():
            got = check_cert(mx, mtarget, mcert, policy)
            assert isinstance(got, Rejected), (name, show_cert(mcert))


# ---------------------------------------------------------------------------
# text format


@st.composite
def cert_trees(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        a = draw(st.integers(min_value=0, max_value=40))
        inner = draw(st.none() | cert_trees(depth=0)) if depth > 0 else None
        return Base(a, inner)
    threshold = draw(st.integers(min_value=0, max_value=5))
    count = draw(st.integers(min_value=0, max_value=3))
    tails = tuple(
        (threshold + i, draw(cert_trees(depth=depth - 1))) for i in range(count)
    )
    return Lift(threshold, tails)


@settings(max_examples=60, deadline=None)
@given(cert_trees())
def test_cert_text_roundtrip(cert):
    assert parse_cert(show_cert(cert)) == cert


def test_cert_nesting_is_bounded():
    def lifts(n):
        return "(lift 0 (0 " * n + "(base 0)" + "))" * n

    assert show_cert(parse_cert(lifts(MAX_DEPTH - 1))) == lifts(MAX_DEPTH - 1)
    for n in (MAX_DEPTH, 2000):
        with pytest.raises(InputError, match=f"nested deeper than {MAX_DEPTH}"):
            parse_cert(lifts(n))


def test_wide_lift_parses_in_linear_time():
    tails = tuple((m, Base(0)) for m in range(8000))
    text = show_cert(Lift(0, tails))
    start = time.perf_counter()
    assert parse_cert(text) == Lift(0, tails)
    assert time.perf_counter() - start < 1.0


def test_cert_parse_examples():
    assert parse_cert("(base 5)") == Base(5)
    assert parse_cert("(base 5 (base 9))") == Base(5, Base(9))
    got = parse_cert("(lift 2 (2 (base 0)) (3 (base 0)))")
    assert got == Lift(2, ((2, Base(0)), (3, Base(0))))
