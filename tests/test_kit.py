"""Combinator codes against their host mirrors, plus the disjointness probe."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from support import chain, nested_chain
from jreal import coding, prog
from jreal.bracket import lam
from jreal.certs import Accepted, Base, CheckPolicy, Lift, check_cert
from jreal.jsets import Finite, JOf, Singleton
from jreal.kit import (
    A_CODE,
    ANYZERO_CODE,
    B_CODE,
    C_CODE,
    D_CODE,
    E_CODE,
    FIND1,
    G_BUILDER_CODE,
    LEASTZERO_CODE,
    MirrorError,
    MirrorFn,
    PAYLOADS,
    REPLACEAT,
    cor_gh,
    disjointness_probe,
    host_anyzero,
    host_leastzero,
    lemma_g,
    mirror_a,
    mirror_b,
    mirror_c,
    mirror_d,
    mirror_e,
    mirror_lifted,
    wedge_target,
)
from jreal.machine import DEFAULT_FUEL, Value, apply, apply_many
from jreal.terms import FIX, K, App, Num, SUCC, Var, ap, encode_term

P = CheckPolicy(depth=6, window=3, fuel=40000)

SUCC_CODE = encode_term(SUCC)
SUCC_FN = MirrorFn(Num(SUCC_CODE), lambda y: (y + 1, None))


def accepted(x, target, cert):
    got = check_cert(x, target, cert, P)
    assert isinstance(got, Accepted), got
    return got


def test_unit_mirror():
    for x in (0, 5, 41):
        out, cert = mirror_a(x)
        assert apply(A_CODE, x, DEFAULT_FUEL) == Value(out)
        accepted(out, Singleton(x), cert)


def test_fmap_mirror_agrees_and_certifies():
    rng = random.Random(11)
    for _ in range(30):
        a = rng.randrange(0, 9)
        x, cert = chain(rng, a, rng.randrange(0, 4), P)
        accepted(x, Singleton(a), cert)
        got = apply_many(B_CODE, [SUCC_CODE, x], fuel=P.fuel)
        out, out_cert = mirror_b(SUCC_FN, x, cert, P)
        assert got == Value(out)
        accepted(out, Singleton(a + 1), out_cert)


def test_stage_mirror_agrees_and_certifies():
    from jreal.bracket import lam

    # a code landing in {7} everywhere, staged at two different thresholds
    f_code = encode_term(lam("m", Num(7)))
    fn = MirrorFn(Num(f_code), lambda m: (7, None))
    for threshold in (0, 2):
        got = apply(C_CODE, f_code, fuel=P.fuel)
        out, cert = mirror_c(fn, threshold, P)
        assert got == Value(out)
        accepted(out, Singleton(7), cert)


def test_flatten_mirror_agrees_and_certifies():
    rng = random.Random(23)
    for _ in range(25):
        a = rng.randrange(0, 9)
        x, cert = nested_chain(rng, a, rng.randrange(0, 3), rng.randrange(0, 3), P)
        accepted(x, JOf(Singleton(a)), cert)
        got = apply(D_CODE, x, fuel=P.fuel)
        out, out_cert = mirror_d(x, cert, P)
        assert got == Value(out)
        accepted(out, Singleton(a), out_cert)


def test_zip_mirror_agrees_and_certifies():
    rng = random.Random(37)
    for _ in range(15):
        a, b = rng.randrange(0, 6), rng.randrange(0, 6)
        xu, cu = chain(rng, a, rng.randrange(0, 3), P)
        xv, cv = chain(rng, b, rng.randrange(0, 3), P)
        w = coding.pair(xu, xv)
        got = apply(E_CODE, w, fuel=10 * P.fuel)
        out, out_cert = mirror_e(w, cu, cv, P)
        assert got == Value(out)
        accepted(out, wedge_target(Singleton(a), Singleton(b)), out_cert)


# ---------------------------------------------------------------------------
# sequence scanners and surgery, host oracles first


def test_scanners_match_hosts():
    rng = random.Random(5)
    for _ in range(40):
        seq = tuple(rng.randrange(0, 4) for _ in range(rng.randrange(0, 5)))
        s = coding.encode_seq(seq)
        assert apply(ANYZERO_CODE, s, DEFAULT_FUEL) == Value(host_anyzero(seq))
        assert apply(LEASTZERO_CODE, s, DEFAULT_FUEL) == Value(host_leastzero(seq))


def test_sequence_surgery_matches_python():
    rng = random.Random(6)
    find1_code = encode_term(FIND1)
    payloads_code = encode_term(PAYLOADS)
    replace_code = encode_term(REPLACEAT)
    for _ in range(25):
        n = rng.randrange(1, 5)
        entries = [
            (rng.randrange(0, 2), rng.randrange(0, 30)) for _ in range(n)
        ]
        xs = [coding.pair(t, p) for t, p in entries]
        s = coding.encode_seq(xs)
        want_find = next((k for k, (t, _) in enumerate(entries) if t == 1), n)
        assert apply_many(find1_code, [s, 0], fuel=P.fuel) == Value(want_find)
        assert apply(payloads_code, s, fuel=P.fuel) == Value(
            coding.encode_seq([p for _, p in entries])
        )
        i, v = rng.randrange(0, n), rng.randrange(0, 50)
        replaced = list(xs)
        replaced[i] = v
        assert apply_many(replace_code, [s, i, v], fuel=P.fuel) == Value(
            coding.encode_seq(replaced)
        )


# ---------------------------------------------------------------------------
# pointwise lifting


def test_lifting_is_uniform_in_the_function_code():
    for f_code in (ANYZERO_CODE, LEASTZERO_CODE):
        fn = lemma_g(f_code, host_anyzero)
        assert apply(G_BUILDER_CODE, f_code, fuel=P.fuel) == Value(fn.g_code)


PG = CheckPolicy(depth=6, window=2, fuel=40000)


def lifted_corpus(rng, width_max=3, depth_max=1):
    # replayed tail trees branch window-wise per lift layer, so coordinate
    # depth is kept shallow to hold the check cost down
    width = rng.randrange(1, width_max + 1)
    entries, values = [], []
    for _ in range(width):
        a = rng.randrange(0, 3)
        x, cert = chain(rng, a, rng.randrange(0, depth_max + 1), PG)
        entries.append((x, cert))
        values.append(a)
    return entries, tuple(values)


def test_lifted_mirror_agrees_and_certifies():
    rng = random.Random(91)
    fn = lemma_g(ANYZERO_CODE, host_anyzero)
    for _ in range(20):
        entries, values = lifted_corpus(rng)
        s = coding.encode_seq([x for x, _ in entries])
        got = apply(fn.g_code, s, fuel=20 * PG.fuel)
        out, out_cert = mirror_lifted(fn, entries, PG)
        assert got == Value(out)
        got_check = check_cert(out, Singleton(host_anyzero(values)), out_cert, PG)
        assert isinstance(got_check, Accepted), got_check


def test_least_zero_lifting():
    rng = random.Random(17)
    pair = cor_gh()
    for _ in range(10):
        entries, values = lifted_corpus(rng, width_max=3, depth_max=1)
        out, out_cert = mirror_lifted(pair.least_zero, entries, PG)
        want = host_leastzero(values)
        assert apply(pair.least_zero.g_code, coding.encode_seq([x for x, _ in entries]),
                     fuel=20 * PG.fuel) == Value(out)
        got_check = check_cert(out, Singleton(want), out_cert, PG)
        assert isinstance(got_check, Accepted), got_check


# ---------------------------------------------------------------------------
# every mirror against the machine, on drawn certified inputs; each case
# gives the machine's answer, the mirror's value and certificate, the set
# the certificate must land the value in, and the policy to check it at


def _fmap_case(rng, a):
    x, cert = chain(rng, a, rng.randrange(0, 4), P)
    return (apply_many(B_CODE, [SUCC_CODE, x], fuel=P.fuel),
            mirror_b(SUCC_FN, x, cert, P), Singleton(a + 1), P)


def _flatten_case(rng, a):
    x, cert = nested_chain(rng, a, rng.randrange(0, 3), rng.randrange(0, 3), P)
    return apply(D_CODE, x, fuel=P.fuel), mirror_d(x, cert, P), Singleton(a), P


def _zip_case(rng, a):
    b = rng.randrange(0, 6)
    xu, cu = chain(rng, a, rng.randrange(0, 3), P)
    xv, cv = chain(rng, b, rng.randrange(0, 3), P)
    w = coding.pair(xu, xv)
    return (apply(E_CODE, w, fuel=10 * P.fuel), mirror_e(w, cu, cv, P),
            wedge_target(Singleton(a), Singleton(b)), P)


def _lifted_case(rng, a):
    fn = rng.choice((cor_gh().any_zero, cor_gh().least_zero))
    entries, values = lifted_corpus(rng)
    # a chain one lift deep has the same value at every window point; a
    # deeper one can differ between points
    entries.append(chain(rng, a, rng.randrange(0, 3), PG))
    s = coding.encode_seq([x for x, _ in entries])
    return (apply(fn.g_code, s, fuel=20 * PG.fuel), mirror_lifted(fn, entries, PG),
            Singleton(fn.host(values + (a,))), PG)


MIRROR_CASES = {"fmap": _fmap_case, "flatten": _flatten_case, "zip": _zip_case,
                "lifted": _lifted_case}


@pytest.mark.parametrize("name", sorted(MIRROR_CASES))
@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), a=st.integers(0, 5))
def test_mirror_gives_the_machines_value_and_a_checked_certificate(name, seed, a):
    got, (out, cert), target, policy = MIRROR_CASES[name](random.Random(seed), a)
    assert got == Value(out)
    verdict = check_cert(out, target, cert, policy)
    assert isinstance(verdict, Accepted), verdict


# ---------------------------------------------------------------------------
# inputs a mirror's certificate does not cover

OMEGA_TAIL = encode_term(lam("m", ap(ap(FIX, lam("f", "y", ap(Var("f"), Var("y")))),
                                     Num(0))))
LOW = CheckPolicy(depth=6, window=3, fuel=300)


def const_lift(a, points=LOW.window_points(0)):
    """<1, K <0,<0,a>>>, its tails certified on the given points as members
    of the closure of the closure of {a}, so that flatten accepts them."""
    x = coding.pair(0, a)
    return (coding.pair(1, encode_term(App(K, Num(coding.pair(0, x))))),
            Lift(0, tuple((m, Base(x, Base(a))) for m in points)))


def fmap_succ(x, cert):
    return mirror_b(SUCC_FN, x, cert, LOW)


def flatten(x, cert):
    return mirror_d(x, cert, LOW)


def lifted(x, cert):
    return mirror_lifted(cor_gh().any_zero, [(x, cert)], LOW)


@pytest.mark.parametrize("mirror", [fmap_succ, flatten, lifted])
def test_mirrors_reject_uncovered_lift_inputs(mirror):
    x, cert = const_lift(4)
    assert mirror(x, cert)[1].threshold == 0
    if mirror is not lifted:  # lifted reads the tag itself
        for bad in (coding.pair(0, 4), 0):
            with pytest.raises(MirrorError, match="is not a 1-tagged pair"):
                mirror(bad, cert)
    x, short = const_lift(4, points=(0, 2))
    with pytest.raises(MirrorError, match="misses window point 1"):
        mirror(x, short)
    diverges = coding.pair(1, OMEGA_TAIL)
    with pytest.raises(MirrorError, match="ran out of fuel at 0"):
        mirror(diverges, cert)
    # coverage is checked before any replay
    with pytest.raises(MirrorError, match="misses window point 1"):
        mirror(diverges, short)


def test_lifted_mirror_rejects_bad_coordinates():
    x, cert = const_lift(0)
    good = (coding.pair(0, 1), Base(1))
    with pytest.raises(MirrorError, match="coordinate 1 is not a tagged pair"):
        mirror_lifted(cor_gh().any_zero, [good, (0, Base(0)), (x, cert)], LOW)
    with pytest.raises(MirrorError, match="coordinate 1 is 1-tagged but not lift-certified"):
        mirror_lifted(cor_gh().any_zero, [good, (x, Base(0))], LOW)


# ---------------------------------------------------------------------------
# disjointness


def test_probe_is_clean_at_small_budget():
    report = disjointness_probe(64, CheckPolicy(depth=3, window=2, fuel=600))
    assert report.clean, report
    assert report.inclusion_checked > 0


def test_probe_reports_structure():
    report = disjointness_probe(8, CheckPolicy(depth=2, window=2, fuel=300))
    assert report.budget == 8
    assert report.double_certified == ()
    assert report.empty_certified == ()
