"""Quasi-polynomial family: arithmetic, comparison, enumeration, sets."""

import pytest
from hypothesis import given, settings, strategies as st

from jreal.quasipoly import (
    FULL_SET,
    DefinableSet,
    MAX_POWER,
    QuasiPoly,
    canon,
    canon_set,
    compare_on_class,
    const,
    enumerate_qp,
    ident,
    index_of,
    of_weight,
    parse_qp,
    qp_add,
    qp_mul,
    show_qp,
)
from jreal.text import InputError
from support import (least_above_by_scan, lift_by_scan, qp_compose,
                     reduce_by_scan, subset_by_scan)

polys = st.lists(st.integers(0, 4), max_size=3).map(
    lambda cs: tuple(cs[:len(cs) - next(
        (i for i, c in enumerate(reversed(cs)) if c), len(cs))]))


@st.composite
def quasipolys(draw):
    m = draw(st.integers(1, 4))
    return canon(m, [draw(polys) for _ in range(m)])


# ---------------------------------------------------------------------------
# arithmetic


@given(quasipolys(), quasipolys(), st.integers(0, 40))
def test_add_mul_pointwise(f, g, n):
    assert qp_add(f, g).value(n) == f.value(n) + g.value(n)
    assert qp_mul(f, g).value(n) == f.value(n) * g.value(n)


@given(quasipolys(), quasipolys(), st.integers(0, 40))
@settings(max_examples=60)
def test_compose_pointwise(f, g, n):
    assert qp_compose(f, g).value(n) == f.value(g.value(n))


@given(quasipolys())
def test_canon_idempotent_and_minimal(f):
    assert canon(f.modulus, f.residues) == f
    # no proper divisor reproduces the same residue pattern
    for d in range(1, f.modulus):
        if f.modulus % d == 0:
            assert any(f.residues[r] != f.residues[r % d]
                       for r in range(f.modulus))


def test_constant_collapse():
    assert canon(6, [(5,)] * 6) == const(5)
    assert canon(3, [(), (), ()]) == const(0)
    assert const(0).residues == ((),)


# ---------------------------------------------------------------------------
# eventual comparison


@given(quasipolys(), quasipolys(), st.integers(1, 3), st.data())
@settings(max_examples=80)
def test_comparison_settles_past_threshold(f, g, mult, data):
    modulus = f.modulus * g.modulus * mult
    r = data.draw(st.integers(0, modulus - 1))
    rel, t = compare_on_class(f, g, modulus, r)
    ops = {"<": int.__lt__, "=": int.__eq__, ">": int.__gt__}
    first = t + (r - t) % modulus
    for n in range(first, first + 6 * modulus, modulus):
        assert ops[rel](f.value(n), g.value(n)), (show_qp(f), show_qp(g), n)


@given(quasipolys(), quasipolys(), st.data())
@settings(max_examples=80)
def test_comparison_threshold_minimal(f, g, data):
    modulus = f.modulus * g.modulus
    r = data.draw(st.integers(0, modulus - 1))
    rel, t = compare_on_class(f, g, modulus, r)
    if t == 0:
        return
    last = t - 1 - (t - 1 - r) % modulus
    if last < 0:
        return
    ops = {"<": int.__lt__, "=": int.__eq__, ">": int.__gt__}
    assert not ops[rel](f.value(last), g.value(last))


def test_comparison_requires_refining_modulus():
    two = canon(2, [(1,), ()])
    with pytest.raises(ValueError):
        compare_on_class(two, const(0), 3, 1)


# ---------------------------------------------------------------------------
# graded enumeration


def test_enumeration_starts_at_zero_constant():
    assert enumerate_qp(0) == const(0)
    assert enumerate_qp(1) == const(1)


def test_two_valued_indicator_index_pinned():
    m2 = canon(2, [(), (1,)])
    assert index_of(m2) == 4
    assert enumerate_qp(4) == m2


def test_enumeration_unique_and_canonical_to_grade_four():
    seen = {}
    rank = 0
    for w in range(1, 5):
        block = of_weight(w)
        assert list(block) == sorted(
            block, key=lambda q: (q.modulus, q.degree, q.coeff_sum, q.residues))
        for q in block:
            assert q.weight == w
            assert canon(q.modulus, q.residues) == q
            assert q not in seen, f"{show_qp(q)} repeats"
            seen[q] = rank
            rank += 1
    for q, i in seen.items():
        assert enumerate_qp(i) == q
        assert index_of(q) == i


def test_enumeration_covers_small_family():
    listed = set()
    for w in range(1, 6):
        listed.update(of_weight(w))
    for m in (1, 2):
        for cs in ((), (1,), (2,), (0, 1)):
            for cs2 in ((), (1,)):
                q = canon(m, [cs, cs2][:m])
                if q.weight <= 5:
                    assert q in listed, show_qp(q)


# ---------------------------------------------------------------------------
# definable sets


def test_definable_set_membership_and_scan():
    s = DefinableSet(6, frozenset({1, 4}), 10)
    want = [n for n in range(10, 60) if n % 6 in (1, 4)]
    assert [n for n in range(10, 60) if s.member(n)] == want
    assert s.least_above(0) == 10
    assert s.least_above(13) == 16
    assert s.elements(4) == (10, 13, 16, 19)
    assert s.infinite
    assert not DefinableSet(6, frozenset(), 0).infinite


@given(st.integers(1, 6), st.integers(1, 6), st.data())
@settings(max_examples=120)
def test_subset_matches_brute_force(m1, m2, data):
    r1 = frozenset(data.draw(st.sets(st.integers(0, m1 - 1), max_size=m1)))
    r2 = frozenset(data.draw(st.sets(st.integers(0, m2 - 1), max_size=m2)))
    t1 = data.draw(st.integers(0, 12))
    t2 = data.draw(st.integers(0, 12))
    a = DefinableSet(m1, r1, t1)
    b = DefinableSet(m2, r2, t2)
    brute = all(b.member(n) for n in range(200) if a.member(n))
    assert a.subset_of(b) == brute


@st.composite
def residue_sets(draw):
    """A modulus and a set of its residues, often a union of the classes of
    a proper divisor, sometimes with one residue flipped."""
    m = draw(st.integers(1, 48))
    d = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    base = draw(st.sets(st.integers(0, d - 1), max_size=d))
    rs = {r for r in range(m) if r % d in base}
    if draw(st.booleans()):
        rs ^= {draw(st.integers(0, m - 1))}
    return m, frozenset(rs)


@given(residue_sets(), residue_sets(), st.integers(0, 60), st.integers(0, 60),
       st.integers(1, 4), st.integers(-1, 150))
@settings(max_examples=300)
def test_set_readings_match_the_modulus_scans(a, b, t1, t2, mult, x):
    (m1, r1), (m2, r2) = a, b
    s1, s2 = DefinableSet(m1, r1, t1), DefinableSet(m2, r2, t2)
    assert canon_set(m1, r1, t1) == reduce_by_scan(s1)
    assert s1.lift(mult * m1) == lift_by_scan(s1, mult * m1)
    assert s1.subset_of(s2) == subset_by_scan(s1, s2)
    if r1:
        assert s1.least_above(x) == least_above_by_scan(s1, x)


def test_empty_set_has_no_least_element():
    with pytest.raises(ValueError):
        DefinableSet(3, frozenset(), 0).least_above(5)


def test_full_set_constant():
    assert FULL_SET.member(0) and FULL_SET.member(10 ** 9)


# ---------------------------------------------------------------------------
# text format


@given(quasipolys())
def test_text_roundtrip(f):
    assert parse_qp(show_qp(f)) == f


def test_parse_normalizes():
    assert parse_qp("mod 2: 0 -> 3; 1 -> 3") == const(3)
    assert parse_qp("mod 1: 0 -> n + n") == canon(1, [(0, 2)])
    assert parse_qp("mod 1: 0 -> 2 n^2 + 1") == canon(1, [(1, 0, 2)])
    assert parse_qp(f"mod 1: 0 -> n^{MAX_POWER}").degree == MAX_POWER


@pytest.mark.parametrize("bad", [
    "1: 0 -> n",
    "mod x: 0 -> 1",
    "mod 2: 0 -> 1",
    "mod 2: 0 -> 1; 2 -> 0",
    "mod 1: 0 -> q",
    "mod 1: 0 => 1",
    "mod 0:",
    "mod 1: 0 -> -3",
    "mod 1: 0 -> 1 + -2 n",
    "mod 1: 0 -> n^-1",
    "mod 1: 0 -> n^65",
    "mod 3: 0 -> 1; 2 -> 1",
])
def test_parse_rejects(bad):
    with pytest.raises(InputError):
        parse_qp(bad)


def test_weight_components():
    q = canon(2, [(1,), (0, 2)])
    assert (q.modulus, q.degree, q.coeff_sum, q.weight) == (2, 1, 3, 6)
    assert ident().degree == 1 and ident().bounded is False
    assert const(9).bounded
