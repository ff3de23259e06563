"""Finite doctrine laws, the least closed operator, and the table formats."""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import support
from jreal import doctrine
from jreal.doctrine import (
    Doctrine,
    MonoOp,
    arrow,
    candidate_ops,
    derive_e4,
    lfp_by_intersection,
    lfp_local,
    lift_caveats,
    local_laws,
    make_doctrine,
    mono_op,
    parse_doctrine,
    pitts_f_finite,
    preorder_witness,
    random_doctrine,
    shipped_d4,
    shipped_d8,
    show_doctrine,
    uniformity_finite,
    wedge,
)
from jreal.text import InputError


def tiny():
    return make_doctrine(
        2,
        {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
        {(0, 0): 0, (0, 1): 1},
    )


def test_table_validation():
    with pytest.raises(ValueError, match="out of range"):
        make_doctrine(2, {(0, 3): 0}, {})
    with pytest.raises(ValueError, match="not injective"):
        make_doctrine(2, {}, {(0, 0): 0, (0, 1): 0})
    with pytest.raises(ValueError, match="carrier size"):
        make_doctrine(0, {}, {})


def test_arrow_and_wedge_by_hand():
    d = tiny()
    # row 0 is the identity, row 1 swaps
    assert arrow(d, 0b11, 0b11) == 0b11
    assert arrow(d, 0b01, 0b01) == 0b01
    assert arrow(d, 0b01, 0b10) == 0b10
    assert arrow(d, 0b00, 0b00) == 0b11  # empty domain: every row qualifies
    assert wedge(d, 0b01, 0b11) == 0b11
    assert wedge(d, 0b10, 0b11) == 0b00  # no pairs rooted at 1


def partial_doctrine(rng: Random, size: int):
    """Undefined app cells anywhere, and pair cells outside row 0."""
    app = {(e, x): rng.randrange(size)
           for e in range(size) for x in range(size) if rng.random() < 0.7}
    cells = [(x, y) for x in range(size) for y in range(size)
             if rng.random() < 0.4]
    codes = rng.sample(range(size), min(size, len(cells)))
    return make_doctrine(size, app, dict(zip(rng.sample(cells, len(codes)),
                                             codes)))


def brute_arrow(d, A, B):
    out = 0
    for e in range(d.size):
        images = [d.app_at(e, a) for a in range(d.size) if A >> a & 1]
        if all(v is not None and B >> v & 1 for v in images):
            out |= 1 << e
    return out


def brute_wedge(d, A, B):
    out = 0
    for a in range(d.size):
        for b in range(d.size):
            p = d.pair_at(a, b)
            if A >> a & 1 and B >> b & 1 and p is not None:
                out |= 1 << p
    return out


def test_arrow_and_wedge_match_brute_force():
    undefined_apps = pairs_off_row_0 = 0
    for seed in range(30):
        d = partial_doctrine(Random(seed), 1 + seed % 5)
        undefined_apps += d.app.count(-1)
        pairs_off_row_0 += sum(v >= 0 for v in d.pair[d.size:])
        for A in range(1 << d.size):
            for B in range(1 << d.size):
                assert arrow(d, A, B) == brute_arrow(d, A, B), (seed, A, B)
                assert wedge(d, A, B) == brute_wedge(d, A, B), (seed, A, B)
    assert undefined_apps and pairs_off_row_0


def test_mono_op_rejects_non_monotone():
    with pytest.raises(ValueError, match="not monotone"):
        mono_op(2, (0b11, 0b01, 0b00, 0b11))
    op = mono_op(1, (0b0, 0b1))
    assert op[1] == 1


def test_lfp_matches_intersection_formula_on_shipped():
    for d in (shipped_d4(), shipped_d8()):
        j = lfp_local(d, pitts_f_finite(d))
        for a_mask in range(1 << d.size):
            assert j[a_mask] == lfp_by_intersection(d, pitts_f_finite(d), a_mask)


def test_lfp_is_idempotent_and_above_seed():
    for seed in range(6):
        d = random_doctrine(Random(seed), 4)
        j = lfp_local(d, pitts_f_finite(d))
        for a_mask in range(16):
            assert j[j[a_mask]] == j[a_mask]
            assert j[a_mask] & ~j[a_mask] == 0
            # the bottom stage is already inside the closure
            assert wedge(d, 0b1, a_mask) & ~j[a_mask] == 0


def test_lfp_requires_bottom_pairing():
    d = make_doctrine(2, {(0, 0): 0, (0, 1): 1}, {(0, 0): 0})
    with pytest.raises(InputError, match="pair\\(0,1\\)"):
        lfp_local(d, tuple(range(4)))  # the identity operator


def test_lift_rule_reach_is_reported():
    for d in (shipped_d4(), shipped_d8(), tiny()):
        assert lift_caveats(d) == (
            "lift rule unreachable: pair(1, b) is undefined for every b",)
    lifts = make_doctrine(2, {}, {(0, 0): 0, (1, 0): 1})
    assert lift_caveats(lifts) == ()


def test_pitts_f_hand_value():
    # domain scans per threshold on the 4-point doctrine, unioned
    f = pitts_f_finite(shipped_d4())
    assert f[0b0001] == 0b0110


def test_local_laws_on_shipped():
    for d in (shipped_d4(), shipped_d8()):
        j = lfp_local(d, pitts_f_finite(d))
        report = local_laws(d, j)
        assert report.operator_is_local
        assert report.e1 == 0
        assert report.e2 == 0
        assert report.e3 == 0
        assert report.e4 is not None
        assert report.e4_derived is not None
        assert report.e4_derived == report.e4
        assert report.e4_derivation_note == "derived and verified"


# the doubled rows against arrow and wedge one set pair at a time; a
# partial doctrine has rows undefined on some sets, which no arrow row may
# let land
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 6), st.booleans())
def test_doubled_rows_match_arrow_and_wedge(seed, size, partial):
    rng = Random(seed)
    d = partial_doctrine(rng, size) if partial else random_doctrine(rng, size)
    sets = range(1 << size)
    for A in sets:
        assert doctrine._arrow_row(d, A) == [arrow(d, A, B) for B in sets]
    for B in sets:
        assert doctrine._wedge_row(d, B) == [wedge(d, A, B) for A in sets]


# the arrow rows and the reduced fold against the arrow-by-arrow oracle in
# tests/support.py, on doctrines with undefined cells and pairs off row 0,
# for F, its least closed operator J and every candidate operator
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 6), st.booleans())
def test_local_laws_match_the_arrow_by_arrow_oracle(seed, size, partial):
    rng = Random(seed)
    d = partial_doctrine(rng, size) if partial else random_doctrine(rng, size)
    f = pitts_f_finite(d)
    ops = [f] + [op for _, op in candidate_ops(d)]
    try:
        ops.append(lfp_local(d, f))
    except InputError:  # a partial pairing without the seed stage has no J
        pass
    for op in ops:
        assert local_laws(d, op) == support.local_laws(d, op), op


def test_local_laws_make_one_arrow_call_per_source_set(monkeypatch):
    calls = []

    def counted(d, A, B):
        calls.append(A)
        return arrow(d, A, B)

    d = shipped_d8()
    j = lfp_local(d, pitts_f_finite(d))
    monkeypatch.setattr(doctrine, "arrow", counted)
    assert local_laws(d, j).operator_is_local
    # four law folds of at most 2^N source sets each; a call per pair is 262,656
    assert 0 < len(calls) <= 4 << d.size


def test_e1_witness_verifies_directly():
    d = shipped_d4()
    j = lfp_local(d, pitts_f_finite(d))
    w = local_laws(d, j).e1
    for a_mask in range(16):
        for b_mask in range(16):
            lhs = arrow(d, a_mask, b_mask)
            rhs = arrow(d, j[a_mask], j[b_mask])
            for f in range(4):
                if lhs >> f & 1:
                    out = d.app_at(w, f)
                    assert out is not None and rhs >> out & 1


def test_e4_derivation_needs_ingredients():
    d = shipped_d4()
    got, note = derive_e4(d, None, 0, d.full)
    assert got is None and "missing ingredient" in note


def test_random_doctrines_are_lawful():
    for seed in range(10):
        d = random_doctrine(Random(seed), 5)
        f = pitts_f_finite(d)
        j = lfp_local(d, f)
        for a_mask in range(1 << d.size):
            assert j[a_mask] == lfp_by_intersection(d, f, a_mask)
        report = local_laws(d, j)
        assert report.operator_is_local
        assert report.e4_derived is not None


def test_lfp_is_least_among_local_candidates():
    d = shipped_d4()
    j = lfp_local(d, pitts_f_finite(d))
    locals_found = 0
    for _, op in candidate_ops(d):
        if local_laws(d, op).operator_is_local:
            locals_found += 1
            assert preorder_witness(d, j, op) is not None
    assert locals_found >= 2


def test_uniformity_on_shipped_d8():
    d = shipped_d8()
    j = lfp_local(d, pitts_f_finite(d))
    report = uniformity_finite(d, j)
    assert report.verified
    assert report.checked == 256
    assert report.failures == ()


def test_doctrine_format_roundtrip():
    for d in (tiny(), shipped_d4()):
        assert parse_doctrine(show_doctrine(d)) == d
    text = "# comment\ndoctrine 2\napp 0 0 = 0\npair 0 0 = 0\npair 0 1 = 1\n"
    d = parse_doctrine(text)
    assert d.app_at(0, 0) == 0 and d.app_at(1, 1) is None


def test_doctrine_format_errors():
    with pytest.raises(InputError, match="expected 'doctrine'"):
        parse_doctrine("app 0 0 = 0\n")
    with pytest.raises(InputError, match="expected '='"):
        parse_doctrine("doctrine 2\napp 0 0 0\n")
    with pytest.raises(InputError, match="unknown table"):
        parse_doctrine("doctrine 2\nfrob 0 0 = 0\n")
    with pytest.raises(InputError, match="not injective"):
        parse_doctrine("doctrine 2\npair 0 0 = 0\npair 0 1 = 0\n")
