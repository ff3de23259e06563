"""Limit model: chain refinement, order, standardness, transfer, assembly."""

import dataclasses
import pathlib
import random

import pytest

from jreal import cli, coding, skolem
from jreal.assemblies import TrackStatus
from jreal.formulas import parse_formula
from jreal.machine import Value, apply_cached
from jreal.quasipoly import (canon, const, enumerate_qp, ident, qp_add,
                             qp_compose, qp_mul)
from jreal.realizes import CAND_BOUND, Realized
from jreal.skolem import (
    Model,
    decode_elem_code,
    default_elements,
    elem_code,
    extend_chain,
    initial_chain,
    is_standard,
    mirror_add,
    mirror_mul,
    parse_elem,
    qp_data,
    show_chain,
    sign,
    ST_PREFIX_LEN,
    st_assembly,
    standard_split_code,
    standard_value,
    transfer_check,
    truth_qf,
)
from jreal.terms import encode_term
from support import QPEVAL, extend_unmemoized


# ---------------------------------------------------------------------------
# the chain


def test_chain_selector_strictly_increasing_and_nested():
    states = [initial_chain()]
    for _ in range(40):
        states.append(extend_chain(states[-1]))
    for prev, cur in zip(states, states[1:]):
        assert cur.psi[-1] > prev.psi[-1]
        assert cur.live.subset_of(prev.live)
        assert cur.live.infinite
    for n, s in enumerate(states):
        if n:
            assert s.live.member(s.psi[n]), f"selector leaves the set at {n}"


def test_worked_split_collapses_to_even_class():
    s = initial_chain()
    for _ in range(4):
        s = extend_chain(s)
    assert s.live.modulus == 2 and s.live.residues == frozenset({0})
    # direct audit that the surviving cell is the first infinite one: the
    # newcomer is the parity indicator, the prior distinct restrictions on
    # the live set are 0 < 1 < 2 < identity, and sampling the previous live
    # set shows the tie-with-zero cell is hit first
    prev = initial_chain()
    for _ in range(3):
        prev = extend_chain(prev)
    parity = canon(2, [(), (1,)])
    betas = [const(0), const(1), const(2), ident()]
    first_hit = None
    for x in prev.live.elements(50):
        vals = [b.value(x) for b in betas]
        v = parity.value(x)
        if v < vals[0]:
            cell = 0
        elif v in vals:
            cell = 2 * vals.index(v) + 1
        else:
            cell = 2 * sum(w < v for w in vals)
        first_hit = cell if first_hit is None else min(first_hit, cell)
    assert first_hit == 1        # tie with the zero constant
    assert sign(s, 4, 0) == "="


def test_sign_matrix_trichotomy_and_pointwise_validity():
    s = initial_chain()
    for _ in range(70):
        s = extend_chain(s)
    rng = random.Random(11)
    pairs = [(rng.randrange(31), rng.randrange(31)) for _ in range(60)]
    for i, j in pairs:
        rel = sign(s, i, j)
        assert rel in "<=>"
        assert sign(s, j, i) == {"<": ">", ">": "<", "=": "="}[rel]
        ops = {"<": int.__lt__, "=": int.__eq__, ">": int.__gt__}
        for n in range(max(i, j), 71):
            x = s.psi[n]
            assert ops[rel](s.reps[i].value(x), s.reps[j].value(x)), (i, j, n)


def test_sign_requires_extension():
    s = initial_chain()
    with pytest.raises(ValueError):
        sign(s, 0, 3)


def test_show_chain_mentions_live_set():
    assert "mod" in show_chain(initial_chain())


def _walk(step, k: int) -> list:
    states = [initial_chain()]
    while states[-1].k < k:
        states.append(step(states[-1]))
    return states


def test_step_table_matches_a_walk_without_it(monkeypatch):
    monkeypatch.setattr(skolem, "_steps", {})
    _walk(extend_chain, 160)
    want = _walk(extend_unmemoized, 200)
    assert _walk(extend_chain, 200) == want
    # the step from state k is kept under k, for every k walked
    assert sorted(skolem._steps) == list(range(200))
    for prev, cur in zip(want, want[1:]):
        assert skolem._steps[prev.k][0] == cur.live
    refined = []
    real = skolem._refine
    monkeypatch.setattr(skolem, "_refine",
                        lambda state, new: refined.append(state.k) or real(state, new))
    assert _walk(extend_chain, 160) == want[:161]
    assert refined == []


# ---------------------------------------------------------------------------
# elements, equality, standardness


def test_model_equality_merges_collapsing_representatives():
    m = Model()
    two_valued = canon(2, [(), (1,)])
    assert m.sign_qp(two_valued, const(0)) == "="
    assert m.sign_qp(two_valued, const(1)) != "="
    assert standard_value(m, two_valued) == 0


def test_order_places_unbounded_above_every_embedded():
    m = Model()
    n = ident()
    for c in (0, 5, 9, 40):
        assert m.sign_qp(const(c), n) == "<"
    assert m.sign_qp(n, qp_mul(n, n)) == "<"


def test_model_comparison_agrees_with_matrix():
    m = Model()
    m.ensure(25)
    s = m.state
    for i in range(0, 26, 3):
        for j in range(0, 26, 4):
            assert m.sign_qp(s.reps[i], s.reps[j]) == sign(s, i, j)


def test_swapped_comparison_is_the_flip():
    flip = {"<": ">", ">": "<", "=": "="}
    reps = [enumerate_qp(i) for i in range(31)]
    for f in reps:
        for g in reps:
            assert Model().sign_qp(g, f) == flip[Model().sign_qp(f, g)]


def _equal_pairs(model: Model, rng: random.Random, k: int):
    """Distinct representatives of one element: pad the off-tail class."""
    model.ensure(5)       # live set sits inside the even class from here on
    out = []
    while len(out) < k:
        base = canon(1, [tuple(rng.randrange(3) for _ in range(rng.randrange(1, 3)))])
        junk = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(1, 3)))
        padded = canon(2, [base.residues[0], junk])
        if padded.modulus == 2:
            out.append((base, padded))
    return out


def test_equal_representatives_and_apply_fn_well_defined():
    m = Model()
    rng = random.Random(23)
    fns = [qp_add(ident(), const(2)), qp_mul(ident(), ident()),
           canon(2, [(1,), (0, 3)])]
    for a, b in _equal_pairs(m, rng, 20):
        assert m.sign_qp(a, b) == "=", (a, b)
        f = rng.choice(fns)
        assert m.sign_qp(qp_compose(f, a), qp_compose(f, b)) == "="


def test_standardness_total_and_matches_boundedness_audit():
    m = Model()
    rng = random.Random(5)
    n = ident()
    seeds = [const(rng.randrange(9)) for _ in range(20)]
    seeds += [qp_add(n, const(c)) for c in range(6)]
    seeds += [qp_mul(n, n), qp_add(qp_mul(n, n), n), qp_mul(const(3), n)]
    seeds += [canon(2, [(c,), (d,)]) for c, d in [(0, 1), (2, 2), (1, 4)]]
    seeds += [canon(2, [(0, 1), (3,)]), canon(3, [(1,), (1,), (0, 0, 1)])]
    while len(seeds) < 50:
        seeds.append(qp_add(rng.choice(seeds), rng.choice(seeds)))
    for q in seeds[:50]:
        verdict = is_standard(m, q)        # total: never raises
        m.ensure(m.state.k + 12)
        tail = [q.value(x) for x in m.state.psi[-10:]]
        if verdict:
            assert len(set(tail)) == 1
            assert tail[0] == standard_value(m, q)
        else:
            assert tail[-1] > tail[0], q   # keeps growing along the tail


def test_mixed_class_standardness_follows_the_surviving_class():
    m = Model()
    # unbounded on odds, constant on evens: the tail is even, so standard
    e = canon(2, [(7,), (0, 5)])
    assert standard_value(m, e) == 7


# ---------------------------------------------------------------------------
# quantifier-free truth and transfer


def test_truth_qf_battery():
    m = Model()
    n = ident()
    cases = [
        ("x < x + S 0", {"x": n}, True),
        ("x + y = y + x", {"x": n, "y": const(3)}, True),
        ("x * x < x + 9", {"x": const(2)}, True),
        ("x * x < x + 9", {"x": n}, False),
        ("x < y \\/ y < x \\/ x = y", {"x": n, "y": const(7)}, True),
        ("x = 0 -> x < S 0", {"x": n}, True),
        ("S x * S x = x * x + x + x + S 0", {"x": n}, True),
    ]
    for text, asn, want in cases:
        assert truth_qf(m, parse_formula(text), asn) is want, text


def test_truth_qf_rejects_quantifiers_and_relations():
    m = Model()
    with pytest.raises(ValueError):
        truth_qf(m, parse_formula("forall z . z = z"), {})
    with pytest.raises(ValueError):
        truth_qf(m, parse_formula("P(x)"), {"x": const(0)})
    with pytest.raises(ValueError):
        truth_qf(m, parse_formula("x = 0"), {})


def test_congruence_equal_elements_indistinguishable():
    m = Model()
    rng = random.Random(91)
    formulas = [parse_formula(t) for t in (
        "x < 9", "x = 4", "3 < x", "x * x < x + 20", "x + x = x * 2")]
    for a, b in _equal_pairs(m, rng, 10):
        for phi in formulas:
            assert truth_qf(m, phi, {"x": a}) == truth_qf(m, phi, {"x": b})


def test_transfer_exact_on_quantifier_free():
    m = Model()
    n = ident()
    corpus = [
        ("x + y = y + x", {"x": n, "y": const(4)}),
        ("x < x * x", {"x": n}),
        ("x < 7 \\/ 6 < x", {"x": n}),
        ("x = 2 -> x < 3", {"x": const(2)}),
        ("x * x + 1 = x -> 0 = S 0", {"x": const(3)}),
    ]
    for text, asn in corpus:
        rep = transfer_check(m, parse_formula(text), asn, 24)
        assert rep.mode == "exact"
        assert rep.consistent, (text, rep.disagreements)
        if all(standard_value(m, e) is not None for e in asn.values()):
            assert rep.standard_truth == rep.limit_truth


def test_transfer_quantified_is_sampled_only():
    m = Model()
    rep = transfer_check(m, parse_formula("exists z < 6 . x < z"), {"x": const(2)},
                         24)
    assert rep.mode == "sampled"
    assert rep.limit_truth is None
    assert any("sampled" in c for c in rep.caveats)
    assert rep.consistent


TRANSFER = pathlib.Path(__file__).resolve().parent.parent / "corpus" / "transfer"


def _shipped_case(name: str):
    fields = dict(line.split(": ", 1)
                  for line in (TRANSFER / f"{name}.case").read_text().splitlines())
    pieces = fields["args"].split("|") if "args" in fields else ()
    asn = {v.strip(): parse_elem(text) for v, text in
           (piece.split("=", 1) for piece in pieces)}
    return parse_formula(fields["formula"]), asn


def _window_calls(monkeypatch) -> list[dict]:
    """The assignments at which the standard formula runs over the selector
    window, recorded by wrapping the compiled formula."""
    calls: list[dict] = []
    real = skolem._at_selector

    def counted(model, holds, asn, window):
        def wrapped(env):
            calls.append(dict(env))
            return holds(env)
        return real(model, wrapped, asn, window)
    monkeypatch.setattr(skolem, "_at_selector", counted)
    return calls


# closed sentences and a standard constant take one value tuple at all 24
# points; x = n takes 24
@pytest.mark.parametrize("name, runs", [("quant_pair", 1), ("quant_succ", 1),
                                        ("qf_const", 1), ("qf_square", 24)])
def test_transfer_runs_the_formula_once_per_value_tuple(name, runs, monkeypatch):
    phi, asn = _shipped_case(name)
    calls = _window_calls(monkeypatch)
    rep = transfer_check(Model(), phi, asn, 24)
    assert rep.consistent
    assert len(calls) == runs


def test_transfer_reports_flips_of_a_sampled_verdict(monkeypatch):
    # 5 < x < 20 holds at the selector values 6 .. 18, indices 5 .. 11 of a
    # fresh model's window; y's value is the same at every point
    calls = _window_calls(monkeypatch)
    rep = transfer_check(Model(), parse_formula("exists z < 20 . y < x /\\ x < z"),
                         {"x": ident(), "y": const(5)}, 24)
    assert rep.mode == "sampled"
    assert rep.disagreements == ("sampled verdict flips at selector indices [5, 12]",)
    assert len(calls) == 24 and all(env["y"] == 5 for env in calls)


def _flip_limit_order(monkeypatch):
    """A mutant limit structure that reads x < y as y < x."""
    real = skolem.limit_structure

    def flipped(model):
        s = real(model)
        return dataclasses.replace(s, lt=lambda f, g: s.lt(g, f))
    monkeypatch.setattr(skolem, "limit_structure", flipped)


@pytest.mark.parametrize("name", ["qf_square", "qf_mixed"])
def test_transfer_catches_a_flipped_limit_order(name, monkeypatch):
    phi, asn = _shipped_case(name)
    assert transfer_check(Model(), phi, asn, 24).consistent
    _flip_limit_order(monkeypatch)
    rep = transfer_check(Model(), phi, asn, 24)
    assert rep.mode == "exact" and not rep.consistent


def test_transfer_command_fails_on_a_flipped_limit_order(monkeypatch, capsys):
    _flip_limit_order(monkeypatch)
    assert cli.main(["skolem", "transfer", "--corpus", str(TRANSFER)]) == 1
    assert "Disagrees" in capsys.readouterr().out


def test_transfer_requires_assignment():
    with pytest.raises(ValueError):
        transfer_check(Model(), parse_formula("x = 0"), {}, 24)


# ---------------------------------------------------------------------------
# the induced assembly


@pytest.fixture(scope="module")
def built():
    model = Model()
    return model, st_assembly(model)


def test_assembly_tracks_arithmetic(built):
    _, ma = built
    names = [name for name, _ in ma.morphism_reports]
    assert names == ["succ", "add", "mul", "iota"]
    for name, rep in ma.morphism_reports:
        assert rep.status is TrackStatus.VERIFIED, (name, rep.note)
        assert rep.checked > 0


def test_assembly_standard_subobject(built):
    model, ma = built
    assert ma.standard_report.status is TrackStatus.VERIFIED
    assert len(ma.standard_points) == 10
    assert all(is_standard(model, e) for e in ma.standard_points)


def test_standardness_split_realized(built):
    # the right disjunct's implication, read as the universal's target,
    # tries antecedent realizers below CAND_BOUND, and says so; no other
    # caveat, since the carrier is finite
    _, ma = built
    assert ma.split_verdict == Realized(
        "universal map lands for 21 realizers",
        (f"antecedent realizers sampled below {CAND_BOUND}",))


def test_realizer_descriptions_replay_on_the_prefix(built):
    model, ma = built
    qpeval = encode_term(QPEVAL)
    psi = model.state.psi
    for e in ma.assembly.points[:6] + ma.assembly.points[-2:]:
        code = elem_code(e, coding.encode_seq(psi[:ST_PREFIX_LEN]))
        data, _ = coding.unpair(code)
        staged = apply_cached(qpeval, data, 200_000)
        assert isinstance(staged, Value)
        for k in range(5):
            got = apply_cached(staged.value, psi[k], 400_000)
            assert isinstance(got, Value)
            assert got.value == e.value(psi[k]), (e, k)


def test_variant_descriptions_denote_their_element(built):
    model, ma = built
    from jreal.jsets import Finite
    for e in ma.assembly.points:
        S = ma.assembly.realizer_set(e)
        assert isinstance(S, Finite)
        for code in S.elems:
            m_, rows, prefix = decode_elem_code(code)
            rebuilt = canon(m_, rows)
            assert model.sign_qp(rebuilt, e) == "="
            assert len(prefix) == ST_PREFIX_LEN


def test_split_code_branches_on_modulus():
    split = standard_split_code(0)
    code = elem_code(canon(2, [(1,), (0, 2)]), coding.encode_seq([0, 1]))
    got = apply_cached(split, code, 200_000)
    assert isinstance(got, Value)
    parts = coding.decode_seq(got.value)
    assert parts[0] == 0                       # closure base evidence
    assert coding.decode_seq(parts[1])[0] == 1  # right branch: not embedded
    code = elem_code(const(3), coding.encode_seq([0, 1]))
    got = apply_cached(split, code, 200_000)
    parts = coding.decode_seq(got.value)
    inner = coding.decode_seq(parts[1])
    assert inner[0] == 0 and inner[1] == code  # left branch returns the input


def test_mirrors_cover_lifted_moduli():
    d1 = qp_data(canon(2, [(1,), (0, 2)]))
    d2 = qp_data(const(4))
    m_, rows, _ = decode_elem_code(coding.pair(mirror_add(d1, d2), 0))
    assert m_ == 2 and rows == ((5,), (4, 2))
    m_, rows, _ = decode_elem_code(coding.pair(mirror_mul(d1, d2), 0))
    assert m_ == 2 and rows == ((4,), (0, 8))


def test_default_elements_shape():
    elems = default_elements()
    assert len(elems) == 20
    model = Model()
    assert sum(is_standard(model, e) for e in elems) == 10


def test_parse_elem():
    model = Model()
    assert model.sign_qp(parse_elem("7"), const(7)) == "="
    assert parse_elem("mod 1: 0 -> n") == ident()
    with pytest.raises(ValueError):
        parse_elem("-3")
