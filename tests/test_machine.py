"""Fueled evaluator: contraction rules, unquoting, fuel discipline."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from jreal import machine, prog, terms
from jreal.coding import decode_seq, encode_seq, phi_join
from jreal.machine import (
    DEFAULT_FUEL,
    Machine,
    NotClosedAtRuntime,
    OutOfFuel,
    Value,
    apply,
    apply_many,
    eval_term,
    eval_to_nat,
)
from jreal.terms import (
    CONS,
    FIX,
    IFZ,
    K,
    LEN,
    NIL,
    Num,
    PRED,
    PROJ,
    S,
    SUCC,
    App,
    Var,
    ap,
    decode_term,
    encode_term,
)
from jreal.bracket import lam
from support import POLYEVAL, QPEVAL, ReferenceMachine

OMEGA = ap(FIX, lam("f", "x", ap(Var("f"), Var("x"))))  # diverges on anything


def test_partial_application_reifies_and_resumes():
    r1 = apply(encode_term(K), 3, DEFAULT_FUEL)
    assert isinstance(r1, Value)
    assert apply(r1.value, 8, DEFAULT_FUEL) == Value(3)
    assert apply_many(encode_term(K), [3, 8], DEFAULT_FUEL) == Value(3)


def test_skk_is_identity():
    skk = encode_term(ap(S, K, K))
    for n in [0, 1, 7, 1000]:
        assert apply(skk, n, DEFAULT_FUEL) == Value(n)


def test_numeral_in_head_position_unquotes():
    skk_code = encode_term(ap(S, K, K))
    quoted = encode_term(Num(skk_code))
    assert apply(quoted, 5, DEFAULT_FUEL) == Value(5)


def test_arith_prims():
    assert eval_to_nat(ap(SUCC, Num(4)), DEFAULT_FUEL) == Value(5)
    assert eval_to_nat(ap(PRED, Num(4)), DEFAULT_FUEL) == Value(3)
    assert eval_to_nat(ap(PRED, Num(0)), DEFAULT_FUEL) == Value(0)
    assert eval_to_nat(ap(IFZ, Num(0), Num(7), Num(8)), DEFAULT_FUEL) == Value(7)
    assert eval_to_nat(ap(IFZ, Num(2), Num(7), Num(8)), DEFAULT_FUEL) == Value(8)


def test_sequence_prims():
    s = encode_seq([4, 5, 6])
    assert eval_to_nat(ap(LEN, Num(s)), DEFAULT_FUEL) == Value(3)
    assert eval_to_nat(ap(PROJ, Num(s), Num(1)), DEFAULT_FUEL) == Value(5)
    assert eval_to_nat(ap(PROJ, Num(s), Num(9)), DEFAULT_FUEL) == Value(0)
    got = eval_to_nat(ap(CONS, Num(9), Num(s)), DEFAULT_FUEL)
    assert isinstance(got, Value) and decode_seq(got.value) == (9, 4, 5, 6)
    assert eval_to_nat(NIL, DEFAULT_FUEL) == Value(0)


def test_divergence_is_out_of_fuel():
    got = eval_to_nat(ap(OMEGA, Num(0)), fuel=500)
    assert isinstance(got, OutOfFuel)
    assert got.steps == 500


def test_fuel_monotone_on_random_codes():
    rng = random.Random(11)
    for _ in range(300):
        e = rng.randrange(0, 4000)
        n = rng.randrange(0, 60)
        lo = apply(e, n, fuel=150)
        hi = apply(e, n, fuel=300)
        if isinstance(lo, Value):
            assert hi == lo


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**7), st.integers(min_value=0, max_value=40))
def test_every_code_is_applicable(e, n):
    # no stuck states: any result is a Value or OutOfFuel
    got = apply(e, n, fuel=300)
    assert isinstance(got, (Value, OutOfFuel))


def test_add_mul_monus():
    for x, y in [(0, 0), (3, 4), (7, 2), (2, 7), (6, 6)]:
        assert eval_to_nat(ap(prog.ADD, Num(x), Num(y)), 10**5) == Value(x + y)
        assert eval_to_nat(ap(prog.MUL, Num(x), Num(y)), 10**6) == Value(x * y)
        assert eval_to_nat(ap(prog.MONUS, Num(x), Num(y)), 10**5) == Value(max(x - y, 0))


def test_comparisons():
    for x, y in [(0, 0), (3, 4), (4, 3), (5, 5)]:
        assert eval_to_nat(ap(prog.EQ01, Num(x), Num(y)), 10**5) == Value(0 if x == y else 1)
        assert eval_to_nat(ap(prog.LT01, Num(x), Num(y)), 10**5) == Value(0 if x < y else 1)


def test_mod():
    for x, k in [(0, 3), (17, 5), (12, 4), (3, 7)]:
        assert eval_to_nat(ap(prog.MOD, Num(x), Num(k)), 10**6) == Value(x % k)


def test_sequence_programs():
    s = encode_seq([4, 5, 6])
    got = eval_to_nat(ap(prog.SUFFIX, Num(s), Num(1)), 10**6)
    assert isinstance(got, Value) and decode_seq(got.value) == (5, 6)
    got = eval_to_nat(ap(POLYEVAL, Num(encode_seq([1, 2, 3])), Num(4)), 10**6)
    assert got == Value(1 + 2 * 4 + 3 * 16)


def test_quasi_polynomial_evaluation():
    # modulus 2: even n -> 1 + 2n, odd n -> n^2
    data = encode_seq([2, encode_seq([encode_seq([1, 2]), encode_seq([0, 0, 1])])])
    for n in range(6):
        want = 1 + 2 * n if n % 2 == 0 else n * n
        assert eval_to_nat(ap(QPEVAL, Num(data), Num(n)), 10**6) == Value(want)


def test_steps_are_reported():
    _, steps = eval_term(ap(SUCC, Num(0)), fuel=10)
    assert steps == 1
    _, steps = eval_term(Num(5), fuel=10)
    assert steps == 0


def test_apply_handles_codes_nested_past_the_recursion_limit():
    # K (K (... 0)) nested 1,500 deep: a 42,786-bit code.  Applying it drops
    # one K; compare codes, and never print one (4,300-digit limit).
    codes = [phi_join([], 10)]
    for _ in range(1_500):
        codes.append(phi_join([codes[-1]], 0))
    assert codes[-1].bit_length() == 42_786
    assert apply(codes[-1], 3, 100) == Value(codes[-2])


@pytest.mark.parametrize("code", [631, 2467, 3027])
def test_coerced_values_are_coded_once_per_shared_node(code, monkeypatch):
    # these build a value that doubles a shared subterm per round and coerce
    # it to a number; coded as a tree, fuel 250 took 98,221 phi_join calls
    calls = 0
    join = terms.phi_join

    def counted(blocks, tail):
        nonlocal calls
        calls += 1
        return join(blocks, tail)

    monkeypatch.setattr(terms, "phi_join", counted)
    assert apply(code, 35, 250) == OutOfFuel(steps=250)
    assert calls <= 100


# ---------------------------------------------------------------------------
# the machine against the reference loop in tests/support.py


def _run(machine, t, fuel):
    """(kind, value term or variable name, steps) of one run."""
    m = machine(fuel)
    try:
        out = m.eval(t)
    except NotClosedAtRuntime as exc:
        return "open", str(exc), m.steps
    if out is None:
        return "fuel", None, m.steps
    return "value", out, m.steps


def _same_as_reference(t, fuel):
    got = _run(Machine, t, fuel)
    assert got == _run(ReferenceMachine, t, fuel)
    if got[0] == "fuel":
        assert got[2] == fuel
    return got


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=2**16 - 1),
       st.integers(min_value=0, max_value=63),
       st.integers(min_value=0, max_value=400))
def test_machine_matches_reference_on_codes(e, n, fuel):
    _same_as_reference(App(decode_term(e), Num(n)), fuel)


I = ap(S, K, K)

FIXED_CASES = {
    "nil": NIL,
    "nil argument": ap(SUCC, NIL),
    "numeral unquote": ap(Num(encode_term(I)), Num(5)),
    "unquote to a partial application": ap(Num(encode_term(S)), K, K, Num(4)),
    "open after a contraction": ap(K, ap(SUCC, Num(0)), Var("x")),
    "open argument": ap(K, Var("y")),
    "S after S": ap(I, ap(I, Num(3))),
    "fix after succ": ap(FIX, K, ap(SUCC, Num(0))),
    "ifz": ap(IFZ, ap(PRED, Num(1)), ap(K, Num(7)), Num(8)),
    "sequences": ap(PROJ, ap(CONS, Num(9), NIL), ap(LEN, Num(encode_seq([2])))),
    "divergence": ap(OMEGA, Num(0)),
}


@pytest.mark.parametrize("name", FIXED_CASES)
def test_machine_matches_reference_at_every_fuel(name):
    t = FIXED_CASES[name]
    for fuel in range(40):
        _same_as_reference(t, fuel)


def test_fixed_cases_end_where_they_should():
    assert _same_as_reference(NIL, 1) == ("value", Num(0), 1)
    assert _same_as_reference(NIL, 0) == ("fuel", None, 0)
    assert _same_as_reference(FIXED_CASES["numeral unquote"], 9) == (
        "value", Num(5), 3)
    assert _same_as_reference(FIXED_CASES["open after a contraction"], 9) == (
        "open", "x", 1)
    # fuel runs out exactly on a contraction that pushes its pending
    # argument: the second S of I (I 3), and the fix after succ 0
    assert _same_as_reference(FIXED_CASES["S after S"], 2) == ("fuel", None, 2)
    assert _same_as_reference(FIXED_CASES["S after S"], 4) == (
        "value", Num(3), 4)
    assert _same_as_reference(FIXED_CASES["fix after succ"], 1) == (
        "fuel", None, 1)
    assert _same_as_reference(FIXED_CASES["fix after succ"], 3) == (
        "value", ap(FIX, K), 3)


# ---------------------------------------------------------------------------
# jets: MONUS and ADD on numerals run natively, charged step for step

UNBOUNDED = 10**9


def _agrees_at_every_fuel(t, fuels=None):
    """The machine's run of t at each fuel (all, from 0 up to what the run
    needs, by default) against one unbounded reference run.  A reference
    run with less fuel makes the same contractions until its fuel is spent,
    so it ends OutOfFuel at exactly that fuel."""
    kind, value, total = _run(ReferenceMachine, t, UNBOUNDED)
    assert kind == "value"
    for fuel in range(total + 1) if fuels is None else fuels(total):
        want = (kind, value, total) if fuel >= total else ("fuel", None, fuel)
        assert _run(Machine, t, fuel) == want, fuel
    return value, total


def _hits():
    return dict(machine.JET_HITS)


@pytest.mark.parametrize("name", ["MONUS", "ADD"])
def test_jets_are_step_exact_at_every_fuel(name):
    program = getattr(prog, name)
    op = {"MONUS": lambda x, y: max(x - y, 0), "ADD": lambda x, y: x + y}[name]
    before = _hits()
    for y in range(24):
        for x in range(24):
            value, steps = _agrees_at_every_fuel(ap(program, Num(x), Num(y)))
            assert value == Num(op(x, y))
            assert steps == {"MONUS": 105 + 115 * y, "ADD": 107 + 117 * y}[name]
    assert _hits()[name] > before[name]


def test_the_reference_itself_stops_where_the_jets_do():
    # _agrees_at_every_fuel reads the reference's short runs off its full
    # one; here the reference runs at the edges of a jet's phases itself:
    # fix F x comes to a value after 72 (MONUS) or 74 (ADD) steps, and the
    # second argument pred 3 takes one more
    for program, pre in ((prog.MONUS, 72), (prog.ADD, 74)):
        t = ap(program, Num(9), ap(PRED, Num(3)))
        _, _, total = _run(ReferenceMachine, t, UNBOUNDED)
        for fuel in (0, 1, pre - 1, pre, pre + 1, pre + 2, total - 1, total):
            _same_as_reference(t, fuel)


SECOND_ARGUMENTS = {
    "a numeral": lambda y: Num(y),
    "pred of a numeral": lambda y: ap(PRED, Num(y + 1)),
    "a jetted call": lambda y: ap(prog.ADD, Num(y // 2), Num(y - y // 2)),
    "an unquoted numeral": lambda y: ap(Num(encode_term(I)), Num(y)),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["MONUS", "ADD"]),
       st.integers(min_value=0, max_value=2**64),
       st.integers(min_value=0, max_value=200),
       st.sampled_from(sorted(SECOND_ARGUMENTS)),
       st.data())
def test_jets_are_step_exact_on_large_numerals(name, x, y, shape, data):
    t = ap(getattr(prog, name), Num(x), SECOND_ARGUMENTS[shape](y))
    _, _, total = _run(ReferenceMachine, t, UNBOUNDED)
    fuel = data.draw(st.integers(min_value=0, max_value=total + 3))
    _agrees_at_every_fuel(t, lambda _: (fuel,))


# a spine in place of a numeral: ifz and pred read its code, so the call
# recurses on numerals from there; taken as the second argument right away
# (a value), after evaluating it (the jet gives its steps back), or as x
FALLBACKS = {
    "MONUS 3 K": ap(prog.MONUS, Num(3), K),
    "MONUS 3 (K K 0)": ap(prog.MONUS, Num(3), ap(K, K, Num(0))),
    "ADD 4 (K (S K) 1)": ap(prog.ADD, Num(4), ap(K, ap(S, K), Num(1))),
    "ADD (K K) 2": ap(prog.ADD, ap(K, K), Num(2)),
    "MONUS (S K) 1": ap(prog.MONUS, ap(S, K), Num(1)),
}


@pytest.mark.parametrize("name", FALLBACKS)
def test_jets_fall_back_on_spines_at_every_fuel(name):
    _agrees_at_every_fuel(FALLBACKS[name])


def _sampled_fuels(total):
    return sorted({*range(0, total, max(1, total // 40)), total - 1, total})


SMALL_GRID = {
    "EQ01": [(x, y) for x in range(5) for y in range(5)],
    "LT01": [(x, y) for x in range(5) for y in range(5)],
    "MUL": [(x, y) for x in range(4) for y in range(4)],
    "MOD": [(x, k) for x in range(9) for k in (1, 2, 3, 5)],
    "POLYEVAL": [(encode_seq(c), n) for c in ([], [3], [1, 2], [0, 1, 1])
                 for n in range(3)],
}


@pytest.mark.parametrize("name", SMALL_GRID)
def test_programs_using_jets_are_step_exact(name):
    before = _hits()
    for x, y in SMALL_GRID[name]:
        program = POLYEVAL if name == "POLYEVAL" else getattr(prog, name)
        _agrees_at_every_fuel(ap(program, Num(x), Num(y)), _sampled_fuels)
    assert _hits() != before


def test_jets_fire_on_decoded_programs():
    # a fresh decode, not the cache: the fixed functions of MONUS and ADD
    # come back as the very objects the jets know
    program = decode_term(encode_term(prog.EQ01))
    assert program == prog.EQ01 and program is not prog.EQ01
    for x, y in ((4, 6), (6, 4), (5, 5)):
        before = _hits()
        value, _ = _agrees_at_every_fuel(ap(program, Num(x), Num(y)),
                                         _sampled_fuels)
        assert value == Num(0 if x == y else 1)
        after = _hits()
        assert after["MONUS"] > before["MONUS"] and after["ADD"] > before["ADD"]
    assert decode_term(encode_term(prog.MONUS)).arg is prog.MONUS.arg


def _rebuilt(t):
    return App(_rebuilt(t.fn), _rebuilt(t.arg)) if isinstance(t, App) else t


def test_jets_know_their_programs_by_identity():
    # an equal copy of MONUS is not jetted, and still gives the same run
    copy = _rebuilt(prog.MONUS)
    assert copy == prog.MONUS and copy.arg is not prog.MONUS.arg
    before = _hits()
    t = ap(copy, Num(7), Num(3))
    assert _run(Machine, t, UNBOUNDED) == ("value", Num(4), 105 + 115 * 3)
    assert _hits() == before


# ---------------------------------------------------------------------------
# remembered sub-runs: an unquote of a numeral on a numeral runs once


def _unquote(program, n):
    return ap(Num(encode_term(program)), Num(n))


# one-argument programs: sub-runs with jets inside, a sub-run that ends in
# a jetted call (never remembered), nested unquotes, and plain combinators
SUBRUN_PROGRAMS = {
    "ADD 3": ap(prog.ADD, Num(3)),
    "MONUS 4": ap(prog.MONUS, Num(4)),
    "EQ01 2": ap(prog.EQ01, Num(2)),
    "MUL 2": ap(prog.MUL, Num(2)),
    "ADD": prog.ADD,
    "I": I,
    "succ": SUCC,
    "unquoted ADD 3": Num(encode_term(ap(prog.ADD, Num(3)))),
    "unquoted MONUS": Num(encode_term(prog.MONUS)),
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(SUBRUN_PROGRAMS)),
       st.integers(min_value=0, max_value=5),
       st.data())
def test_remembered_subruns_match_the_reference(name, n, data):
    # K X X runs the unquote X twice; cold, the second run may be answered
    # by the first, and warm, both are
    x = _unquote(SUBRUN_PROGRAMS[name], n)
    t = ap(K, x, x)
    _, _, total = _run(ReferenceMachine, t, UNBOUNDED)
    fuel = data.draw(st.integers(min_value=0, max_value=total + 3))
    machine._subruns.clear()
    cold = _same_as_reference(t, fuel)
    _run(Machine, t, UNBOUNDED)
    assert _same_as_reference(t, fuel) == cold


def test_a_remembered_subrun_past_the_fuel_ends_the_run_there():
    # from the fuel that completes the first X on, the second is answered
    # from the table, and wherever its steps do not fit the run must stop
    # at exactly the fuel
    x = _unquote(ap(prog.MUL, Num(2)), 3)
    machine._subruns.clear()
    before = machine.SUBRUN_HITS
    value, _ = _agrees_at_every_fuel(ap(K, x, x))
    assert value == Num(6)
    assert machine.SUBRUN_HITS > before


@pytest.mark.parametrize("y", [0, 4])
@pytest.mark.parametrize("depth", [1, 2])
def test_jets_fire_through_unquotes(depth, y):
    # MONUS unquoted (once, or through a quoted numeral) on 9, with y
    # pending outside the sub-run: the jet must still see y.  On y = 0 the
    # program itself makes no jetted call, so the one hit is this one
    head = prog.MONUS
    for _ in range(depth):
        head = Num(encode_term(head))
    t = ap(head, Num(9), Num(y))
    machine._subruns.clear()
    before = _hits()
    assert _run(Machine, t, UNBOUNDED) == ("value", Num(9 - y),
                                           depth + 105 + 115 * y)
    assert _hits()["MONUS"] == before["MONUS"] + 1
    assert not machine._subruns
    _agrees_at_every_fuel(t, _sampled_fuels)


# runs past this on the reference are left out: some codes diverge
APPLY_CAP = 1000


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(encode_term(p) for p in SUBRUN_PROGRAMS.values()))
       | st.integers(min_value=0, max_value=4095),
       st.integers(min_value=0, max_value=5))
def test_applications_answered_from_the_table_match_the_reference(e, n):
    # apply(e, n) is the sub-run (e, n): once it has run to the end, the
    # table answers it at every fuel, charging its steps where they fit
    t = App(terms.decode_term_cached(e), Num(n))
    kind, value, total = _run(ReferenceMachine, t, APPLY_CAP)
    assume(kind == "value")
    machine.apply_cached.cache_clear()
    machine._subruns.clear()
    assert apply(e, n, UNBOUNDED) == Value(machine._as_nat(value))
    recorded = bool(machine._subruns)
    if (e, n) in machine._subruns:
        assert machine._subruns[(e, n)] == (total, value)
    before = machine.SUBRUN_HITS
    _agrees_at_every_fuel(t, lambda total: range(total + 4))
    for fuel in range(total + 4):
        want = Value(machine._as_nat(value)) if fuel >= total else OutOfFuel(fuel)
        assert apply(e, n, fuel) == want, fuel
    # a run that recorded nothing (a jetted call that drops the marker) has
    # nothing to answer
    assert (machine.SUBRUN_HITS > before) == recorded


# ---------------------------------------------------------------------------
# templates: a sub-run that never reads its numeral runs once, on the hole


def _holds_hole(t):
    seen, todo = set(), [t]
    while todo:
        u = todo.pop()
        if u is machine.HOLE:
            return True
        if isinstance(u, App) and id(u) not in seen:
            seen.add(id(u))
            todo += (u.fn, u.arg)
    return False


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(encode_term(p) for p in SUBRUN_PROGRAMS.values()))
       | st.integers(min_value=0, max_value=4095),
       st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=2,
                unique=True))
def test_templates_and_bounds_match_the_reference(e, ns):
    # the first numeral runs cold at every fuel from 0 up, leaving bounds,
    # and a template where the code never reads it; the second is answered
    # warm from what the first left.  A run past APPLY_CAP reference steps
    # is checked at sampled fuels up to the cap
    machine._subruns.clear()
    for n in ns:
        t = App(terms.decode_term_cached(e), Num(n))
        kind, value, total = _run(ReferenceMachine, t, APPLY_CAP)
        fuels = range(total + 4) if kind == "value" else range(0, total + 1, 37)
        for fuel in fuels:
            want = ("value", value, total) if fuel >= total else ("fuel", None, fuel)
            got = _run(Machine, t, fuel)
            assert not _holds_hole(got[1]), (e, n, fuel)
            assert got == want, (e, n, fuel)


def test_a_jet_leaves_the_hole_to_its_program():
    # MONUS 9 x: the outer call's pending y is the hole, which the jet does
    # not take for a numeral; the call unfolds, its ifz reads the hole, n
    # goes in, and the jet fires on the recursive call, cold and with the
    # table warm
    e = encode_term(ap(prog.MONUS, Num(9)))
    machine._subruns.clear()
    for n, want in ((4, 5), (6, 3)):
        before = _hits()
        assert apply(e, n, UNBOUNDED) == Value(want)
        assert _hits()["MONUS"] == before["MONUS"] + 1
        assert (e, n) in machine._subruns
    assert (e, machine.HOLE) not in machine._subruns
    before, hits = _hits(), machine.SUBRUN_HITS
    assert apply(e, 4, UNBOUNDED) == Value(5)
    assert _hits() == before and machine.SUBRUN_HITS == hits + 1


# the one rule: every firing that needs the hole's numeral reads it.  Each
# case runs a code on several numerals at every fuel, against the
# reference, so an answer that leaves the hole unread where the numeral
# decides the value is kept as a template and then given for the wrong n

# codes unquoted on the hole: succ reads its argument, K 7 and K do not
UNQUOTED = {"succ": SUCC, "K 7": ap(K, Num(7)), "K": K}


@pytest.mark.parametrize("name", UNQUOTED)
def test_an_unquote_on_the_hole_reads_it(name):
    # \x. c x: the unquote of c on the hole reads it, whether or not the
    # table knows c on n (an unquote inside a run warms it on 3 first),
    # and leaves no entry keyed by the hole for c
    c = encode_term(UNQUOTED[name])
    e = encode_term(lam("x", ap(Num(c), Var("x"))))
    machine._subruns.clear()
    _run(Machine, ap(K, ap(Num(c), Num(3)), Num(0)), UNBOUNDED)
    assert (c, 3) in machine._subruns
    for n in (3, 5, 3):
        _agrees_at_every_fuel(App(terms.decode_term_cached(e), Num(n)))
    assert (c, machine.HOLE) not in machine._subruns


# MONUS with the hole as its second argument, y, or as its first, x
HOLE_IN_MONUS = {
    "y": ap(prog.MONUS, Num(9)),
    "x": lam("x", ap(prog.MONUS, Var("x"), Num(2))),
}


@pytest.mark.parametrize("where", HOLE_IN_MONUS)
def test_a_jet_takes_the_hole_for_no_numeral(where):
    e = encode_term(HOLE_IN_MONUS[where])
    machine._subruns.clear()
    for n in (4, 6, 4):
        _agrees_at_every_fuel(App(terms.decode_term_cached(e), Num(n)))
    # a run that ran out before the read may bound the hole; none of them
    # finished without reading it
    assert machine._subruns.get((e, machine.HOLE), (0, None))[1] is None


def test_a_template_may_nest_the_hole_past_the_recursion_limit():
    # \x. K (K (... x)), 5,000 deep: applied, it builds its body around the
    # hole without reading it; the template is filled in on explicit stacks
    body = Var("x")
    for _ in range(5_000):
        body = App(K, body)
    e = encode_term(lam("x", body))
    machine._subruns.clear()
    hits = machine.SUBRUN_HITS
    for n in (3, 8):
        code = phi_join([], 10 + n)
        for _ in range(5_000):
            code = phi_join([code], 0)
        assert apply(e, n, UNBOUNDED) == Value(code)
    assert list(machine._subruns) == [(e, machine.HOLE)]
    assert machine.SUBRUN_HITS == hits + 1


def test_a_run_that_ran_out_ends_every_lower_fuel_at_once(monkeypatch):
    # this loop counts x up forever, reading it: the bound is (e, 3)'s alone
    e = encode_term(prog.fixlam("f", "x", ap(Var("f"), ap(SUCC, Var("x")))))
    machine._subruns.clear()
    assert apply(e, 3, 500) == OutOfFuel(500)
    assert machine._subruns[(e, 3)] == (501, None)
    reads = 0
    as_nat = machine._as_nat

    def counted(t):
        nonlocal reads
        reads += 1
        return as_nat(t)

    monkeypatch.setattr(machine, "_as_nat", counted)
    for fuel in (500, 200, 0):
        assert apply(e, 3, fuel) == OutOfFuel(fuel)
    assert reads == 0
    assert apply(e, 3, 501) == OutOfFuel(501)
    assert apply(e, 4, 100) == OutOfFuel(100)
    assert reads > 0
    assert machine._subruns[(e, 3)] == (502, None)


def test_a_run_on_the_hole_that_ran_out_bounds_every_numeral():
    # OMEGA never reads its argument and repeats: the bound is the hole's
    e = encode_term(OMEGA)
    machine._subruns.clear()
    cycles = machine.CYCLES
    assert apply(e, 0, 1000) == OutOfFuel(1000)
    assert machine._subruns[(e, machine.HOLE)] == (1001, None)
    assert apply(e, 7, 1000) == OutOfFuel(1000)
    assert machine.CYCLES == cycles + 1
    assert apply(e, 7, 1001) == OutOfFuel(1001)
    assert machine.CYCLES == cycles + 2


def test_the_table_evicts_its_oldest_entry_past_its_size(monkeypatch):
    # each run records one entry: K builds a template on the hole, succ
    # reads its numeral and records a value, and the counting loop of the
    # test above records a bound; in a table of two, each write past the
    # second pushes out the oldest entry, whatever its kind
    monkeypatch.setattr(machine, "_SUBRUNS_MAX", 2)
    k, succ = encode_term(K), encode_term(SUCC)
    loop = encode_term(prog.fixlam("f", "x", ap(Var("f"), ap(SUCC, Var("x")))))
    machine._subruns.clear()
    hole = machine.HOLE
    k3 = Value(encode_term(ap(K, Num(3))))
    runs = [  # e, n, fuel, result, the entry written, the table's keys
        (k, 3, 10, k3, (0, App(K, hole)), [(k, hole)]),
        (succ, 4, 10, Value(5), (1, Num(5)), [(k, hole), (succ, 4)]),
        (loop, 3, 500, OutOfFuel(500), (501, None), [(succ, 4), (loop, 3)]),
        (succ, 5, 10, Value(6), (1, Num(6)), [(loop, 3), (succ, 5)]),
        (k, 3, 10, k3, (0, App(K, hole)), [(succ, 5), (k, hole)]),
    ]
    for e, n, fuel, want, entry, keys in runs:
        assert apply(e, n, fuel) == want
        assert len(machine._subruns) <= machine._SUBRUNS_MAX
        assert list(machine._subruns) == keys
        assert machine._subruns[keys[-1]] == entry


def test_a_term_that_holds_the_hole_prints_it_by_name():
    assert repr(App(K, machine.HOLE)) == "K HOLE"
    machine._subruns.clear()
    assert apply(16, 7, 300) == Value(encode_term(ap(K, Num(7))))
    assert repr(dict(machine._subruns)) == "{(16, HOLE): (2, K HOLE)}"

    class Atom:  # a head that is no term
        room = 2

    with pytest.raises(TypeError):
        terms.show_term(App(Atom(), Num(0)))


# ---------------------------------------------------------------------------
# repeated configurations: a run that comes back to one ends at the fuel

# the argument a loop passes on: counted down (the loop finishes), kept (it
# repeats), counted up (it neither finishes nor repeats), or counted down
# after an inner loop has run with the outer count pending on the stack
LOOP_STEPS = ("pred", "pred pred", "same", "succ", "inner")


@st.composite
def loops(draw, depth=2):
    """fix (\\f x. if x = 0 then done else f (step x)) applied to a numeral;
    done is a numeral or an inner loop, run with the stack the outer loop
    had on entry."""
    kinds = LOOP_STEPS if depth else LOOP_STEPS[:4]
    step = draw(st.sampled_from(kinds))
    x = Var("x")
    nxt = {"pred": lambda: ap(PRED, x),
           "pred pred": lambda: ap(PRED, ap(PRED, x)),
           "same": lambda: x,
           "succ": lambda: ap(SUCC, x),
           "inner": lambda: ap(K, ap(PRED, x), draw(loops(depth - 1)))}[step]()
    done = (draw(loops(depth - 1)) if depth and draw(st.booleans())
            else Num(draw(st.integers(min_value=0, max_value=3))))
    body = prog.ite(x, done, ap(Var("f"), nxt))
    return ap(prog.fixlam("f", "x", body),
              Num(draw(st.integers(min_value=0, max_value=30))))


CYCLE_CAP = 6000


@settings(max_examples=120, deadline=None)
@given(loops(), st.lists(st.integers(min_value=0, max_value=CYCLE_CAP),
                         min_size=2, max_size=2))
def test_loops_match_the_reference_at_several_fuels(t, fuels):
    # a loop that finishes must not be taken for one that repeats: the
    # count or the stack below an inner loop differs between iterations
    kind, _, total = _run(ReferenceMachine, t, CYCLE_CAP)
    ends = [total - 1, total] if kind == "value" else [CYCLE_CAP]
    for fuel in fuels + ends:
        _same_as_reference(t, max(fuel, 0))


@pytest.mark.parametrize("n", [0, 5, 40])
def test_fix_s_k_repeats_and_is_cut_short(n):
    # 239 is fix S K: applied to anything it comes back to where it was
    assert decode_term(239) == ap(FIX, S, K)
    for fuel in (100, 5000, 10**6):
        before = machine.CYCLES
        assert apply(239, n, fuel) == OutOfFuel(fuel)
        assert machine.CYCLES == before + 1
    _same_as_reference(App(decode_term(239), Num(n)), 5000)


def test_a_configuration_too_deep_to_compare_ends_the_watch():
    # x grows to K (K (... 0)) past Python's recursion limit, so comparing
    # it with a snapshot raises RecursionError; the run goes on to the fuel
    t = ap(prog.fixlam("f", "x", ap(Var("f"), ap(K, Var("x")))), Num(0))
    before = machine.CYCLES
    assert _same_as_reference(t, 20000) == ("fuel", None, 20000)
    assert machine.CYCLES == before
