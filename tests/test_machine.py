"""Fueled evaluator: contraction rules, unquoting, fuel discipline."""

import random

from hypothesis import given, settings, strategies as st

from jreal import prog
from jreal.coding import decode_seq, encode_seq, pair, phi_join
from jreal.machine import (
    DEFAULT_FUEL,
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
    Var,
    ap,
    encode_term,
)
from jreal.bracket import lam

OMEGA = ap(FIX, lam("f", "x", ap(Var("f"), Var("x"))))  # diverges on anything


def test_partial_application_reifies_and_resumes():
    r1 = apply(encode_term(K), 3)
    assert isinstance(r1, Value)
    assert apply(r1.value, 8) == Value(3)
    assert apply_many(encode_term(K), [3, 8]) == Value(3)


def test_skk_is_identity():
    skk = encode_term(ap(S, K, K))
    for n in [0, 1, 7, 1000]:
        assert apply(skk, n) == Value(n)


def test_numeral_in_head_position_unquotes():
    skk_code = encode_term(ap(S, K, K))
    quoted = encode_term(Num(skk_code))
    assert apply(quoted, 5) == Value(5)


def test_arith_prims():
    assert eval_to_nat(ap(SUCC, Num(4))) == Value(5)
    assert eval_to_nat(ap(PRED, Num(4))) == Value(3)
    assert eval_to_nat(ap(PRED, Num(0))) == Value(0)
    assert eval_to_nat(ap(IFZ, Num(0), Num(7), Num(8))) == Value(7)
    assert eval_to_nat(ap(IFZ, Num(2), Num(7), Num(8))) == Value(8)


def test_sequence_prims():
    s = encode_seq([4, 5, 6])
    assert eval_to_nat(ap(LEN, Num(s))) == Value(3)
    assert eval_to_nat(ap(PROJ, Num(s), Num(1))) == Value(5)
    assert eval_to_nat(ap(PROJ, Num(s), Num(9))) == Value(0)
    got = eval_to_nat(ap(CONS, Num(9), Num(s)))
    assert isinstance(got, Value) and decode_seq(got.value) == (9, 4, 5, 6)
    assert eval_to_nat(NIL) == Value(0)


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
    got = eval_to_nat(ap(prog.SNOC, Num(s), Num(9)), 10**6)
    assert isinstance(got, Value) and decode_seq(got.value) == (4, 5, 6, 9)
    got = eval_to_nat(ap(prog.SUFFIX, Num(s), Num(1)), 10**6)
    assert isinstance(got, Value) and decode_seq(got.value) == (5, 6)
    got = eval_to_nat(ap(prog.POLYEVAL, Num(encode_seq([1, 2, 3])), Num(4)), 10**6)
    assert got == Value(1 + 2 * 4 + 3 * 16)
    table = encode_seq([pair(3, 30), pair(4, 40)])
    assert eval_to_nat(ap(prog.LOOKUP, Num(table), Num(4)), 10**6) == Value(40)
    assert eval_to_nat(ap(prog.LOOKUP, Num(table), Num(8)), 10**6) == Value(0)


def test_quasi_polynomial_evaluation():
    # modulus 2: even n -> 1 + 2n, odd n -> n^2
    data = encode_seq([2, encode_seq([encode_seq([1, 2]), encode_seq([0, 0, 1])])])
    for n in range(6):
        want = 1 + 2 * n if n % 2 == 0 else n * n
        assert eval_to_nat(ap(prog.QPEVAL, Num(data), Num(n)), 10**6) == Value(want)


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
