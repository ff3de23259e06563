"""The abstractor must be sound AND leave closures predictable by substitution."""

import random

from jreal import prog
from jreal.bracket import compile_lambda, lam
from jreal.machine import DEFAULT_FUEL, OutOfFuel, Value, apply, apply_many, eval_to_nat
from jreal.terms import (
    App,
    CONS,
    FIX,
    K,
    LEN,
    Num,
    PRED,
    PROJ,
    S,
    SUCC,
    Var,
    ap,
    encode_term,
    free_vars,
    parse_term,
    subst,
)

from support import QPEVAL

# fix-free atoms only: every random body below terminates
_ATOMS = [K, S, SUCC, PRED, CONS, LEN, PROJ, Num(0), Num(1), Num(7)]


def _random_body(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Var("x")
        return rng.choice(_ATOMS)
    return App(_random_body(rng, depth - 1), _random_body(rng, depth - 1))


def test_abstraction_is_sound_on_random_bodies():
    # applying [x]body to v must agree with evaluating body[x:=v] directly
    rng = random.Random(7)
    checked = 0
    for _ in range(200):
        body = _random_body(rng, 4)
        if "x" not in free_vars(body):
            continue
        v = rng.randrange(0, 50)
        fn = compile_lambda("x", body)
        got = eval_to_nat(App(fn, Num(v)), fuel=10**5)
        want = eval_to_nat(subst(body, {"x": Num(v)}), fuel=10**5)
        assert got == want, (body, v)
        checked += 1
    assert checked >= 100


def test_long_application_under_a_lambda_compiles():
    # one level of text nesting, 2,000 application nodes: [x](f x) = S [x]f SKK
    t = parse_term("\\x. " + "x " * 2000)
    for _ in range(1999):
        assert t.fn.fn == S and t.arg == ap(S, K, K)
        t = t.fn.arg
    assert t == ap(S, K, K)


def test_two_level_abstraction():
    swap = lam("x", "y", ap(CONS, Var("y"), ap(CONS, Var("x"), Num(0))))
    got = apply_many(encode_term(swap), [3, 8], DEFAULT_FUEL)
    from jreal.coding import decode_seq

    assert isinstance(got, Value)
    assert decode_seq(got.value) == (8, 3)


def test_closure_value_is_the_substituted_template():
    # applying the outer lambda must yield EXACTLY the compiled inner
    # template with the argument written in for the variable
    body = ap(CONS, Var("x"), ap(CONS, Var("y"), Num(0)))
    inner = compile_lambda("y", body)
    outer = lam("x", "y", body)
    for v in [0, 3, 41]:
        got = apply(encode_term(outer), v, DEFAULT_FUEL)
        want = encode_term(subst(inner, {"x": Num(v)}))
        assert got == Value(want)


def test_template_prediction_through_embedded_programs():
    # closed inert subtrees stay shared under K; prediction still exact
    body = ap(CONS, ap(prog.ADD, Var("x"), Num(0)), ap(CONS, Var("y"), Num(0)))
    inner = compile_lambda("y", body)
    outer = lam("x", "y", body)
    got = apply(encode_term(outer), 9, DEFAULT_FUEL)
    assert got == Value(encode_term(subst(inner, {"x": Num(9)})))


def test_thunks_delay_their_branch():
    omega = ap(FIX, lam("f", "z", ap(Var("f"), Var("z"))))
    guarded = lam("x", prog.ite(Var("x"), Num(7), App(omega, Num(0))))
    code = encode_term(guarded)
    assert apply(code, 0, fuel=10**4) == Value(7)
    assert isinstance(apply(code, 1, fuel=2000), OutOfFuel)


def test_embedded_closed_programs_compute():
    add3 = lam("x", ap(prog.ADD, Var("x"), Num(3)))
    assert apply(encode_term(add3), 4, fuel=10**5) == Value(7)


def test_compiled_code_size_stays_additive():
    def size(t):
        n, stack = 0, [t]
        while stack:
            u = stack.pop()
            n += 1
            if isinstance(u, App):
                stack.extend((u.fn, u.arg))
        return n

    assert size(QPEVAL) < 10_000
