"""Builders for random certified closure members, shared across test modules,
and the reference machine loop.

Chains are grown bottom-up: a 0-tagged base member, then lift steps whose
tail codes either repeat one member or switch between two at a window split,
so tail certificates genuinely differ per sample point.
"""

import random

from jreal import coding, prog
from jreal.bracket import lam
from jreal.certs import Base, Cert, CheckPolicy, Lift
from jreal.machine import NotClosedAtRuntime, _as_nat
from jreal.terms import (App, K, Num, Prim, Term, Var, ap, decode_term_cached,
                         encode_term, spine)


def const_code(x: int) -> int:
    return encode_term(App(K, Num(x)))


def lift_step(rng, pool, policy: CheckPolicy):
    """One lift over members drawn from the pool; returns (value, cert)."""
    x1, c1 = rng.choice(pool)
    x2, c2 = rng.choice(pool)
    threshold = rng.randrange(0, 3)
    if rng.random() < 0.4:
        e = const_code(x1)
        tails = tuple((m, c1) for m in policy.window_points(threshold))
    else:
        split = threshold + rng.randrange(0, policy.window)
        e = encode_term(
            lam("m", prog.ite(ap(prog.LT01, Var("m"), Num(split)), Num(x1), Num(x2)))
        )
        tails = tuple(
            (m, c1 if m < split else c2) for m in policy.window_points(threshold)
        )
    return coding.pair(1, e), Lift(threshold, tails)


def chain(rng: random.Random, a: int, depth: int, policy: CheckPolicy) -> tuple[int, Cert]:
    """A certified member of the closure of {a}, with `depth` lift layers."""
    pool = [(coding.pair(0, a), Base(a))]
    for _ in range(depth):
        pool.append(lift_step(rng, pool, policy))
    return pool[-1]


def nested_chain(rng: random.Random, a: int, inner_depth: int, outer_depth: int,
                 policy: CheckPolicy) -> tuple[int, Cert]:
    """A certified member of the double closure of {a}."""
    x, cert = chain(rng, a, inner_depth, policy)
    pool = [(coding.pair(0, x), Base(x, cert))]
    for _ in range(outer_depth):
        pool.append(lift_step(rng, pool, policy))
    return pool[-1]


class ReferenceMachine:
    """The machine's contraction rules written out plainly: tagged stack
    tuples, a spine walk per contraction, and the whole application built
    for every S, fix and numeral unquote.  The reference that
    ``jreal.machine.Machine`` must match run for run, step for step."""

    def __init__(self, fuel: int):
        self.fuel = fuel
        self.steps = 0

    def _tick(self) -> bool:
        if self.steps >= self.fuel:
            return False
        self.steps += 1
        return True

    def eval(self, t: Term) -> Term | None:
        # stack entries: ("arg", term) pending argument, ("app", value) pending fn
        stack: list[tuple[str, Term]] = []
        mode_eval = True
        while True:
            if mode_eval:
                if isinstance(t, App):
                    if t.room:
                        mode_eval = False
                        continue
                    stack.append(("arg", t.arg))
                    t = t.fn
                    continue
                if isinstance(t, Var):
                    raise NotClosedAtRuntime(t.name)
                if isinstance(t, Prim) and t.tag == 6:
                    if not self._tick():
                        return None
                    t = Num(0)
                mode_eval = False
                continue
            if not stack:
                return t
            kind, payload = stack.pop()
            if kind == "arg":
                stack.append(("app", t))
                t = payload
                mode_eval = True
                continue
            out = self._apply_value(payload, t)
            if out is None:
                return None
            t, mode_eval = out

    def _apply_value(self, f: Term, v: Term) -> tuple[Term, bool] | None:
        if isinstance(f, Num):
            if not self._tick():
                return None
            return App(decode_term_cached(f.value), v), True
        if f.room > 1:
            return App(f, v), False
        if not self._tick():
            return None
        head, args = spine(f)
        tag = head.tag
        if tag == 0:  # K a b -> a
            return args[0], False
        if tag == 1:  # S f g x -> f x (g x)
            a, b = args
            return App(App(a, v), App(b, v)), True
        if tag == 2:  # succ
            return Num(_as_nat(v) + 1), False
        if tag == 3:  # pred
            n = _as_nat(v)
            return Num(n - 1 if n > 0 else 0), False
        if tag == 4:  # ifz c a b
            c, a = args
            return (a if _as_nat(c) == 0 else v), False
        if tag == 5:  # fix f x -> f (fix f) x
            (fn,) = args
            return App(App(fn, App(Prim(5), fn)), v), True
        if tag == 7:  # cons
            (a,) = args
            return Num(coding.seq_cons(_as_nat(a), _as_nat(v))), False
        if tag == 8:  # len
            return Num(coding.seq_len(_as_nat(v))), False
        if tag == 9:  # proj
            (s,) = args
            return Num(coding.seq_proj(_as_nat(s), _as_nat(v))), False
        raise AssertionError(head)
