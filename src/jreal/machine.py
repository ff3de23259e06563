"""Fueled call-by-value evaluation of combinator terms.

Reduction is leftmost-innermost and deterministic.  One unit of fuel buys one
contraction: a primitive firing at full arity, a fixed-point unfolding, or an
unquote of a numeral in head position (the numeral is decoded to its term and
application continues, so no application is ever stuck).  Building a partial
application costs nothing; it is already a value.

Values are numbers.  A run that converges to a non-numeral value (a partial
application spine) is reified to the Godel number of that spine, which is why
``apply(encode(K), x)`` returns a perfectly good code that can be applied
again.  Primitives that need a numeral coerce any other value to its code
first, for the same reason.

Divergence and fuel exhaustion are indistinguishable by design: both surface
as ``OutOfFuel``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import coding
from .terms import (
    App,
    Num,
    Prim,
    Term,
    Var,
    decode_term_cached,
    encode_term,
    spine,
)

DEFAULT_FUEL = 20000


@dataclass(frozen=True, slots=True)
class Value:
    value: int


@dataclass(frozen=True, slots=True)
class OutOfFuel:
    steps: int


EvalResult = Value | OutOfFuel


class NotClosedAtRuntime(ValueError):
    pass


def _as_nat(t: Term) -> int:
    """The number a value denotes: numerals directly, spines via their code."""
    if isinstance(t, Num):
        return t.value
    return encode_term(t)


class Machine:
    """Single-run evaluator; kept as a class so steps can be inspected."""

    __slots__ = ("fuel", "steps")

    def __init__(self, fuel: int):
        self.fuel = fuel
        self.steps = 0

    def _tick(self) -> bool:
        if self.steps >= self.fuel:
            return False
        self.steps += 1
        return True

    def eval(self, t: Term) -> Term | None:
        """Reduce t to a value term, or None on fuel exhaustion."""
        # stack entries: ("arg", term) pending argument, ("app", value) pending fn
        stack: list[tuple[str, Term]] = []
        mode_eval = True
        while True:
            if mode_eval:
                # an input spine can hide redexes in its arguments; its
                # room, fixed when it was built, says whether it is a value
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
                    # nil: nullary contraction to the empty-sequence numeral
                    if not self._tick():
                        return None
                    t = Num(0)
                mode_eval = False
                continue
            # return mode: t is a value
            if not stack:
                return t
            kind, payload = stack.pop()
            if kind == "arg":
                stack.append(("app", t))
                t = payload
                mode_eval = True
                continue
            # kind == "app": apply value `payload` to value `t`
            out = self._apply_value(payload, t)
            if out is None:
                return None
            t, mode_eval = out

    def _apply_value(self, f: Term, v: Term) -> tuple[Term, bool] | None:
        """Apply one value to another.  Returns (term, needs_eval) or None."""
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
        # spine arguments are values by the descend-always invariant, so K
        # and ifz can return them without re-evaluation
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


def eval_term(t: Term, fuel: int = DEFAULT_FUEL) -> tuple[Term | None, int]:
    """Reduce a term to a value term; (None, steps) on fuel exhaustion."""
    m = Machine(fuel)
    out = m.eval(t)
    return out, m.steps


def eval_to_nat(t: Term, fuel: int = DEFAULT_FUEL) -> EvalResult:
    out, steps = eval_term(t, fuel)
    if out is None:
        return OutOfFuel(steps)
    return Value(_as_nat(out))


def apply(e: int, n: int, fuel: int = DEFAULT_FUEL) -> EvalResult:
    """Kleene-style application of code e to input n under a fuel budget."""
    return eval_to_nat(App(decode_term_cached(e), Num(n)), fuel)


def apply_many(e: int, ns: list[int], fuel: int = DEFAULT_FUEL) -> EvalResult:
    """Curried application e n1 n2 ... nk, reifying between steps."""
    cur = e
    for n in ns:
        res = apply(cur, n, fuel)
        if isinstance(res, OutOfFuel):
            return res
        cur = res.value
    return Value(cur)


# evaluation is deterministic, so replays of the same application can share;
# certificate checks re-run exactly the applications the mirrors just ran
@lru_cache(maxsize=1 << 16)
def apply_cached(e: int, n: int, fuel: int = DEFAULT_FUEL) -> EvalResult:
    return apply(e, n, fuel)
