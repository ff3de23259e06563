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

``Machine.eval`` is one loop over one stack of terms and two marker objects.
``_ARG`` over a term marks an argument still to evaluate; ``_APP`` over a
value marks a function waiting for the value being returned.  A function
value with room 1 fires, and since no primitive takes more than three
arguments its head is found at a fixed depth, with no spine walk.  A
contraction whose result is an application to evaluate (S, fix, a numeral
unquote) pushes the application's parts rather than building it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import coding
from .terms import (
    FIX,
    App,
    Num,
    Prim,
    Term,
    Var,
    decode_term_cached,
    encode_term,
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


_ARG = object()
_APP = object()


class Machine:
    """Single-run evaluator; kept as a class so steps can be inspected."""

    __slots__ = ("fuel", "steps")

    def __init__(self, fuel: int):
        self.fuel = fuel
        self.steps = 0

    def eval(self, t: Term) -> Term | None:
        """Reduce t to a value term, or None on fuel exhaustion."""
        # Each pass descends t to a value, pushing the argument of every
        # non-value application under _ARG, then hands the value to the
        # stack.  An _ARG entry swaps in its argument to evaluate, leaving
        # the value under _APP, or, when the argument is a value already,
        # applies the value to it at once; an _APP entry applies its
        # function to the value.  The head of a firing function is f, f.fn
        # or f.fn.fn for arity 1, 2 or 3.  Steps are counted in a local and
        # written back on every exit, returns and raises alike.
        fuel = self.fuel
        steps = self.steps
        stack: list = []
        push = stack.append
        pop = stack.pop
        try:
            while True:
                while not t.room:
                    if type(t) is App:
                        push(t.arg)
                        push(_ARG)
                        t = t.fn
                    elif type(t) is Var:
                        raise NotClosedAtRuntime(t.name)
                    else:  # nil, the one primitive of arity 0
                        if steps >= fuel:
                            return None
                        steps += 1
                        t = Num(0)
                # t is a value
                while stack:
                    if pop() is _ARG:
                        arg = pop()
                        if not arg.room:
                            push(t)
                            push(_APP)
                            t = arg
                            break
                        f = t
                        t = arg
                    else:
                        f = pop()
                    if f.room > 1:
                        t = App(f, t)
                        continue
                    if steps >= fuel:
                        return None
                    steps += 1
                    if type(f) is Num:
                        push(t)
                        push(_ARG)
                        t = decode_term_cached(f.value)
                        break
                    # spine arguments of a value are values, so K and ifz
                    # return them without re-evaluation
                    if type(f) is Prim:
                        tag = f.tag
                    elif type(g := f.fn) is Prim:
                        tag = g.tag
                        a = f.arg
                    else:
                        tag = g.fn.tag
                        a = g.arg
                        b = f.arg
                    if tag == 0:  # K a t -> a
                        t = a
                    elif tag == 1:  # S a b t -> a t (b t), t goes to a next
                        push(App(b, t))
                        push(_ARG)
                        push(a)
                        push(_APP)
                    elif tag == 5:  # fix a t -> a (fix a) t
                        push(t)
                        push(_ARG)
                        push(a)
                        push(_APP)
                        t = App(FIX, a)
                    elif tag == 4:  # ifz a b t -> b if a is 0, else t
                        if _as_nat(a) == 0:
                            t = b
                    elif tag == 2:  # succ
                        t = Num(_as_nat(t) + 1)
                    elif tag == 3:  # pred
                        n = _as_nat(t)
                        t = Num(n - 1 if n > 0 else 0)
                    elif tag == 7:  # cons
                        t = Num(coding.seq_cons(_as_nat(a), _as_nat(t)))
                    elif tag == 8:  # len
                        t = Num(coding.seq_len(_as_nat(t)))
                    elif tag == 9:  # proj
                        t = Num(coding.seq_proj(_as_nat(a), _as_nat(t)))
                    else:
                        raise AssertionError(f)
                else:
                    return t
        finally:
            self.steps = steps


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
