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
first, for the same reason.  Reifying costs about as much as the new part of
a value: applications keep the codes ``encode_term`` gave them, and encoding
fills the decode cache, so a code the machine built unquotes through
``decode_term_cached`` without a decode walk.

Divergence and fuel exhaustion are indistinguishable by design: both surface
as ``OutOfFuel``.

``Machine.eval`` is one loop over one stack of terms and marker objects.
``_ARG`` over a term marks an argument still to evaluate; ``_APP`` over a
value marks a function waiting for the value being returned.  A function
value with room 1 fires, and since no primitive takes more than three
arguments its head is found at a fixed depth, with no spine walk.  A
contraction whose result is an application to evaluate (S, fix, a numeral
unquote) pushes the application's parts rather than building it.

Jets: ``prog.MONUS`` and ``prog.ADD`` on numerals run as Python arithmetic,
charged the steps the program itself would take (``MONUS x y`` takes
105 + 115y in all, ``ADD x y`` 107 + 117y, whatever x is).  A jet fires
when ``fix`` fires on the program's own fixed function (the very object;
``decode_term`` hands it back for its code), a numeral x, and a pending
second argument.  The first ``pre`` of those steps bring ``fix F x`` to a
value, so they are charged at once; the second argument is then
evaluated as it would be, and a numeral y pays the rest.  A charge past
the fuel ends the run at ``steps == fuel``, where every exhausted run
ends.  Any other y gives the ``pre`` steps back and unfolds ``fix F x``
after all, so a jet changes no step count, only the time.  ``JET_HITS``
counts the calls each jet answered.

Sub-runs: an unquote of a numeral c on a numeral n runs ``decode(c) n``,
whose value and steps depend on (c, n) alone.  A run of a coded term on a
numeral, the term ``apply(c, n)`` builds, is the same sub-run without the
unquote's step, so fuel only decides how long it is watched.  A ``_DONE``
marker under each sub-run records it as ``(c, n) -> (steps, value)`` when
the value comes back to it, in a table of ``_SUBRUNS_MAX`` entries, oldest
evicted first; a run that runs out with F steps left records each marker
pending as needing more, ``(F + 1, None)``.  Most codes never look at
their argument, they only move it around with K, S and fix, so they take
the same steps and build the same value, up to the numeral, on every
input (parametricity: Wadler, "Theorems for free!", FPCA 1989).  So a run
of a coded term on n that the table cannot answer runs on ``HOLE``, an
opaque value of room 1, in place of n, its marker at the bottom of the
stack.  One rule reads the hole: every firing that needs a numeral's value
reads it, and no other does.  Those are ``_as_nat`` (the coercions of ifz,
succ, pred, cons, len and proj) on the hole or on a spine that holds it,
the hole firing as a function, and an unquote applied to it.  A jet takes
no hole for a numeral: a hole as x, or as y, is one more value that is
not a numeral, and the program reads it itself.  At the read, n goes in
place of the hole in the current term, the firing function and the whole
stack, marker keys included, and that firing is done again on n at the
same step count, so no contraction runs twice.  A run that never read the
hole is recorded as the template ``(c, HOLE) -> (steps, value)``, the one
kind of entry keyed by the hole.  The next unquote or apply of c on n, at
any fuel, looks up (c, n) and then (c, HOLE).  An entry's steps are
charged, and if they do not fit the fuel the run ends at ``steps ==
fuel``; a value is taken, a template's with n in the hole; a bound that
fits lets the sub-run run.  So charged steps are exact, and executed
contractions can be fewer.  A jetted ``fix F x`` drops the markers above
its pending second argument, so its jet fires and those sub-runs go
unrecorded.  ``SUBRUN_HITS`` counts the runs and unquotes the table
answered with a value.  The table holds 16,384 entries.  On the search
benchmark (seed 0, two runs each on two cores), 8,192 entries left the CPU
per query where 4,096 had it, about 23 ms, and 16,384 brought it to 19-20
ms; 65,536 took peak RSS from 45.6 MB to 59 MB, 13 MB more.

Cycles: a run is deterministic, so once it comes back to a configuration
it has been in, it repeats forever.  Past ``_CYCLE_AFTER`` steps, every
non-jetted ``fix a t`` firing compares (a, t, stack) with a snapshot taken
at the first such firing at or past a step count that doubles after each
snapshot (Brent, "An improved Monte Carlo factorization algorithm", BIT
1980); a match ends the run at ``steps == fuel``, where it would have ended.
Terms compare structurally and markers by identity; the hole equals no
numeral, so a snapshot taken before a fill matches nothing after it.  The
step counts in ``_DONE`` entries differ between iterations, so a cycle
through a pending sub-run goes unseen; neither sub-run answers nor jets
change a charged step, so equal configurations have equal futures.  A
comparison too deep for Python's recursion limit ends the watch for that
run.  ``CYCLES`` counts the runs ended this way.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from operator import add

from . import coding
from .prog import ADD, MONUS
from .terms import (
    FIX,
    HOLE,
    PRIM_CODES,
    App,
    Num,
    Prim,
    Term,
    Var,
    decode_term_cached,
    encode_term,
    keep_decoded,
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


class _Read(Exception):
    """The hole was read where a numeral is needed."""


def _as_nat(t: Term) -> int:
    """The number a value denotes: numerals directly, primitives and spines
    via their code.  The hole, or a spine that holds it, raises _Read."""
    kind = type(t)
    if kind is Num:
        return t.value
    if kind is Prim:
        return PRIM_CODES[t.tag]
    if t is HOLE:
        raise _Read
    try:
        return encode_term(t)
    except TypeError:  # encode_term's answer to the hole inside a spine
        raise _Read from None


def _fill(t: Term, num: Num, memo: dict[int, Term]) -> Term:
    """t with num in place of the hole.  An application that has a code
    holds no hole; memo maps the id of each application done to its
    result, so a shared node is rebuilt once."""
    if t is HOLE:
        return num
    if type(t) is not App or t.code is not None:
        return t
    fn = t.fn
    if t.arg is HOLE and (type(fn) is Prim
                          or type(fn) is App and fn.code is not None):
        return App(fn, num)  # a primitive or a coded spine on the hole
    todo = [t]
    while todo:
        u = todo[-1]
        if id(u) in memo:
            todo.pop()
            continue
        fn = u.fn
        arg = u.arg
        waiting = len(todo)
        if type(arg) is App and arg.code is None and id(arg) not in memo:
            todo.append(arg)
        if type(fn) is App and fn.code is None and id(fn) not in memo:
            todo.append(fn)
        if len(todo) > waiting:
            continue
        todo.pop()
        fn2 = num if fn is HOLE else memo.get(id(fn), fn)
        arg2 = num if arg is HOLE else memo.get(id(arg), arg)
        memo[id(u)] = u if fn2 is fn and arg2 is arg else App(fn2, arg2)
    return memo[id(t)]


def _fill_from(stack: list, num: Num) -> None:
    """Put num in place of the hole in the stack, marker keys included."""
    old = stack.copy()  # keeps every replaced node alive, and its id its own
    memo: dict[int, Term] = {}
    for i, e in enumerate(old):
        if type(e) is tuple:
            key, s0 = e
            if key[1] is HOLE:
                stack[i] = ((key[0], num.value), s0)
        elif type(e) is App or e is HOLE:
            stack[i] = _fill(e, num, memo)


_ARG = object()
_APP = object()
_DONE = object()


@dataclass(frozen=True, slots=True, eq=False)
class Jet:
    """A Peano program ``fix fn`` that the machine runs natively.

    ``fix fn x y`` takes ``base + slope * y`` steps on numerals, of which
    the first ``pre`` bring ``fix fn x`` to a value.  On the stack a jet
    over the numeral x marks a call waiting for its second argument.
    """

    name: str
    fn: Term
    pre: int
    base: int
    slope: int
    op: Callable[[int, int], int]


_MONUS = Jet("MONUS", MONUS.arg, 72, 105, 115, lambda x, y: x - y if x > y else 0)
_ADD = Jet("ADD", ADD.arg, 74, 107, 117, add)
for _jet in (_MONUS, _ADD):
    keep_decoded(_jet.fn)

# calls answered by each jet, over the life of the process
JET_HITS = {_MONUS.name: 0, _ADD.name: 0}

# (c, n) -> (steps, value) of the run of decode(c) on numeral n, or the
# template of its run on the hole for n = HOLE; (steps, None) where it
# needs at least that many
_SUBRUNS_MAX = 16384
_subruns: OrderedDict[tuple, tuple[int, Term | None]] = OrderedDict()
# runs and unquotes answered from _subruns, over the life of the process
SUBRUN_HITS = 0

# steps a run takes before its fix firings are watched for a repeat
_CYCLE_AFTER = 32
# runs ended by a repeated configuration, over the life of the process
CYCLES = 0


def _known(c: int, x: Num, room: int) -> tuple[int, Term | None] | None:
    """The table's answer to the sub-run of c on the numeral x, with room
    steps of fuel left: (steps, value), where steps past room end the run
    and any others come with the value; or None when it must run."""
    known = _subruns.get((c, x.value))
    if known is not None and (known[1] is not None or known[0] > room):
        return known
    if (known := _subruns.get((c, HOLE))) is not None:
        if known[1] is not None:
            return known[0], _fill(known[1], x, {})
        if known[0] > room:
            return known
    return None


def _remember(key: tuple, entry: tuple[int, Term | None]) -> None:
    """Write one entry of the table, evicting the oldest past its size."""
    _subruns[key] = entry
    if len(_subruns) > _SUBRUNS_MAX:
        _subruns.popitem(last=False)


def _bound(stack: list, fuel: int) -> None:
    """Record every sub-run pending on the stack of a run that ran out as
    needing more steps than the fuel left it."""
    for i, e in enumerate(stack):
        if e is _DONE:
            key, s0 = stack[i - 1]
            _remember(key, (fuel - s0 + 1, None))


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
        # or f.fn.fn for arity 1, 2 or 3.  A Jet entry over a numeral takes
        # the value of a jetted call's second argument; a _DONE entry over
        # ((c, n), steps) records the value of a sub-run.  hole is the
        # numeral that the hole under the bottom marker stands for, until
        # it is read.  A firing that reads the hole raises _Read before it
        # changes anything.  snap holds the configuration a fix firing is
        # compared with, snap_len its stack's length, and due the step
        # count of the next snapshot.  Steps are counted in a local and
        # written back, no further than the fuel, on every exit, returns and
        # raises alike, so an overdrawn charge just returns; a run that runs
        # out bounds the sub-runs pending.
        global SUBRUN_HITS, CYCLES
        fuel = self.fuel
        steps = self.steps
        stack: list = []
        hole = None
        snap = None
        snap_len = -1
        due = _CYCLE_AFTER
        push = stack.append
        pop = stack.pop
        monus_fn = _MONUS.fn
        add_fn = _ADD.fn
        try:
            # a coded term on a numeral, as apply builds it, is the one
            # sub-run that runs on the hole
            if type(t) is App and type(t.arg) is Num:
                u = t.fn
                if type(u) is App:
                    c = u.code
                else:  # a primitive or a numeral is coded at once
                    c = None if type(u) is Var else encode_term(u)
                if c is not None:
                    if (known := _known(c, t.arg, fuel - steps)) is not None:
                        steps += known[0]
                        if steps > fuel:
                            return None
                        SUBRUN_HITS += 1
                        return known[1]
                    hole = t.arg
                    push(((c, HOLE), steps))
                    push(_DONE)
                    t = App(u, HOLE)
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
                    top = pop()
                    if top is _ARG:
                        arg = pop()
                        if not arg.room:
                            push(t)
                            push(_APP)
                            t = arg
                            break
                        f = t
                        t = arg
                    elif top is _APP:
                        f = pop()
                    elif top is _DONE:
                        key, s0 = pop()
                        _remember(key, (steps - s0, t))
                        if key[1] is HOLE:  # the run's own, at the bottom
                            t = _fill(t, hole, {})
                        continue
                    else:  # a jet, over its first argument
                        x = pop()
                        if type(t) is Num:
                            steps += top.base - top.pre + top.slope * t.value
                            if steps > fuel:
                                return None
                            JET_HITS[top.name] += 1
                            t = Num(top.op(x.value, t.value))
                            continue
                        # not a numeral: give the pre steps back and unfold
                        # fix fn x after all, then apply it to this value
                        steps -= top.pre - 1
                        push(t)
                        push(_ARG)
                        push(x)
                        push(_ARG)
                        push(top.fn)
                        push(_APP)
                        t = App(FIX, top.fn)
                        break
                    if f.room > 1:
                        t = App(f, t)
                        continue
                    if steps >= fuel:
                        return None
                    steps += 1
                    try:
                        if type(f) is Num:
                            if t is HOLE:  # an unquote on the hole
                                raise _Read
                            if type(t) is Num:
                                c = f.value
                                known = _known(c, t, fuel - steps)
                                if known is not None:
                                    steps += known[0]
                                    if steps > fuel:
                                        return None
                                    SUBRUN_HITS += 1
                                    t = known[1]
                                    continue
                                push(((c, t.value), steps))
                                push(_DONE)
                            push(t)
                            push(_ARG)
                            t = decode_term_cached(f.value)
                            break
                        # spine arguments of a value are values, so K and ifz
                        # return them without re-evaluation
                        if type(f) is Prim:
                            tag = f.tag
                        elif f is HOLE:  # an unquote of the hole
                            raise _Read
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
                            # a jet over x takes the place of the pending y,
                            # which is handed to it at once or evaluated first;
                            # the sub-runs this call ends are not remembered
                            if (a is monus_fn or a is add_fn) and type(t) is Num:
                                while stack and stack[-1] is _DONE:
                                    del stack[-2:]
                                if stack and stack[-1] is _ARG and (
                                        type(y := stack[-2]) is Num or not y.room):
                                    jet = _MONUS if a is monus_fn else _ADD
                                    steps += jet.pre - 1
                                    if steps > fuel:
                                        return None
                                    stack[-2] = t
                                    stack[-1] = jet
                                    t = y
                                    if y.room:
                                        continue
                                    break
                            # a configuration met before repeats forever
                            if steps > _CYCLE_AFTER:
                                if len(stack) == snap_len:
                                    try:
                                        same = (a, t, stack) == snap
                                    except RecursionError:  # watch no more
                                        same = False
                                        snap_len, due = -1, fuel + 1
                                    if same:
                                        CYCLES += 1
                                        steps = fuel
                                        return None
                                if steps >= due:
                                    snap = (a, t, stack.copy())
                                    snap_len = len(stack)
                                    due = 2 * steps
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
                    except _Read:
                        # n goes in place of the hole, and the firing is
                        # done again on n at the same step count
                        if hole is None:  # a hole that this run did not put out
                            raise AssertionError(f) from None
                        steps -= 1
                        push(f)
                        push(_APP)
                        push(t)
                        _fill_from(stack, hole)
                        t = pop()
                        hole = None
                else:
                    return t
        finally:
            if steps > fuel:  # an overdrawn charge ends the run at the fuel
                steps = fuel
            self.steps = steps
            if stack and steps == fuel:
                _bound(stack, fuel)


def eval_term(t: Term, fuel: int) -> tuple[Term | None, int]:
    """Reduce a term to a value term; (None, steps) on fuel exhaustion."""
    m = Machine(fuel)
    out = m.eval(t)
    return out, m.steps


def eval_to_nat(t: Term, fuel: int) -> EvalResult:
    out, steps = eval_term(t, fuel)
    if out is None:
        return OutOfFuel(steps)
    return Value(_as_nat(out))


def apply(e: int, n: int, fuel: int) -> EvalResult:
    """Kleene-style application of code e to input n under a fuel budget.

    The run is the sub-run (e, n) of the machine's table (see the module
    docstring): a repeat at any fuel, or any n when e never reads it, is
    charged the remembered steps, or ends at the fuel when they do not fit.
    """
    m = Machine(fuel)
    out = m.eval(App(decode_term_cached(e), Num(n)))
    if out is None:
        return OutOfFuel(m.steps)
    return Value(_as_nat(out))


def apply_many(e: int, ns: list[int], fuel: int) -> EvalResult:
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
def apply_cached(e: int, n: int, fuel: int) -> EvalResult:
    return apply(e, n, fuel)
