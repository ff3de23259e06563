"""Combinator terms, their bijective Godel numbering, and the text syntax.

The term language is applicative: ten primitive combinators, numerals, and
application.  Closed terms biject with the naturals: a term is its head atom
plus the list of spine arguments, and that (list, atom) pair is coded by the
phi bijection from ``coding``.  Every natural therefore decodes to a closed
term, and codes grow linearly with term size.

Variables exist only at build time (for the bracket abstractor); encoding a
term containing a variable raises ``NotClosed``.  ``HOLE`` is an atom that
only the machine builds, for a numeral it has not read; it has no code
either, and encoding a term that holds it raises ``TypeError``.

Each node fixes, when it is built, whether it is a value (no contraction can
fire inside it).  Its ``room`` is how many more arguments it takes before it
fires, and 0 when it is not a value: a primitive's arity (0 for nil, which
alone contracts to the numeral 0), 1 for a numeral (applied, it unquotes), 0
for a variable, and for an application one less than its function's, when
that is more than 1 and the argument is a value.

An application keeps its code once ``encode_term`` has computed it, so a
term shared as a DAG is coded once per distinct node, and ``subst`` returns
every node under which nothing changed, so the closed parts of a template
keep their codes from one instantiation to the next; a node that has a code
is closed, so ``subst`` does not enter it.  ``decode_term_cached`` reads one
cache of code -> term that decoding and encoding both fill: a code the
program built decodes without a walk.  ``decode_term`` hands back the terms
given to ``keep_decoded`` as themselves, so the machine can know them by
identity however their code arrives.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import ClassVar

from .coding import phi_join, phi_split
from .text import Cursor, is_name, lexer, show_nat

PRIM_NAMES = ("K", "S", "succ", "pred", "ifz", "fix", "nil", "cons", "len", "proj")
PRIM_ARITY = (2, 3, 1, 1, 3, 2, 0, 2, 1, 2)


@dataclass(frozen=True, slots=True)
class Prim:
    tag: int
    room: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "room", PRIM_ARITY[self.tag])

    def __repr__(self) -> str:
        return PRIM_NAMES[self.tag]


@dataclass(frozen=True, slots=True)
class Num:
    value: int
    room: ClassVar[int] = 1

    def __repr__(self) -> str:
        return show_nat(self.value)


@dataclass(frozen=True, slots=True)
class Var:
    name: str
    room: ClassVar[int] = 0

    def __repr__(self) -> str:
        return self.name


class Hole:
    """The machine's opaque argument of a run (see ``machine``): a value of
    room 1, as a numeral is, that has no code and prints as ``HOLE``."""

    __slots__ = ()
    room = 1

    def __repr__(self) -> str:
        return "HOLE"


HOLE = Hole()


@dataclass(frozen=True, slots=True)
class App:
    fn: "Term"
    arg: "Term"
    room: int = field(init=False, compare=False, repr=False)
    # written by encode_term; None until then
    code: int | None = field(init=False, compare=False, repr=False)

    # the machine builds one per contraction; writing the slots through
    # their descriptors costs less than __post_init__ and frozen setattr
    def __init__(self, fn: "Term", arg: "Term") -> None:
        _set_fn(self, fn)
        _set_arg(self, arg)
        room = fn.room
        _set_room(self, room - 1 if room > 1 and arg.room else 0)
        _set_code(self, None)

    def __repr__(self) -> str:
        return show_term(self)


_set_fn, _set_arg, _set_room, _set_code = (
    d.__set__ for d in (App.fn, App.arg, App.room, App.code))


Term = Prim | Num | Var | App

K, S, SUCC, PRED, IFZ, FIX, NIL, CONS, LEN, PROJ = (Prim(i) for i in range(10))


class NotClosed(ValueError):
    """Raised when a term with free variables reaches the coder."""


def is_value(t: Term) -> bool:
    """No contraction can fire inside t (see the module docstring)."""
    return t.room > 0


def ap(fn: Term, *args: Term) -> Term:
    for a in args:
        fn = App(fn, a)
    return fn


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Head atom and spine arguments: t = ((head a1) a2) ... an."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def free_vars(t: Term) -> set[str]:
    match t:
        case Var(name):
            return {name}
        case App(fn, arg):
            return free_vars(fn) | free_vars(arg)
        case _:
            return set()


def subst(t: Term, env: dict[str, Term]) -> Term:
    """Replace the named variables; a node under which nothing changes is
    returned itself, with its code."""
    if type(t) is App:
        if t.code is not None:  # only a closed node has a code
            return t
        fn = subst(t.fn, env)
        arg = subst(t.arg, env)
        return t if fn is t.fn and arg is t.arg else App(fn, arg)
    if type(t) is Var:
        return env.get(t.name, t)
    return t


# ---------------------------------------------------------------------------
# Godel numbering


def encode_term(t: Term) -> int:
    # explicit stacks, so codes may nest deeper than the recursion limit:
    # `todo` holds subterms and (application, atom, argument count) frames,
    # `codes` the codes of finished arguments in order.  An application
    # that tops a spine gets its code written when its frame closes, and
    # one that has a code is not walked again.
    if type(t) is App:
        if t.code is not None:
            return t.code
        # a one-level spine, a primitive or numeral head over arguments
        # whose codes are at hand, is coded without the walk; any other
        # argument, a hole or a variable too, leaves it to the walk
        codes: list[int] = []
        head = t
        while type(head) is App:
            arg = head.arg
            kind = type(arg)
            if kind is Num:
                codes.append(phi_join((), 10 + arg.value))
            elif kind is Prim:
                codes.append(PRIM_CODES[arg.tag])
            elif kind is App and arg.code is not None:
                codes.append(arg.code)
            else:
                break
            head = head.fn
        else:
            kind = type(head)
            if kind is Prim or kind is Num:
                codes.reverse()
                code = phi_join(codes, _atom(head))
                _set_code(t, code)
                _remember(code, t)
                return code
    codes = []
    push = codes.append
    todo: list = [t]
    pop = todo.pop
    while todo:
        u = pop()
        kind = type(u)
        if kind is tuple:
            app, atom, n = u
            k = len(codes) - n
            code = phi_join(codes[k:], atom)
            del codes[k:]
            push(code)
            _set_code(app, code)
        elif kind is Num:
            push(phi_join((), 10 + u.value))
        elif kind is Prim:
            push(PRIM_CODES[u.tag])
        elif kind is App:
            code = u.code
            if code is not None:
                push(code)
                continue
            # the frame goes under the spine arguments, which are pushed
            # last first so that the first is popped first
            frame = len(todo)
            todo.append(None)
            head = u
            while type(head) is App:
                todo.append(head.arg)
                head = head.fn
            todo[frame] = (u, _atom(head), len(todo) - frame - 1)
        else:
            _atom(u)  # a variable, or not a term: raises
    code = codes[0]
    if type(t) is App:
        _remember(code, t)
    return code


PRIM_CODES = tuple(phi_join((), tag) for tag in range(len(PRIM_NAMES)))


def _atom(head: Term) -> int:
    if type(head) is Prim:
        return head.tag
    if type(head) is Num:
        return 10 + head.value
    if type(head) is Var:
        raise NotClosed(f"free variable {head.name!r}")
    raise TypeError(head)


def decode_term(code: int) -> Term:
    """Total: every natural is the code of a closed term."""
    # the mirror image of encode_term: `todo` holds codes and
    # (head, argument count) frames, `terms` the finished arguments
    terms: list[Term] = []
    todo: list[int | tuple[Term, int]] = [code]
    while todo:
        c = todo.pop()
        if isinstance(c, tuple):
            t, n = c
            k = len(terms) - n
            for a in terms[k:]:
                t = App(t, a)
            terms[k:] = [t]
            continue
        t = _kept.get(c)
        if t is not None:
            terms.append(t)
            continue
        blocks, atom = phi_split(c)
        todo.append((Prim(atom) if atom < 10 else Num(atom - 10), len(blocks)))
        todo.extend(reversed(blocks))
    return terms[0]


# code -> the term decode_term returns for it, unwalked
_kept: dict[int, Term] = {}


def keep_decoded(t: Term) -> None:
    """Make decode_term return t itself wherever t's code occurs, at the
    top or as any subterm."""
    _kept[encode_term(t)] = t


_DECODED_MAX = 8192


class _Decoded(OrderedDict):
    """code -> term, oldest entry evicted first; a miss decodes."""

    def __missing__(self, code: int) -> Term:
        t = decode_term(code)
        if type(t) is App:
            _set_code(t, code)
        _remember(code, t)
        return t


_decoded = _Decoded()


def _remember(code: int, t: Term) -> None:
    _decoded[code] = t
    if len(_decoded) > _DECODED_MAX:
        _decoded.popitem(last=False)


# a hit is one C-level dict lookup: the machine unquotes numerals through it
decode_term_cached = _decoded.__getitem__


# ---------------------------------------------------------------------------
# text syntax
#
#   term   := lambda | app
#   lambda := '\' name+ '.' term
#   app    := atom+                      (left associative)
#   atom   := prim | numeral | name | '(' term ')'

_KEYWORDS = {name: i for i, name in enumerate(PRIM_NAMES)}


_TOKENS = lexer("(", ")", "\\", ".")


def parse_term(src: str) -> Term:
    c = Cursor(_TOKENS, src)
    t = _read_expr(c)
    c.done()
    return t


def _read_expr(c: Cursor) -> Term:
    if c.peek() == "\\":
        c.take()
        names: list[str] = []
        while c.peek() not in (".", ""):
            if not is_name(c.peek()) or c.peek() in _KEYWORDS:
                c.fail(f"bad binder {c.peek()!r}")
            names.append(c.take())
        if not names:
            c.wanted("a binder")
        c.expect(".")
        body = c.nested(_read_expr, c)
        # late import: the abstractor lives one module up
        from .bracket import compile_lambda

        for name in reversed(names):
            body = compile_lambda(name, body)
        return body
    t = _read_atom(c)
    while c.peek() not in ("", ")", "."):
        t = App(t, _read_atom(c))
    return t


def _read_atom(c: Cursor) -> Term:
    tok = c.peek()
    if tok == "(":
        c.take()
        t = c.nested(_read_expr, c)
        c.expect(")")
        return t
    if tok[:1].isdigit():
        return Num(c.nat())
    if not is_name(tok):
        c.wanted("a term")
    c.take()
    return Prim(_KEYWORDS[tok]) if tok in _KEYWORDS else Var(tok)


def show_term(t: Term) -> str:
    head, args = spine(t)
    match head:
        case Prim(tag):
            base = PRIM_NAMES[tag]
        case Num(value):
            base = show_nat(value)
        case Var(name):
            base = name
        case Hole():
            base = "HOLE"
        case _:
            raise TypeError(head)
    parts = [base]
    for a in args:
        s = show_term(a)
        parts.append(f"({s})" if isinstance(a, App) else s)
    return " ".join(parts)
