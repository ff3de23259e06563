"""Combinator terms, their bijective Godel numbering, and the text syntax.

The term language is applicative: ten primitive combinators, numerals, and
application.  Closed terms biject with the naturals: a term is its head atom
plus the list of spine arguments, and that (list, atom) pair is coded by the
phi bijection from ``coding``.  Every natural therefore decodes to a closed
term, and codes grow linearly with term size.

Variables exist only at build time (for the bracket abstractor); encoding a
term containing a variable raises ``NotClosed``.

Each node fixes, when it is built, whether it is a value (no contraction can
fire inside it).  Its ``room`` is how many more arguments it takes before it
fires, and 0 when it is not a value: a primitive's arity (0 for nil, which
alone contracts to the numeral 0), 1 for a numeral (applied, it unquotes), 0
for a variable, and for an application one less than its function's, when
that is more than 1 and the argument is a value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar

from .coding import phi_join, phi_split

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
        return str(self.value)


@dataclass(frozen=True, slots=True)
class Var:
    name: str
    room: ClassVar[int] = 0

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class App:
    fn: "Term"
    arg: "Term"
    room: int = field(init=False, compare=False, repr=False)

    # the machine builds one per contraction; writing the slots through
    # their descriptors costs less than __post_init__ and frozen setattr
    def __init__(self, fn: "Term", arg: "Term") -> None:
        _set_fn(self, fn)
        _set_arg(self, arg)
        room = fn.room
        _set_room(self, room - 1 if room > 1 and arg.room else 0)

    def __repr__(self) -> str:
        return show_term(self)


_set_fn, _set_arg, _set_room = (d.__set__ for d in (App.fn, App.arg, App.room))


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
    match t:
        case Var(name):
            return env.get(name, t)
        case App(fn, arg):
            return App(subst(fn, env), subst(arg, env))
        case _:
            return t


# ---------------------------------------------------------------------------
# Godel numbering


def encode_term(t: Term) -> int:
    # explicit stacks, so codes may nest deeper than the recursion limit:
    # `todo` holds subterms and (atom, argument count) frames, `codes` the
    # codes of finished arguments in order
    codes: list[int] = []
    todo: list[Term | tuple[int, int]] = [t]
    while todo:
        u = todo.pop()
        if isinstance(u, tuple):
            atom, n = u
            k = len(codes) - n
            codes[k:] = [phi_join(codes[k:], atom)]
            continue
        head, args = spine(u)
        match head:
            case Prim(tag):
                atom = tag
            case Num(value):
                atom = 10 + value
            case Var(name):
                raise NotClosed(f"free variable {name!r}")
            case _:
                raise TypeError(head)
        todo.append((atom, len(args)))
        todo.extend(reversed(args))
    return codes[0]


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
        blocks, atom = phi_split(c)
        todo.append((Prim(atom) if atom < 10 else Num(atom - 10), len(blocks)))
        todo.extend(reversed(blocks))
    return terms[0]


@lru_cache(maxsize=8192)
def decode_term_cached(code: int) -> Term:
    return decode_term(code)


# ---------------------------------------------------------------------------
# text syntax
#
#   term   := lambda | app
#   lambda := '\' name+ '.' term
#   app    := atom+                      (left associative)
#   atom   := prim | numeral | name | '(' term ')'

_KEYWORDS = {name: i for i, name in enumerate(PRIM_NAMES)}


class TermSyntaxError(ValueError):
    pass


def _tokenize(src: str) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
        elif ch in "()\\.":
            out.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            out.append(src[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(src[i:j])
            i = j
        else:
            raise TermSyntaxError(f"bad character {ch!r} at {i}")
    return out


def parse_term(src: str) -> Term:
    tokens = _tokenize(src)
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise TermSyntaxError("unexpected end of input")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_expr() -> Term:
        if peek() == "\\":
            take()
            names: list[str] = []
            while peek() not in (".", None):
                tok = take()
                if not (tok[0].isalpha() or tok[0] == "_") or tok in _KEYWORDS:
                    raise TermSyntaxError(f"bad binder {tok!r}")
                names.append(tok)
            if take() != "." or not names:
                raise TermSyntaxError("malformed lambda")
            body = parse_expr()
            # late import: the abstractor lives one module up
            from .bracket import compile_lambda

            for name in reversed(names):
                body = compile_lambda(name, body)
            return body
        t = parse_atom()
        while peek() not in (None, ")", "."):
            t = App(t, parse_atom())
        return t

    def parse_atom() -> Term:
        tok = take()
        if tok == "(":
            t = parse_expr()
            if take() != ")":
                raise TermSyntaxError("missing )")
            return t
        if tok.isdigit():
            return Num(int(tok))
        if tok in _KEYWORDS:
            return Prim(_KEYWORDS[tok])
        if tok[0].isalpha() or tok[0] == "_":
            return Var(tok)
        raise TermSyntaxError(f"unexpected token {tok!r}")

    t = parse_expr()
    if pos != len(tokens):
        raise TermSyntaxError(f"trailing input at token {pos}")
    return t


def show_term(t: Term) -> str:
    head, args = spine(t)
    match head:
        case Prim(tag):
            base = PRIM_NAMES[tag]
        case Num(value):
            base = str(value)
        case Var(name):
            base = name
        case _:
            raise TypeError(head)
    parts = [base]
    for a in args:
        s = show_term(a)
        parts.append(f"({s})" if isinstance(a, App) else s)
    return " ".join(parts)
