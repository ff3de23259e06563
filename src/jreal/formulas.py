"""First-order arithmetic formulas: AST, parser, evaluation in a structure.

Terms are built from variables, numerals, successor, sum, and product.
Atoms are equations, strict inequalities, and named relation symbols.
Bounded quantifiers are surface sugar only: the parser rewrites
`forall x < t. p` into a guarded unbounded quantifier, and the guarded
shape is what the classifier and the realizer builder recognize.

One evaluator, ``compile_formula``, turns a formula once into closures over
a ``Structure``: ``NATURALS`` here, the limit model in ``skolem``.  Compiling
never raises; what a structure cannot read (a relation, a quantifier, an
unassigned variable) raises an ``InputError`` when evaluation reaches it, so
``0 = 1 /\\ P(x)`` is false.  ``nodes`` is the one walk over a formula's tree.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

from .text import MAX_DEPTH, Cursor, InputError, is_name, lexer


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True, slots=True)
class NVar:
    name: str


@dataclass(frozen=True, slots=True)
class Lit:
    value: int


@dataclass(frozen=True, slots=True)
class Succ:
    arg: "TermAst"


@dataclass(frozen=True, slots=True)
class Plus:
    left: "TermAst"
    right: "TermAst"


@dataclass(frozen=True, slots=True)
class Times:
    left: "TermAst"
    right: "TermAst"


TermAst = NVar | Lit | Succ | Plus | Times


def term_vars(t: TermAst | Formula) -> frozenset[str]:
    """The variables named anywhere under t, a term or an atom."""
    return frozenset(n.name for n, _ in nodes(t) if isinstance(n, NVar))


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True, slots=True)
class Eq:
    left: TermAst
    right: TermAst


@dataclass(frozen=True, slots=True)
class Less:
    left: TermAst
    right: TermAst


@dataclass(frozen=True, slots=True)
class Rel:
    name: str
    args: tuple[TermAst, ...]


@dataclass(frozen=True, slots=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Imp:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class All:
    var: str
    body: "Formula"


@dataclass(frozen=True, slots=True)
class Ex:
    var: str
    body: "Formula"


Formula = Eq | Less | Rel | And | Or | Imp | All | Ex


def free_vars(phi: Formula) -> frozenset[str]:
    match phi:
        case And(a, b) | Or(a, b) | Imp(a, b):
            return free_vars(a) | free_vars(b)
        case All(v, body) | Ex(v, body):
            return free_vars(body) - {v}
    return term_vars(phi)


def bound_of(phi: Formula) -> tuple[str, TermAst, Formula] | None:
    """The (var, bound, body) of a guarded quantifier, if shaped that way."""
    match phi:
        case All(v, Imp(Less(NVar(w), t), body)) if w == v and v not in term_vars(t):
            return v, t, body
        case Ex(v, And(Less(NVar(w), t), body)) if w == v and v not in term_vars(t):
            return v, t, body
    return None


# each node type's children, right to left
_KIDS = {Succ: lambda n: (n.arg,), All: lambda n: (n.body,),
         Ex: lambda n: (n.body,), Rel: lambda n: n.args[::-1],
         **dict.fromkeys((Plus, Times, Eq, Less, And, Or, Imp),
                         lambda n: (n.right, n.left))}


def nodes(phi: Formula | TermAst):
    """Every formula and term node under phi with its depth, phi at depth 1,
    pre-order and left to right.  Iterative, so any nesting walks."""
    stack = [(phi, 1)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        kids = _KIDS.get(type(node))
        if kids:
            stack += ((kid, depth + 1) for kid in kids(node))


def is_delta0(phi: Formula) -> bool:
    """Every quantifier guarded by a bound not mentioning its own variable."""
    return all(bound_of(n) is not None for n, _ in nodes(phi)
               if isinstance(n, All | Ex))


# ---------------------------------------------------------------------------
# evaluation: a term or formula compiled once into closures over a structure


@dataclass(frozen=True, slots=True)
class Structure:
    """Numerals, sum, product, equality and order on a carrier, and the
    carrier values below a guard's bound (None: no quantifiers)."""

    lit: Callable
    add: Callable
    mul: Callable
    eq: Callable
    lt: Callable
    ranges: Callable | None


NATURALS = Structure(int, operator.add, operator.mul, operator.eq,
                     operator.lt, range)


def compile_term(t: TermAst, s: Structure) -> Callable[[dict], object]:
    """t as a map from an environment to its value in s."""
    match t:
        case NVar(name):
            return lambda env: (env[name] if name in env
                                else _raise(f"unassigned variable {name}"))
        case Lit(k):
            v = s.lit(k)
            return lambda env: v
        case Succ(a):
            f, one, add = compile_term(a, s), s.lit(1), s.add
            return lambda env: add(f(env), one)
        case Plus(a, b) | Times(a, b):
            f, g = compile_term(a, s), compile_term(b, s)
            op = s.add if isinstance(t, Plus) else s.mul
            return lambda env: op(f(env), g(env))
    raise TypeError(t)


def compile_formula(phi: Formula, s: Structure,
                    points: tuple | None) -> Callable[[dict], bool]:
    """phi as a map from an environment to its truth in s.  A quantifier
    ranges over ``points`` when given, else below its guard's bound.  What
    cannot be read (a relation, a quantifier in a structure without them,
    an unguarded one without points, an unassigned variable) raises
    ValueError when evaluation reaches it, never here."""
    match phi:
        case Eq(l, r) | Less(l, r):
            f, g = compile_term(l, s), compile_term(r, s)
            rel = s.eq if isinstance(phi, Eq) else s.lt
            return lambda env: rel(f(env), g(env))
        case And(a, b) | Or(a, b) | Imp(a, b):
            f, g = compile_formula(a, s, points), compile_formula(b, s, points)
            if isinstance(phi, And):
                return lambda env: f(env) and g(env)
            if isinstance(phi, Or):
                return lambda env: f(env) or g(env)
            return lambda env: (not f(env)) or g(env)
        case All(v, body) | Ex(v, body):
            guarded, pick = bound_of(phi), all if isinstance(phi, All) else any
            if s.ranges is None:
                return lambda env: _raise("quantifier-free formulas only")
            if points is None and guarded is None:
                return lambda env: _raise("unbounded quantifier has no "
                                          "classical evaluation here")
            # the guard is part of the body, so evaluate the full body
            f = compile_formula(body, s, points)
            if points is not None:
                return lambda env: pick(f({**env, v: k}) for k in points)
            bound, ranges = compile_term(guarded[1], s), s.ranges
            return lambda env: pick(f({**env, v: k}) for k in ranges(bound(env)))
        case Rel(name, _):
            return lambda env: _raise(f"relation {name} has no interpretation")
    raise TypeError(phi)


def _raise(msg: str):
    raise InputError(msg)


# ---------------------------------------------------------------------------
# printing


def show_term(t: TermAst) -> str:
    match t:
        case NVar(name):
            return name
        case Lit(k):
            return str(k)
        case Succ(a):
            return f"S {_wrap_term(a, (Plus, Times))}"
        case Plus(a, b):
            return f"{show_term(a)} + {_wrap_term(b, Plus)}"
        case Times(a, b):
            return f"{_wrap_term(a, Plus)} * {_wrap_term(b, (Plus, Times))}"
    raise TypeError(t)


def _wrap_term(t: TermAst, looser) -> str:
    s = show_term(t)
    return f"({s})" if isinstance(t, looser) else s


def show_formula(phi: Formula) -> str:
    match phi:
        case Eq(l, r):
            return f"{show_term(l)} = {show_term(r)}"
        case Less(l, r):
            return f"{show_term(l)} < {show_term(r)}"
        case Rel(name, args):
            return f"{name}({', '.join(show_term(a) for a in args)})"
        case And(a, b):
            return f"{_wrap(a, (Or, Imp, All, Ex))} /\\ {_wrap(b, (And, Or, Imp, All, Ex))}"
        case Or(a, b):
            return f"{_wrap(a, (Imp, All, Ex))} \\/ {_wrap(b, (Or, Imp, All, Ex))}"
        case Imp(a, b):
            return f"{_wrap(a, (Imp, All, Ex))} -> {show_formula(b)}"
        case All(v, body):
            return f"forall {v}. {show_formula(body)}"
        case Ex(v, body):
            return f"exists {v}. {show_formula(body)}"
    raise TypeError(phi)


def _wrap(phi: Formula, looser: tuple) -> str:
    s = show_formula(phi)
    return f"({s})" if isinstance(phi, looser) else s


# ---------------------------------------------------------------------------
# parsing


_TOKENS = lexer("->", "\\/", "/\\", "(", ")", ".", ",", "=", "<", "+", "*")


class _Parser(Cursor):
    __slots__ = ()

    def formula(self) -> Formula:
        left = self.disj()
        if self.peek() == "->":
            self.take()
            return Imp(left, self.nested(self.formula))
        return left

    def disj(self) -> Formula:
        out = self.conj()
        while self.peek() == "\\/":
            self.take()
            out = Or(out, self.conj())
        return out

    def conj(self) -> Formula:
        out = self.atom()
        while self.peek() == "/\\":
            self.take()
            out = And(out, self.atom())
        return out

    def atom(self) -> Formula:
        tok = self.peek()
        if tok in ("forall", "exists"):
            # the body runs as far right as it can
            self.take()
            var = self.peek()
            if not is_name(var) or var in ("forall", "exists", "S"):
                self.wanted("a variable")
            self.take()
            bound: TermAst | None = None
            if self.peek() == "<":
                self.take()
                bound = self.term()
            self.expect(".")
            body = self.nested(self.formula)
            if tok == "forall":
                return (All(var, body) if bound is None
                        else All(var, Imp(Less(NVar(var), bound), body)))
            return (Ex(var, body) if bound is None
                    else Ex(var, And(Less(NVar(var), bound), body)))
        if tok == "(":
            # a parenthesized formula, unless the suffix continues a term
            mark = self.i, self.depth
            self.take()
            try:
                inner = self.nested(self.formula)
                self.expect(")")
                if self.peek() not in ("=", "<", "+", "*"):
                    return inner
            except InputError:
                pass
            self.i, self.depth = mark
            return self._relational()
        if tok[:1].isupper() and tok != "S":
            self.take()
            self.expect("(")
            args = [self.term()]
            while self.peek() == ",":
                self.take()
                args.append(self.term())
            self.expect(")")
            return Rel(tok, tuple(args))
        return self._relational()

    def _relational(self) -> Formula:
        left = self.term()
        op = self.peek()
        if op not in ("=", "<"):
            self.wanted("'=' or '<'")
        self.take()
        return (Eq if op == "=" else Less)(left, self.term())

    def term(self) -> TermAst:
        out = self.factor()
        while self.peek() == "+":
            self.take()
            out = Plus(out, self.factor())
        return out

    def factor(self) -> TermAst:
        out = self.prim()
        while self.peek() == "*":
            self.take()
            out = Times(out, self.prim())
        return out

    def prim(self) -> TermAst:
        tok = self.peek()
        if tok == "S":
            self.take()
            return Succ(self.nested(self.prim))
        if tok[:1].isdigit():
            return Lit(self.nat())
        if is_name(tok) and tok not in ("forall", "exists"):
            self.take()
            return NVar(tok)
        if tok == "(":
            self.take()
            t = self.nested(self.term)
            self.expect(")")
            return t
        self.wanted("a term")


def parse_formula(text: str) -> Formula:
    """Parse ``text``; nesting past MAX_DEPTH levels is a syntax error."""
    p = _Parser(_TOKENS, text)
    out = p.formula()
    p.done()
    if max(depth for _, depth in nodes(out)) > MAX_DEPTH:
        p.fail(f"nested deeper than {MAX_DEPTH}", 0)
    return out
