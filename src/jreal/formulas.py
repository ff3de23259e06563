"""First-order arithmetic formulas: AST, parser, classical evaluation.

Terms are built from variables, numerals, successor, sum, and product.
Atoms are equations, strict inequalities, and named relation symbols.
Bounded quantifiers are surface sugar only: the parser rewrites
`forall x < t. p` into a guarded unbounded quantifier, and the guarded
shape is what the classifier and the realizer builder recognize.
"""

from __future__ import annotations

from dataclasses import dataclass

from .text import MAX_DEPTH, Cursor, is_name, lexer


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


def eval_term(t: TermAst, env: dict) -> int:
    match t:
        case NVar(name):
            # carriers may bind non-numeric points; arithmetic on one fails
            # downstream, but a bare variable (relation argument) passes through
            return env[name]
        case Lit(k):
            return k
        case Succ(a):
            return eval_term(a, env) + 1
        case Plus(a, b):
            return eval_term(a, env) + eval_term(b, env)
        case Times(a, b):
            return eval_term(a, env) * eval_term(b, env)
    raise TypeError(t)


def term_vars(t: TermAst) -> frozenset[str]:
    match t:
        case NVar(name):
            return frozenset({name})
        case Lit(_):
            return frozenset()
        case Succ(a):
            return term_vars(a)
        case Plus(a, b) | Times(a, b):
            return term_vars(a) | term_vars(b)
    raise TypeError(t)


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
        case Eq(l, r) | Less(l, r):
            return term_vars(l) | term_vars(r)
        case Rel(_, args):
            out: frozenset[str] = frozenset()
            for a in args:
                out |= term_vars(a)
            return out
        case And(a, b) | Or(a, b) | Imp(a, b):
            return free_vars(a) | free_vars(b)
        case All(v, body) | Ex(v, body):
            return free_vars(body) - {v}
    raise TypeError(phi)


def bound_of(phi: Formula) -> tuple[str, TermAst, Formula] | None:
    """The (var, bound, body) of a guarded quantifier, if shaped that way."""
    match phi:
        case All(v, Imp(Less(NVar(w), t), body)) if w == v and v not in term_vars(t):
            return v, t, body
        case Ex(v, And(Less(NVar(w), t), body)) if w == v and v not in term_vars(t):
            return v, t, body
    return None


def is_delta0(phi: Formula) -> bool:
    """Every quantifier guarded by a bound not mentioning its own variable."""
    match phi:
        case Eq(_, _) | Less(_, _) | Rel(_, _):
            return True
        case And(a, b) | Or(a, b) | Imp(a, b):
            return is_delta0(a) and is_delta0(b)
        case All(_, _) | Ex(_, _):
            got = bound_of(phi)
            return got is not None and is_delta0(got[2])
    raise TypeError(phi)


def truth(phi: Formula, env: dict | None = None,
          points: tuple[int, ...] | None = None) -> bool:
    """Classical truth over the naturals; quantifiers must be guarded, unless
    ``points`` is given, when every quantifier ranges over those points.
    A relation has no interpretation here: evaluating one raises."""
    env = env or {}
    match phi:
        case Eq(l, r):
            return eval_term(l, env) == eval_term(r, env)
        case Less(l, r):
            return eval_term(l, env) < eval_term(r, env)
        case Rel(name, _):
            raise ValueError(f"relation {name} has no interpretation")
        case And(a, b):
            return truth(a, env, points) and truth(b, env, points)
        case Or(a, b):
            return truth(a, env, points) or truth(b, env, points)
        case Imp(a, b):
            return (not truth(a, env, points)) or truth(b, env, points)
        case All(v, body) | Ex(v, body):
            if points is None:
                got = bound_of(phi)
                if got is None:
                    raise ValueError("unbounded quantifier has no classical "
                                     "evaluation here")
                ks = range(eval_term(got[1], env))
            else:
                ks = points
            # the guard is part of the body, so evaluate the full body
            picks = (truth(body, {**env, v: k}, points) for k in ks)
            return all(picks) if isinstance(phi, All) else any(picks)
    raise TypeError(phi)


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


class FormulaSyntaxError(ValueError):
    pass


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
            except FormulaSyntaxError:
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


def _levels(phi: Formula) -> int:
    """Levels of formula and term nodes, counted a level at a time: a
    left-nested chain is deeper than the parser ever recursed."""
    count, level = 0, [phi]
    while level:
        count += 1
        # a field holds a node, a name, a number, or (in Rel) a tuple of nodes
        fields = [getattr(node, f) for node in level for f in node.__match_args__]
        level = [v for field in fields
                 for v in (field if isinstance(field, tuple) else (field,))
                 if not isinstance(v, str | int)]
    return count


def parse_formula(text: str) -> Formula:
    """Parse ``text``; nesting past MAX_DEPTH levels is a syntax error."""
    p = _Parser(_TOKENS, text, FormulaSyntaxError)
    out = p.formula()
    p.done()
    if _levels(out) > MAX_DEPTH:
        p.fail(f"nested deeper than {MAX_DEPTH}", 0)
    return out
