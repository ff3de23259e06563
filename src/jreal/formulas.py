"""First-order arithmetic formulas: AST, parser, classical evaluation.

Terms are built from variables, numerals, successor, sum, and product.
Atoms are equations, strict inequalities, and named relation symbols.
Bounded quantifiers are surface sugar only: the parser rewrites
`forall x < t. p` into a guarded unbounded quantifier, and the guarded
shape is what the classifier and the realizer builder recognize.
"""

from __future__ import annotations

from dataclasses import dataclass


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
            return f"S {show_term(a)}"
        case Plus(a, b):
            return f"{show_term(a)} + {show_term(b)}"
        case Times(a, b):
            la = show_term(a) if not isinstance(a, Plus) else f"({show_term(a)})"
            rb = show_term(b) if not isinstance(b, (Plus, Times)) else f"({show_term(b)})"
            return f"{la} * {rb}"
    raise TypeError(t)


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


# the deepest nesting parse_formula accepts: formula consumers recurse per level
MAX_DEPTH = 64


class FormulaSyntaxError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} at position {pos}")
        self.pos = pos


_SYMBOLS = ("->", "\\/", "/\\", "(", ")", ".", ",", "=", "<", "+", "*")


def _tokens(text: str) -> list[tuple[str, str, int]]:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                out.append(("sym", sym, i))
                i += len(sym)
                break
        else:
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                out.append(("num", text[i:j], i))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                out.append(("name", text[i:j], i))
                i = j
            else:
                raise FormulaSyntaxError(f"stray character {ch!r}", i)
    out.append(("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0
        self.depth = 0  # parts open around the current token

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def take(self) -> tuple[str, str, int]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, value: str) -> None:
        kind, got, pos = self.take()
        if got != value:
            raise FormulaSyntaxError(f"expected {value!r}, found {got or 'end'!r}", pos)

    def nested(self, parse):
        """Run a parse method one level deeper, refusing past MAX_DEPTH."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise FormulaSyntaxError(f"nested deeper than {MAX_DEPTH}", self.peek()[2])
        out = parse()
        self.depth -= 1
        return out

    def formula(self) -> Formula:
        left = self.disj()
        if self.peek()[1] == "->":
            self.take()
            return Imp(left, self.nested(self.formula))
        return left

    def disj(self) -> Formula:
        out = self.conj()
        while self.peek()[1] == "\\/":
            self.take()
            out = Or(out, self.conj())
        return out

    def conj(self) -> Formula:
        out = self.atom()
        while self.peek()[1] == "/\\":
            self.take()
            out = And(out, self.atom())
        return out

    def atom(self) -> Formula:
        kind, val, pos = self.peek()
        if val in ("forall", "exists"):
            # the body runs as far right as it can
            self.take()
            k2, var, p2 = self.take()
            if k2 != "name" or var in ("forall", "exists", "S"):
                raise FormulaSyntaxError("expected a variable", p2)
            bound: TermAst | None = None
            if self.peek()[1] == "<":
                self.take()
                bound = self.term()
            self.expect(".")
            body = self.nested(self.formula)
            if val == "forall":
                return (All(var, body) if bound is None
                        else All(var, Imp(Less(NVar(var), bound), body)))
            return (Ex(var, body) if bound is None
                    else Ex(var, And(Less(NVar(var), bound), body)))
        if val == "(":
            # a parenthesized formula, unless the suffix continues a term
            mark = self.i, self.depth
            self.take()
            try:
                inner = self.nested(self.formula)
                self.expect(")")
                if self.peek()[1] not in ("=", "<", "+", "*"):
                    return inner
            except FormulaSyntaxError:
                pass
            self.i, self.depth = mark
            return self._relational()
        if kind == "name" and val[0].isupper() and val != "S":
            self.take()
            self.expect("(")
            args = [self.term()]
            while self.peek()[1] == ",":
                self.take()
                args.append(self.term())
            self.expect(")")
            return Rel(val, tuple(args))
        return self._relational()

    def _relational(self) -> Formula:
        left = self.term()
        kind, op, pos = self.take()
        if op == "=":
            return Eq(left, self.term())
        if op == "<":
            return Less(left, self.term())
        raise FormulaSyntaxError(f"expected '=' or '<', found {op or 'end'!r}", pos)

    def term(self) -> TermAst:
        out = self.factor()
        while self.peek()[1] == "+":
            self.take()
            out = Plus(out, self.factor())
        return out

    def factor(self) -> TermAst:
        out = self.prim()
        while self.peek()[1] == "*":
            self.take()
            out = Times(out, self.prim())
        return out

    def prim(self) -> TermAst:
        kind, val, pos = self.take()
        if val == "S":
            return Succ(self.nested(self.prim))
        if kind == "num":
            return Lit(int(val))
        if kind == "name" and val not in ("forall", "exists"):
            return NVar(val)
        if val == "(":
            t = self.nested(self.term)
            self.expect(")")
            return t
        raise FormulaSyntaxError(f"expected a term, found {val or 'end'!r}", pos)


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
    p = _Parser(text)
    out = p.formula()
    kind, val, pos = p.peek()
    if kind != "end":
        raise FormulaSyntaxError(f"unexpected {val!r}", pos)
    if _levels(out) > MAX_DEPTH:
        raise FormulaSyntaxError(f"nested deeper than {MAX_DEPTH}", 0)
    return out
