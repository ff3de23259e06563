"""Shared object-level program library.

Small combinator programs used across the workbench: tagging, guarded
conditionals, Peano arithmetic, and sequence surgery.  Everything here is a
plain closed ``Term``; callers embed these terms (or their codes) into larger
programs.

Convention: boolean-valued programs return 0 for true and 1 for false, so
``ifz`` branches on them directly.
"""

from __future__ import annotations

import itertools

from .bracket import lam
from .terms import (
    App,
    CONS,
    FIX,
    IFZ,
    LEN,
    PRED,
    PROJ,
    SUCC,
    Num,
    Term,
    Var,
    ap,
)

_fresh = itertools.count()


def gensym() -> str:
    return f"_z{next(_fresh)}"


def ite(cond: Term, then_t: Term, else_t: Term) -> Term:
    """Guarded conditional: both branches are thunked, so recursion under a
    branch does not unfold unless selected."""
    z = gensym()
    return App(ap(IFZ, cond, lam(z, then_t), lam(z, else_t)), Num(0))


def ifz_raw(cond: Term, then_t: Term, else_t: Term) -> Term:
    """Strict conditional; only safe when both branches are cheap values."""
    return ap(IFZ, cond, then_t, else_t)


def fixlam(self_name: str, *parts: str | Term) -> Term:
    """Recursive function: fix (\\self arg1 ... . body)."""
    return App(FIX, lam(self_name, *parts))


def tag0(t: Term) -> Term:
    """<0, t>"""
    return ap(CONS, Num(0), ap(CONS, t, Num(0)))


def tag1(t: Term) -> Term:
    """<1, t>"""
    return ap(CONS, Num(1), ap(CONS, t, Num(0)))


def seq2(a: Term, b: Term) -> Term:
    """<a, b>"""
    return ap(CONS, a, ap(CONS, b, Num(0)))


def p0(t: Term) -> Term:
    return ap(PROJ, t, Num(0))


def p1(t: Term) -> Term:
    return ap(PROJ, t, Num(1))


# ---------------------------------------------------------------------------
# arithmetic

# add x y = if y = 0 then x else succ (add x (pred y))
ADD = fixlam(
    "add", "x", "y",
    ite(Var("y"), Var("x"), App(SUCC, ap(Var("add"), Var("x"), App(PRED, Var("y"))))),
)

# mul x y = if y = 0 then 0 else x + mul x (pred y)
MUL = fixlam(
    "mul", "x", "y",
    ite(Var("y"), Num(0), ap(ADD, Var("x"), ap(Var("mul"), Var("x"), App(PRED, Var("y"))))),
)

# monus x y = if y = 0 then x else monus (pred x) (pred y)
MONUS = fixlam(
    "mns", "x", "y",
    ite(Var("y"), Var("x"), ap(Var("mns"), App(PRED, Var("x")), App(PRED, Var("y")))),
)

# eq01 x y: 0 iff x = y
EQ01 = lam(
    "x", "y",
    ifz_raw(ap(ADD, ap(MONUS, Var("x"), Var("y")), ap(MONUS, Var("y"), Var("x"))),
            Num(0), Num(1)),
)

# lt01 x y: 0 iff x < y
LT01 = lam(
    "x", "y",
    ifz_raw(ap(MONUS, App(SUCC, Var("x")), Var("y")), Num(0), Num(1)),
)

# mod x k, diverges for k = 0 (callers guard)
MOD = fixlam(
    "md", "x", "k",
    ite(ap(LT01, Var("x"), Var("k")), Var("x"),
        ap(Var("md"), ap(MONUS, Var("x"), Var("k")), Var("k"))),
)

# ---------------------------------------------------------------------------
# sequence surgery

# suffix s i = <s_i, ..., s_{len-1}>
SUFFIX = fixlam(
    "suf", "s", "i",
    ite(ap(LT01, Var("i"), App(LEN, Var("s"))),
        ap(CONS, ap(PROJ, Var("s"), Var("i")), ap(Var("suf"), Var("s"), App(SUCC, Var("i")))),
        Num(0)),
)

def ite_table(scrut: Term, pairs, default: Term) -> Term:
    """Finite dispatch unrolled to nested equality tests at build time.

    Linear in the table with small constants; only usable when the keys are
    small numerals, since numeral equality walks the smaller operand.
    """
    out = default
    for k, v in reversed(tuple(pairs)):
        out = ite(ap(EQ01, scrut, Num(k)), Num(v), out)
    return out
