"""The formula parser (printing round trips, quantifier scope, nesting
bound), and the compiled evaluator against the reference interpreters."""

import pytest
from hypothesis import given, settings, strategies as st

import support
from jreal.formulas import (
    NATURALS,
    All,
    And,
    Eq,
    Ex,
    Imp,
    Less,
    Lit,
    NVar,
    Or,
    Plus,
    Rel,
    Succ,
    Times,
    compile_formula,
    is_delta0,
    nodes,
    parse_formula,
    show_formula,
)
from jreal.quasipoly import enumerate_qp
from jreal.skolem import Model, limit_structure
from jreal.text import MAX_DEPTH, InputError

NAMES = st.sampled_from(["x", "y", "n_1"])


def _terms(inner):
    return st.one_of(
        st.builds(Succ, inner),
        st.builds(Plus, inner, inner),
        st.builds(Times, inner, inner),
    )


TERMS = st.recursive(st.one_of(NAMES.map(NVar), st.integers(0, 99).map(Lit)),
                     _terms, max_leaves=5)
ATOMS = st.one_of(
    st.builds(Eq, TERMS, TERMS),
    st.builds(Less, TERMS, TERMS),
    st.builds(Rel, st.sampled_from(["P", "Q"]),
              st.lists(TERMS, min_size=1, max_size=2).map(tuple)),
)
FORMULAS = st.recursive(ATOMS, lambda inner: st.one_of(
    st.builds(And, inner, inner),
    st.builds(Or, inner, inner),
    st.builds(Imp, inner, inner),
    st.builds(All, NAMES, inner),
    st.builds(Ex, NAMES, inner),
), max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(FORMULAS)
def test_printed_formulas_parse_back(phi):
    assert parse_formula(show_formula(phi)) == phi


ZERO = Eq(Lit(0), Lit(0))
X = Eq(NVar("x"), NVar("x"))

# a quantifier on the right of a binary connective takes everything after it
RIGHT_OPERAND = {
    "0 = 0 /\\ forall x. x = x \\/ 0 = 0": And(ZERO, All("x", Or(X, ZERO))),
    "0 = 0 /\\ 0 = 0 /\\ exists x. x = x": And(And(ZERO, ZERO), Ex("x", X)),
    "0 = 0 \\/ exists x. x = x /\\ 0 = 0": Or(ZERO, Ex("x", And(X, ZERO))),
    "0 = 0 /\\ 0 = 0 \\/ forall x < 3. x = x":
        Or(And(ZERO, ZERO), All("x", Imp(Less(NVar("x"), Lit(3)), X))),
    "0 = 0 -> forall x. x = x -> 0 = 0": Imp(ZERO, All("x", Imp(X, ZERO))),
    "0 = 0 -> 0 = 0 \\/ exists x. x = x -> 0 = 0":
        Imp(ZERO, Or(ZERO, Ex("x", Imp(X, ZERO)))),
}


@pytest.mark.parametrize("text", sorted(RIGHT_OPERAND))
def test_quantifier_as_right_operand(text):
    assert parse_formula(text) == RIGHT_OPERAND[text]


# n copies of each shape, and the largest n whose nesting stays within
# MAX_DEPTH: parentheses count one level each, and a tree of formula and
# term nodes counts its levels
DEEP = {
    "parens": (lambda n: "(" * n + "0 = 0" + ")" * n, MAX_DEPTH),
    "term parens": (lambda n: "(" * n + "0" + ")" * n + " = 0", MAX_DEPTH),
    "conjuncts": (lambda n: " /\\ ".join(["0 = 0"] * n), MAX_DEPTH - 1),
    "arrows": (lambda n: " -> ".join(["0 = 0"] * n), MAX_DEPTH - 1),
    "quantifiers": (lambda n: "forall x. " * n + "x = x", MAX_DEPTH - 2),
    "successors": (lambda n: "S " * n + "0 = 0", MAX_DEPTH - 2),
}


@pytest.mark.parametrize("name", sorted(DEEP))
def test_nesting_is_bounded(name):
    make, deepest = DEEP[name]
    parse_formula(make(deepest))
    for n in (deepest + 1, 3000):
        with pytest.raises(InputError, match=f"nested deeper than {MAX_DEPTH}"):
            parse_formula(make(n))


# ---------------------------------------------------------------------------
# the compiled evaluator against the tree-walking oracle in tests/support.py

VARS = st.sampled_from(["x", "y", "z"])
# guard bounds stay small, so nested bounded quantifiers stay cheap
SMALL = st.recursive(
    st.one_of(VARS.map(NVar), st.integers(0, 4).map(Lit)),
    lambda inner: st.one_of(st.builds(Succ, inner), st.builds(Plus, inner, inner)),
    max_leaves=3)
EVAL_TERMS = st.recursive(SMALL, _terms, max_leaves=4)
# a relation in about one atom of seven
EVAL_ATOMS = st.one_of(
    *[st.builds(Eq, EVAL_TERMS, EVAL_TERMS), st.builds(Less, EVAL_TERMS, EVAL_TERMS)] * 3,
    st.builds(Rel, st.just("P"), st.tuples(EVAL_TERMS)))


def _connected(quantifiers: int):
    """Inner nodes: connectives, and quantifiers in about ``quantifiers``
    of every 3 + ``quantifiers``, guarded or not (a bound mentioning its own
    variable also leaves a quantifier unguarded)."""
    def extend(inner):
        quantified = st.one_of(
            st.builds(lambda v, t, b: All(v, Imp(Less(NVar(v), t), b)), VARS, SMALL, inner),
            st.builds(lambda v, t, b: Ex(v, And(Less(NVar(v), t), b)), VARS, SMALL, inner),
            st.builds(All, VARS, inner), st.builds(Ex, VARS, inner))
        return st.one_of(st.builds(And, inner, inner), st.builds(Or, inner, inner),
                         st.builds(Imp, inner, inner), *[quantified] * quantifiers)
    return extend


EVAL_FORMULAS = st.recursive(EVAL_ATOMS, _connected(2), max_leaves=6)
# mostly quantifier-free: the limit structure interprets no quantifier
QF_FORMULAS = st.recursive(EVAL_ATOMS, _connected(0), max_leaves=6)
LIMIT_FORMULAS = st.one_of(QF_FORMULAS, QF_FORMULAS, QF_FORMULAS, EVAL_FORMULAS)
# every variable assigned, or only some
ENVS = (st.fixed_dictionaries({v: st.integers(0, 6) for v in "xyz"})
        | st.dictionaries(VARS, st.integers(0, 6)))


def outcome(fn, *args):
    """The value with its type, or the error's type and message."""
    try:
        got = fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return type(got), got


@settings(max_examples=400, deadline=None)
@given(EVAL_FORMULAS, ENVS, st.none() | st.integers(0, 4).map(range).map(tuple))
def test_compiled_naturals_agree_with_the_interpreter(phi, env, points):
    assert (outcome(compile_formula(phi, NATURALS, points), env)
            == outcome(support.truth, phi, env, points))


ELEM = st.integers(0, 30).map(enumerate_qp)
ELEMS = st.fixed_dictionaries({v: ELEM for v in "xyz"}) | st.dictionaries(VARS, ELEM)


@settings(max_examples=200, deadline=None)
@given(LIMIT_FORMULAS, ELEMS)
def test_compiled_limit_agrees_with_the_interpreter(phi, asn):
    # each reading on its own model: both must also settle the same
    # comparisons in the same order, so both chains end alike
    mine, theirs = Model(), Model()
    got = outcome(compile_formula(phi, limit_structure(mine), None), asn)
    assert got == outcome(support.truth_qf, theirs, phi, asn)
    assert mine.state == theirs.state


@settings(max_examples=300, deadline=None)
@given(EVAL_FORMULAS)
def test_one_walk_agrees_with_the_recursive_ones(phi):
    assert is_delta0(phi) == support.is_delta0(phi)
    assert max(depth for _, depth in nodes(phi)) == support.levels(phi)
    if not any(isinstance(n, Rel | All | Ex) for n, _ in nodes(phi)):
        assert ([(n.left, n.right) for n, _ in nodes(phi) if isinstance(n, Eq | Less)]
                == list(support.atoms(phi)))
