"""The formula parser: printing round trips, quantifier scope, nesting bound."""

import pytest
from hypothesis import given, settings, strategies as st

from jreal.formulas import (
    All,
    And,
    Eq,
    Ex,
    FormulaSyntaxError,
    Imp,
    Less,
    Lit,
    NVar,
    Or,
    Plus,
    Rel,
    Succ,
    Times,
    parse_formula,
    show_formula,
)
from jreal.text import MAX_DEPTH

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
        with pytest.raises(FormulaSyntaxError, match=f"nested deeper than {MAX_DEPTH}"):
            parse_formula(make(n))
