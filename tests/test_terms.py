"""Term syntax, Godel numbering, and the text reader/printer."""

import pytest
from hypothesis import given, strategies as st

from jreal.terms import (
    App,
    CONS,
    FIX,
    IFZ,
    K,
    NIL,
    NotClosed,
    Num,
    PRIM_ARITY,
    PRIM_NAMES,
    Prim,
    S,
    SUCC,
    TermSyntaxError,
    Var,
    ap,
    decode_term,
    encode_term,
    is_value,
    parse_term,
    show_term,
    spine,
    subst,
)

closed_terms = st.recursive(
    st.one_of(
        st.integers(min_value=0, max_value=9).map(Prim),
        st.integers(min_value=0, max_value=200).map(Num),
    ),
    lambda sub: st.tuples(sub, sub).map(lambda fa: App(*fa)),
    max_leaves=25,
)

# atoms of every kind (nil, numerals, variables), grown into spines of up to
# four arguments whose heads may be spines again, so over-applied primitives
# and applied numerals are common
any_terms = st.recursive(
    st.one_of(
        st.integers(min_value=0, max_value=9).map(Prim),
        st.integers(min_value=0, max_value=200).map(Num),
        st.sampled_from("xyz").map(Var),
    ),
    lambda sub: st.tuples(sub, st.lists(sub, min_size=1, max_size=4)).map(
        lambda ha: ap(ha[0], *ha[1])),
    max_leaves=30,
)


def test_frozen_atom_codes():
    assert encode_term(K) == 0
    assert encode_term(S) == 1
    assert encode_term(SUCC) == 2
    assert encode_term(NIL) == 8
    assert decode_term(20) == Num(0)
    assert decode_term(11) == ap(S, K, K)  # the identity has code 11


def test_decode_is_total_and_encode_inverts_it():
    for c in range(5_000):
        assert encode_term(decode_term(c)) == c


@given(st.integers(min_value=0, max_value=10**12))
def test_decode_then_encode(c):
    assert encode_term(decode_term(c)) == c


@given(closed_terms)
def test_encode_then_decode(t):
    assert decode_term(encode_term(t)) == t


def test_open_terms_have_no_code():
    with pytest.raises(NotClosed):
        encode_term(Var("x"))
    with pytest.raises(NotClosed):
        encode_term(App(K, Var("x")))


def test_spine():
    t = ap(IFZ, Num(0), K, S)
    assert spine(t) == (IFZ, [Num(0), K, S])
    assert spine(Num(3)) == (Num(3), [])


def test_subst():
    t = App(App(Var("f"), Var("x")), Num(1))
    got = subst(t, {"f": SUCC, "x": Num(4)})
    assert got == App(App(SUCC, Num(4)), Num(1))
    # binders do not exist at this level; substitution is plain leaf swap
    assert subst(Var("y"), {"x": K}) == Var("y")


@given(closed_terms)
def test_printer_reader_roundtrip(t):
    assert parse_term(show_term(t)) == t


def test_parse_application_is_left_associative():
    assert parse_term("K S succ") == ap(K, S, SUCC)
    assert parse_term("K (S succ)") == App(K, App(S, SUCC))


def test_parse_lambda_compiles_and_runs():
    from jreal.machine import Value, apply

    t = parse_term(r"\x. cons 0 (cons x nil)")
    got = apply(encode_term(t), 9)
    assert isinstance(got, Value)
    from jreal.coding import decode_seq

    assert decode_seq(got.value) == (0, 9)


def test_parse_rejects_garbage():
    for src in ["", "(", "K)", r"\. x", r"\x", "K %"]:
        with pytest.raises(TermSyntaxError):
            parse_term(src)


def test_prim_names_are_the_parser_keywords():
    for name in PRIM_NAMES:
        t = parse_term(name)
        assert isinstance(t, Prim)
        assert show_term(t) == name


def _value_by_walk(t) -> bool:
    """Reference predicate: walk the spine and its arguments."""
    head, args = spine(t)
    if isinstance(head, Num):
        return not args  # an applied numeral is an unquote redex
    if isinstance(head, Prim):
        return (head.tag != 6 and len(args) < PRIM_ARITY[head.tag]
                and all(_value_by_walk(a) for a in args))
    return False


@given(any_terms)
def test_is_value_agrees_with_the_spine_walk(t):
    todo = [t]  # every subterm, so a disagreement deep inside is not masked
    while todo:
        u = todo.pop()
        assert is_value(u) == _value_by_walk(u), show_term(u)
        if isinstance(u, App):
            todo += [u.fn, u.arg]


def test_is_value_cases():
    x = Var("x")
    for t in [K, S, Num(7), App(K, Num(1)), ap(S, K, K), ap(IFZ, Num(0), K),
              App(CONS, App(K, S))]:
        assert is_value(t), show_term(t)
    for t in [NIL, x, App(K, x), ap(K, Num(1), Num(2)), App(Num(3), K),
              App(K, NIL), ap(S, K, App(SUCC, Num(0))), App(x, K)]:
        assert not is_value(t), show_term(t)
