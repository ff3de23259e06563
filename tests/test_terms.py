"""Term syntax, Godel numbering, and the text reader/printer."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

import support
from jreal import prog, terms
from jreal.terms import (
    App,
    CONS,
    FIX,
    HOLE,
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
    Var,
    ap,
    decode_term,
    decode_term_cached,
    encode_term,
    free_vars,
    is_value,
    parse_term,
    show_term,
    spine,
    subst,
)
from jreal.text import MAX_DEPTH, InputError

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


# closed terms with numerals of 2^64 size, some wrapped 1 to 1,500 levels
# deep in argument or in function position, past the recursion limit
def _nest(leaf_depth_side):
    t, depth, side = leaf_depth_side
    for i in range(depth):
        t = App(SUCC, t) if side else App(t, Num(i))
    return t


big_closed_terms = st.recursive(
    st.one_of(
        st.integers(min_value=0, max_value=9).map(Prim),
        st.integers(min_value=0, max_value=2**64).map(Num),
    ),
    lambda sub: st.tuples(sub, sub).map(lambda fa: App(*fa)),
    max_leaves=25,
)
coded_terms = st.one_of(
    big_closed_terms,
    st.tuples(big_closed_terms, st.integers(min_value=1, max_value=1_500),
              st.booleans()).map(_nest),
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


def _rebuild(t, share: bool):
    """A copy of t with fresh, uncoded applications; with share, one node
    per distinct subterm, so the copy is a DAG."""
    nodes: dict = {}
    done: list = []
    todo: list = [t]
    while todo:
        u = todo.pop()
        if u is None:
            arg, fn = done.pop(), done.pop()
            key = (id(fn), id(arg))
            if share and key in nodes:
                done.append(nodes[key])
            else:
                nodes[key] = App(fn, arg)
                done.append(nodes[key])
        elif isinstance(u, App):
            todo += [None, u.arg, u.fn]
        else:
            done.append(u)
    return done[0]


def _same_tree(a, b) -> bool:
    """Structural equality without recursion."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if isinstance(x, App) and isinstance(y, App):
            todo += [(x.fn, y.fn), (x.arg, y.arg)]
        elif isinstance(x, App) or isinstance(y, App) or x != y:
            return False
    return True


@settings(deadline=None)
@given(coded_terms)
def test_remembered_codes_agree_with_fresh_coding(t):
    code = encode_term(t)
    assert encode_term(t) == code
    assert encode_term(_rebuild(t, share=False)) == code
    assert encode_term(_rebuild(t, share=True)) == code
    assert _same_tree(decode_term(code), t)
    assert _same_tree(decode_term_cached(code), decode_term(code))


def test_a_dag_is_coded_once_per_node(monkeypatch):
    t = Num(2**64)
    for _ in range(16):
        t = ap(K, t, t)  # 2^16 leaves, 16 distinct applications
    tree_code = encode_term(_rebuild(t, share=False))
    calls = 0
    join = terms.phi_join

    def counted(blocks, tail):
        nonlocal calls
        calls += 1
        return join(blocks, tail)

    monkeypatch.setattr(terms, "phi_join", counted)
    assert encode_term(t) == tree_code
    assert calls == 18  # 16 spines, and the numeral at both its places


@given(any_terms, st.sets(st.sampled_from("xyzw")))
def test_subst_keeps_what_it_does_not_change(t, names):
    env = {name: App(K, Num(i)) for i, name in enumerate(sorted(names))}
    got = subst(t, env)
    if not names & free_vars(t):
        assert got is t
    assert not names & free_vars(got)
    assert got == _subst_by_rebuild(t, env)
    if isinstance(t, App):
        for old, new in ((t.fn, got.fn), (t.arg, got.arg)):
            assert (new is old) == (not names & free_vars(old))


def test_a_second_instantiation_skips_the_coded_parts(monkeypatch):
    # encoding an instance codes the closed subterms it shares with the
    # template, and subst does not enter a node with a code: the second
    # instantiation visits the open spine only, 13 nodes, where a full walk
    # of this template makes 1,125 visits
    tmpl = ap(prog.MOD, ap(prog.ADD, Var("x"), Num(1)), Num(3))
    encode_term(subst(tmpl, {"x": Num(1)}))
    visits = 0
    walk = terms.subst

    def counted(t, env):
        nonlocal visits
        visits += 1
        return walk(t, env)

    monkeypatch.setattr(terms, "subst", counted)
    got = terms.subst(tmpl, {"x": Num(2)})
    assert got == _subst_by_rebuild(tmpl, {"x": Num(2)})
    assert visits <= 13 < _size(tmpl) // 10


def _size(t):
    return 1 + _size(t.fn) + _size(t.arg) if isinstance(t, App) else 1


def _subst_by_rebuild(t, env):
    if isinstance(t, App):
        return App(_subst_by_rebuild(t.fn, env), _subst_by_rebuild(t.arg, env))
    if isinstance(t, Var):
        return env.get(t.name, t)
    return t


def _one_level(rng, depth):
    """A primitive or numeral head over numerals, primitives and spines,
    some of them coded already and some not."""
    head = rng.choice((Prim(rng.randrange(10)), Num(rng.randrange(40))))
    args = []
    for _ in range(rng.randrange(5)):
        kind = rng.randrange(4 if depth else 2)
        if kind == 0:
            args.append(Num(rng.choice((0, 1, 9, 2**70))))
        elif kind == 1:
            args.append(Prim(rng.randrange(10)))
        else:
            arg = _one_level(rng, depth - 1)
            if kind == 2:
                encode_term(arg)
            args.append(arg)
    return ap(head, *args)


# the spine coded without the walk against the walk kept in tests/support.py
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_one_level_spines_code_as_the_walk_does(seed):
    rng = random.Random(seed)
    t = _one_level(rng, 2)
    code = encode_term(t)
    assert code == support.encode_by_walk(t)
    if isinstance(t, App):
        assert t.code == code and decode_term_cached(code) is t
    assert _same_tree(decode_term(code), t)


@pytest.mark.parametrize("bad, error", [(Var("x"), NotClosed), (HOLE, TypeError)])
def test_a_variable_or_hole_argument_still_raises(bad, error):
    for t in (ap(K, Num(1), bad), ap(K, bad, Num(1)), ap(Num(3), Prim(0), bad)):
        with pytest.raises(error):
            encode_term(t)
        assert t.code is None


def test_open_terms_have_no_code():
    with pytest.raises(NotClosed):
        encode_term(Var("x"))
    with pytest.raises(NotClosed):
        encode_term(App(K, Var("x")))


def test_applications_are_frozen_structural_values():
    a, b = App(K, Num(3)), App(K, Num(3))
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != App(K, Num(4)) and a.room == 1
    match a:
        case App(fn, arg):
            assert (fn, arg) == (K, Num(3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.fn = S
    assert repr(a) == "K 3"


def test_numerals_past_the_digit_limit_print_by_size():
    # 10**5000 has 5,001 digits, past what str() prints
    big = Num(10**5000)
    assert repr(App(K, big)) == "K <16610-bit number>"
    assert repr(App(big, K)) == repr(big) + " K" == "<16610-bit number> K"


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
    from jreal.machine import DEFAULT_FUEL, Value, apply

    t = parse_term(r"\x. cons 0 (cons x nil)")
    got = apply(encode_term(t), 9, DEFAULT_FUEL)
    assert isinstance(got, Value)
    from jreal.coding import decode_seq

    assert decode_seq(got.value) == (0, 9)


def test_parse_rejects_garbage():
    for src in ["", "(", "K)", r"\. x", r"\x", "K %"]:
        with pytest.raises(InputError):
            parse_term(src)


@pytest.mark.parametrize("make", [lambda n: "(" * n + "K" + ")" * n,
                                  lambda n: "\\x. " * n + "x"],
                         ids=["parens", "lambdas"])
def test_term_nesting_is_bounded(make):
    parse_term(make(MAX_DEPTH))
    for n in (MAX_DEPTH + 1, 2000):
        with pytest.raises(InputError, match=f"nested deeper than {MAX_DEPTH}"):
            parse_term(make(n))


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
