"""Decision trees: compiled codes, verdict runs, and partial functions."""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from jreal import coding
from jreal.certs import Accepted, CheckPolicy, check_cert
from jreal.deciders import (
    DecSyntaxError,
    Not,
    One,
    PartialOutcome,
    RunResult,
    Union,
    Verdict,
    decider_code,
    ground_truth,
    height,
    leaves,
    parse_dec,
    partial_apply,
    random_tree,
    represent_from_graph,
    run_decider,
    run_policy,
    show_dec,
)
from jreal.jsets import Singleton
from jreal.machine import Value, apply


def test_singleton_decider_values():
    code = decider_code(One(5))
    for x in range(8):
        res = apply(code, x)
        assert res == Value(coding.pair(0, 0 if x == 5 else 1))


def test_complement_swaps_the_bit():
    code = decider_code(Not(One(5)))
    for x in range(8):
        assert apply(code, x) == Value(coding.pair(0, 1 if x == 5 else 0))


def test_double_complement_restores_the_bit():
    code = decider_code(Not(Not(One(2))))
    for x in range(5):
        assert apply(code, x) == Value(coding.pair(0, 0 if x == 2 else 1))


def test_union_run_matches_truth_and_certs_verify():
    tree = Union((One(2), One(5)))
    policy = run_policy(tree, fuel=60000)
    for x in range(8):
        got = run_decider(tree, x, policy)
        want = Verdict.IN if ground_truth(tree, x) else Verdict.OUT
        assert got.verdict == want, (x, got.note)
        bit = 0 if want == Verdict.IN else 1
        assert isinstance(check_cert(got.value, Singleton(bit), got.cert, policy), Accepted)


def test_union_of_complement_covers_everything():
    tree = Union((Not(One(3)), One(3)))
    policy = run_policy(tree, fuel=60000)
    for x in range(6):
        assert run_decider(tree, x, policy).verdict == Verdict.IN


def test_empty_union_is_always_out():
    tree = Union(())
    for x in range(4):
        assert run_decider(tree, x).verdict == Verdict.OUT


def test_nested_union_and_complement_of_union():
    inner = Union((One(1), One(2)))
    tree = Union((inner, Not(Union((One(1), One(2), One(3))))))
    policy = run_policy(tree, fuel=200000)
    for x in range(6):
        got = run_decider(tree, x, policy)
        want = Verdict.IN if ground_truth(tree, x) else Verdict.OUT
        assert got.verdict == want, (x, got.note)


def test_random_trees_never_contradict_ground_truth():
    rng = Random(11)
    unknowns = 0
    for _ in range(12):
        tree = random_tree(rng, 2, limit=8)
        for x in range(0, 9, 2):
            got = run_decider(tree, x)
            if got.verdict == Verdict.UNKNOWN:
                unknowns += 1
            elif ground_truth(tree, x):
                assert got.verdict == Verdict.IN, (tree, x, got.note)
            else:
                assert got.verdict == Verdict.OUT, (tree, x, got.note)
    assert unknowns == 0


def test_out_of_fuel_is_unknown():
    tree = Union((One(1), One(2)))
    got = run_decider(tree, 1, CheckPolicy(depth=7, window=2, fuel=50))
    assert got.verdict == Verdict.UNKNOWN
    assert "fuel" in got.note


def test_tree_measures():
    tree = Union((One(1), Not(Union((One(2), One(3))))))
    assert height(tree) == 3
    assert leaves(tree) == 3


def test_partial_function_representation():
    rep = represent_from_graph({1: 5, 3: 7, 4: 0})
    for x, want in ((1, 5), (3, 7), (4, 0)):
        got = partial_apply(rep, x)
        assert got.outcome == PartialOutcome.VALUE and got.value == want
    for x in (0, 2, 9):
        assert partial_apply(rep, x).outcome == PartialOutcome.NOT_IN_DOMAIN
    assert apply(rep.scan_code, 2).value == 3  # scan length when absent


def test_partial_function_fuel_shortage_is_unknown():
    rep = represent_from_graph([(1, 5), (3, 7)])
    got = partial_apply(rep, 1, fuel=100)
    assert got.outcome == PartialOutcome.UNKNOWN


def test_empty_graph_is_nowhere_defined():
    rep = represent_from_graph({})
    assert partial_apply(rep, 0).outcome == PartialOutcome.NOT_IN_DOMAIN


def test_duplicate_keys_rejected():
    with pytest.raises(ValueError, match="distinct"):
        represent_from_graph([(1, 5), (1, 6)])


def test_format_examples():
    assert show_dec(One(4)) == "one 4"
    assert show_dec(Not(One(4))) == "not one 4"
    assert show_dec(Union((One(1), Not(One(2))))) == "union (one 1) (not one 2)"
    assert show_dec(Union(())) == "union"
    assert parse_dec("union (one 1) (union (one 2) (one 3))") == Union(
        (One(1), Union((One(2), One(3)))))


def test_format_errors():
    for bad in ("one", "one x", "frob 3", "union (one 1", "one 1 one 2"):
        with pytest.raises(DecSyntaxError):
            parse_dec(bad)


@st.composite
def dec_trees(draw, depth=2):
    kind = draw(st.integers(0, 2 if depth else 0))
    if kind == 0:
        return One(draw(st.integers(0, 20)))
    if kind == 1:
        return Not(draw(dec_trees(depth=depth - 1)))
    width = draw(st.integers(0, 3))
    return Union(tuple(draw(dec_trees(depth=depth - 1)) for _ in range(width)))


@settings(max_examples=60, deadline=None)
@given(dec_trees())
def test_format_roundtrip(tree):
    assert parse_dec(show_dec(tree)) == tree
