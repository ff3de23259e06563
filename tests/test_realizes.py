"""Clause checker and realizer builders, including the brute-force cross-check."""

import collections
import itertools

import pytest

from jreal import coding
from jreal.assemblies import FiniteAssembly, NatAssembly
from jreal.bracket import lam
from jreal.certs import CheckPolicy
from jreal.formulas import (
    NATURALS, All, And, Eq, Ex, Imp, Less, Lit, NVar, Or,
    compile_formula, parse_formula, show_formula,
)
from jreal.jsets import Cofinite, Finite, UpFrom
from jreal.kit import A_CODE
from jreal.machine import DEFAULT_FUEL, Value, apply_cached
from jreal.prog import ite_table, seq2, tag0
from jreal.realizes import (
    CAND_BOUND, QUANT_WINDOW, Checker, Env, Realized, Refuted, Unknown,
    build_delta0, build_sigma1, jrealizes, nat_env,
)
from jreal.terms import App, K, Num, Var, encode_term
from support import eval_term

POL = CheckPolicy(depth=4, window=2, fuel=DEFAULT_FUEL)


def tri_assembly():
    return FiniteAssembly(
        "tri", (0, 1, 2),
        (Finite(frozenset({0})), Finite(frozenset({1})), Finite(frozenset({2, 3}))))


# ---------------------------------------------------------------------------
# clause spot checks


def test_closed_true_equation_accepts_any_number():
    env = nat_env()
    for e in (0, 5, 17):
        v = jrealizes(e, parse_formula("0 = 0"), env, POL)
        assert isinstance(v, Realized)
        assert v.caveats == ()


def test_closed_false_equation_refuted():
    v = jrealizes(5, parse_formula("0 = S 0"), nat_env(), POL)
    assert isinstance(v, Refuted)
    assert "interpretation fails" in v.reason


def test_disjunction_tag_selects_branch():
    env = nat_env()
    phi = parse_formula("0 = 0 \\/ 0 = S 0")
    good = jrealizes(coding.pair(0, 0), phi, env, POL)
    assert isinstance(good, Realized)
    # the chosen disjunct's verdict, unchanged
    assert good == jrealizes(0, parse_formula("0 = 0"), env, POL)
    bad = jrealizes(coding.pair(1, 0), phi, env, POL)
    assert isinstance(bad, Refuted)


@pytest.mark.parametrize("e", [12, 38])  # <2,0> and <5,0>
def test_disjunction_tag_beyond_one_is_refuted(e):
    v = jrealizes(e, parse_formula("0 = 1 \\/ 0 = 0"), nat_env(), POL)
    assert isinstance(v, Refuted)
    assert v.reason == "disjunction tag is not 0 or 1"


def test_universal_via_double_unit_on_window():
    aa = encode_term(lam("k", App(Num(A_CODE), App(Num(A_CODE), Var("k")))))
    v = jrealizes(coding.pair(0, aa), parse_formula("forall x. x = x"),
                  nat_env(), POL)
    assert isinstance(v, Realized)
    assert any(f"{QUANT_WINDOW}-point window" in c for c in v.caveats)


def test_universal_over_sampled_realizer_sets_carries_a_caveat():
    aa = encode_term(lam("k", App(Num(A_CODE), App(Num(A_CODE), Var("k")))))
    wide = FiniteAssembly("wide", (0, 1),
                          (UpFrom(3), Cofinite(frozenset({1}))))
    v = jrealizes(coding.pair(0, aa), parse_formula("forall x. x = x"),
                  Env(wide), POL)
    assert isinstance(v, Realized)
    assert any("sampled" in c for c in v.caveats)


def test_universal_escaping_instance_refuted_on_nat_and_on_finite():
    # the constant payload leaves the closure of E(y) for other y: its base
    # payload is definitely outside, so the sampled carrier refutes too
    const = encode_term(lam("k", tag0(seq2(Num(0), Num(0)))))
    v = jrealizes(coding.pair(0, const), parse_formula("forall x. x = x"),
                  nat_env(), POL)
    assert isinstance(v, Refuted)
    assert "leaves the closure" in v.reason
    stray = encode_term(lam("k", tag0(seq2(Num(0), Num(9)))))
    ck = Checker(Env(tri_assembly()), POL)
    got = ck.check(coding.pair(0, stray), All("x", Eq(NVar("x"), NVar("x"))))
    assert isinstance(got, Refuted)
    assert "leaves the closure" in got.reason


# <0, code of K 0>: its map sends every input to 0, which is not a tagged pair
UNTAGGED = coding.pair(0, encode_term(App(K, Num(0))))


@pytest.mark.parametrize("text", ["forall x. x = x", "0 = 0 -> 0 = 0"])
def test_untagged_map_output_refuted_on_nat(text):
    v = jrealizes(UNTAGGED, parse_formula(text), nat_env(), POL)
    assert isinstance(v, Refuted)
    assert "leaves the closure at 0" in v.reason


def test_map_leaving_on_a_sampled_antecedent_realizer_not_refuted_on_nat():
    # x = 100 has no witness on the window, so every pair counts as a
    # sampled realizer of the inner implication, 2 = <0,0> among them;
    # really the inner implication has none, and every map realizes this
    v = jrealizes(UNTAGGED, parse_formula(
        "((exists x. x = 100) -> 0 = 1) -> 0 = 1"), nat_env(), POL)
    assert isinstance(v, Unknown)
    assert "sampled antecedent realizer" in v.diagnostics


# the checker scope of an open formula: x names the point 2
X_IS_2 = (("x", 2),)


def test_implication_map_leaving_on_one_antecedent_refuted_on_finite():
    # under x = 2 the antecedent realizers include 8 = <0,2> and 25 = <0,3>;
    # the map keeps 8 but sends every other input to <0,0>, whose payload 0
    # realizes nothing; the identity-like map into the closure is the twin
    ck = Checker(Env(tri_assembly()), POL)
    phi = parse_formula("x = x -> x = x")
    keeps_8 = encode_term(lam("m", tag0(ite_table(Var("m"), [(8, 8)], Num(0)))))
    bad = ck.check(coding.pair(8, keeps_8), phi, X_IS_2)
    assert isinstance(bad, Refuted)
    assert "leaves the closure" in bad.reason
    assert bad.reason.endswith(" 25")
    wraps = encode_term(lam("m", tag0(Var("m"))))
    assert isinstance(ck.check(coding.pair(8, wraps), phi, X_IS_2), Realized)


def test_non_pair_realizers_refuted_structurally():
    env = nat_env()
    assert isinstance(jrealizes(0, parse_formula("0 = 0 /\\ 0 = 0"), env, POL), Refuted)
    assert isinstance(jrealizes(0, parse_formula("0 = 0 \\/ 0 = 0"), env, POL), Refuted)
    assert isinstance(jrealizes(0, parse_formula("exists x. x = x"), env, POL), Refuted)


@pytest.mark.parametrize("e", [2, 7, 8, 10])
def test_untagged_witness_evidence_refuted_on_nat(e):
    # each e is a pair whose first component, 0 or 1, is no tagged pair,
    # so it lands in no closure at any point of the carrier, window or not
    assert coding.decode_seq(e)[0] in (0, 1)
    v = jrealizes(e, parse_formula("exists x. x = 1"), nat_env(), POL)
    assert isinstance(v, Refuted)
    assert v.reason == "witness evidence is not a tagged pair"


def test_open_formula_prefix_is_raw_membership():
    ck = Checker(Env(tri_assembly()), POL)
    assert isinstance(ck.check(coding.pair(0, 3), parse_formula("x = x"), X_IS_2),
                      Realized)
    assert isinstance(ck.check(7, parse_formula("x = x"), X_IS_2), Refuted)


def test_missing_assignment_rejected():
    with pytest.raises(ValueError, match="unassigned"):
        jrealizes(0, parse_formula("x = x"), nat_env(), POL)


def test_finite_existential_needs_certified_witness():
    ck = Checker(Env(tri_assembly()), POL)
    phi = Ex("x", Eq(NVar("x"), Lit(2)))
    good = coding.pair(coding.pair(0, 3), coding.pair(0, 2))
    assert isinstance(ck.check(good, phi), Realized)
    stray = coding.pair(coding.pair(0, 9), coding.pair(0, 2))
    assert isinstance(ck.check(stray, phi), Refuted)


def test_implication_reports_candidate_sampling():
    v = jrealizes(coding.pair(0, encode_term(App(Num(A_CODE), Num(0)))),
                  parse_formula("0 = 1 -> 0 = 2"), nat_env(), POL)
    assert isinstance(v, Realized)
    assert any("sampled below" in c for c in v.caveats)


# ---------------------------------------------------------------------------
# builders


TRUE_SENTENCES = [
    "0 = 0",
    "S 0 = 1",
    "2 + 2 = 4",
    "0 = 0 /\\ (0 = 1 \\/ 1 = 1)",
    "0 = 1 -> 0 = 2",
    "forall x < 4. x < 5",
    "exists x < 3. x = 2",
    "forall x < 3. exists y < 7. y = x + x",
    "exists x < 5. x * x = 4 /\\ 0 < x",
    "forall x < 3. forall y < 3. x + y < 5",
]

FALSE_SENTENCES = [
    "0 = 1",
    "S 0 = 0",
    "2 + 2 = 5",
    "0 = 0 /\\ 0 = 1",
    "0 = 0 -> 0 = 1",
    "forall x < 3. x < 2",
    "exists x < 2. x = 5",
]


@pytest.mark.parametrize("text", TRUE_SENTENCES)
def test_builder_output_accepted(text):
    phi = parse_formula(text)
    e = build_delta0(phi)
    v = jrealizes(e, phi, nat_env(), POL)
    assert isinstance(v, Realized), v


@pytest.mark.parametrize("text", FALSE_SENTENCES)
def test_builder_refuses_false(text):
    with pytest.raises(ValueError, match="false"):
        build_delta0(parse_formula(text))


def test_truth_raises_on_a_relation_only_when_evaluated():
    env = {"x": 0}
    false = compile_formula(parse_formula("0 = 1 /\\ P(x)"), NATURALS, None)
    assert false(env) is False
    raises = compile_formula(parse_formula("0 = 0 /\\ P(x)"), NATURALS, None)
    with pytest.raises(ValueError, match="relation P has no interpretation"):
        raises(env)


def test_builder_rejects_open_or_unbounded():
    with pytest.raises(ValueError, match="closed"):
        build_delta0(parse_formula("x = x"))
    with pytest.raises(ValueError, match="bounded"):
        build_delta0(parse_formula("forall x. x = x"))


def test_sigma1_witness_embedded():
    phi = parse_formula("exists x. x * x = 49")
    e = build_sigma1(phi)
    assert e is not None
    assert coding.decode_seq(coding.decode_seq(e)[0]) == (0, 7)
    v = jrealizes(e, phi, nat_env(), POL)
    assert isinstance(v, Realized)


def test_sigma1_gives_up_without_witness():
    assert build_sigma1(parse_formula("exists x. x + x = 5")) is None


def test_correspondence_on_small_corpus():
    # witnessed existentials match classical truth; refuted cores refute
    cases = [
        ("exists x. x + 3 = 10", True),
        ("exists x. x * x = 36", True),
        ("exists x. x + x = 5", False),
        ("exists x. x * x = 10", False),
    ]
    for text, expected in cases:
        e = build_sigma1(parse_formula(text))
        assert (e is not None) == expected, text


# ---------------------------------------------------------------------------
# a variable bound twice reads its newest binding


def test_a_rebound_variable_reads_the_inner_binding():
    # forall x < 1. forall x < 3. x < 2 fails at the inner x = 2, outer
    # x = 0; the scope lists the inner binding first, and the prefix is the
    # one build_delta0 gives that instance of the bound-3 sentence
    scope = (("x", 2), ("x", 0))
    e = coding.encode_seq([coding.pair(0, 2), coding.pair(0, 0)])
    v = Checker(nat_env(), POL).check(e, parse_formula("x < 2"), scope)
    assert v == Refuted("interpretation fails: 2 < 2")
    # a relation reads its arguments by the same rule
    env = Env(NatAssembly(), (("P", lambda pts: Finite(frozenset(pts))),))
    assert Checker(env, POL).check(2, parse_formula("P(x)"), scope) == \
        Realized("P(2,) holds of 2", ())


def test_renaming_a_shadowed_binder_keeps_the_verdict():
    # the witness 0 for the outer x, then a map sending each realizer r of
    # the inner x to <0, <<0,r>, <0,0>>>: a prefix for x < 1 at every inner
    # point, which holds only where the atom reads the outer x
    track = encode_term(lam("r", tag0(seq2(tag0(Var("r")),
                                            Num(coding.pair(0, 0))))))
    e = coding.pair(coding.pair(0, 0),
                    coding.pair(coding.pair(0, 0), track))
    env = Env(tri_assembly())
    shadowed = jrealizes(e, parse_formula("exists x. forall x. x < 1"), env, POL)
    fresh = jrealizes(e, parse_formula("exists z. forall x. x < 1"), env, POL)
    assert fresh == Refuted("no carrier point admits this realizer as witness")
    assert shadowed == fresh


def test_renaming_a_shadowed_binder_keeps_the_built_realizer():
    # the disjunct is chosen by the inner x, which is always 0
    shadowed = "forall x < 2. forall x < 1. x = 1 \\/ x = 0"
    fresh = "forall z < 2. forall x < 1. x = 1 \\/ x = 0"
    assert (build_delta0(parse_formula(shadowed))
            == build_delta0(parse_formula(fresh)))


# ---------------------------------------------------------------------------
# fidelity against an independent brute-force reading of the clauses

W = POL.window
MAXT = 3


def closure_holds(v: int, pred, depth: int = POL.depth) -> bool:
    """Certified membership, re-derived from the closure rules directly."""
    if depth <= 0:
        return False
    parts = coding.decode_seq(v)
    if len(parts) != 2:
        return False
    if parts[0] == 0:
        return bool(pred(parts[1]))
    if parts[0] != 1:
        return False
    for r in range(MAXT + 1):
        for m in range(r, r + W):
            res = apply_cached(parts[1], m, POL.fuel)
            if not isinstance(res, Value) or not closure_holds(res.value, pred, depth - 1):
                break
        else:
            return True
    return False


class Oracle:
    """The clause list transcribed flatly over a finite carrier."""

    def __init__(self, asm):
        self.asm = asm
        self.cand = CAND_BOUND
        self.memo = {}

    def holds(self, e, phi, scope=()) -> bool:
        key = (e, phi, scope)
        if key not in self.memo:
            self.memo[key] = False  # break candidate self-reference
            self.memo[key] = self._holds(e, phi, scope)
        return self.memo[key]

    def _prefix(self, e, scope) -> bool:
        if not scope:
            return True
        sets = [set(self.asm.realizer_set(pt).elems) for _, pt in scope]
        parts = [e] if len(scope) == 1 else coding.decode_seq(e)
        if len(parts) != len(scope):
            return False
        return all(closure_holds(p, lambda k, s=s: k in s)
                   for p, s in zip(parts, sets))

    def _holds(self, e, phi, scope) -> bool:
        asn = dict(reversed(scope))  # newest binding first, and it wins
        match phi:
            case Eq(l, r):
                return (eval_term(l, asn) == eval_term(r, asn)
                        and self._prefix(e, scope))
            case Less(l, r):
                return (eval_term(l, asn) < eval_term(r, asn)
                        and self._prefix(e, scope))
            case And(a, b):
                parts = coding.decode_seq(e)
                return (len(parts) == 2 and self.holds(parts[0], a, scope)
                        and self.holds(parts[1], b, scope))
            case Or(a, b):
                parts = coding.decode_seq(e)
                if len(parts) != 2 or parts[0] not in (0, 1):
                    return False
                pick = a if parts[0] == 0 else b
                return self.holds(parts[1], pick, scope)
            case Imp(a, b):
                parts = coding.decode_seq(e)
                if len(parts) != 2 or not self._prefix(parts[0], scope):
                    return False
                for m in range(self.cand):
                    if not self.holds(m, a, scope):
                        continue
                    res = apply_cached(parts[1], m, POL.fuel)
                    if not isinstance(res, Value):
                        return False
                    if not closure_holds(res.value,
                                         lambda k: self.holds(k, b, scope)):
                        return False
                return True
            case Ex(var, body):
                parts = coding.decode_seq(e)
                if len(parts) != 2:
                    return False
                for a in self.asm.points:
                    elems = set(self.asm.realizer_set(a).elems)
                    if not closure_holds(parts[0], lambda k: k in elems):
                        continue
                    if self.holds(parts[1], body, ((var, a),) + scope):
                        return True
                return False
            case All(var, body):
                parts = coding.decode_seq(e)
                if len(parts) != 2 or not self._prefix(parts[0], scope):
                    return False
                for y in self.asm.points:
                    inner = ((var, y),) + scope
                    for k in sorted(self.asm.realizer_set(y).elems):
                        res = apply_cached(parts[1], k, POL.fuel)
                        if not isinstance(res, Value):
                            return False
                        if not closure_holds(
                                res.value,
                                lambda m: self.holds(m, body, inner)):
                            return False
                return True
        raise TypeError(phi)


def fidelity_formulas():
    x = NVar("x")
    atoms = [Eq(Lit(0), Lit(0)), Eq(Lit(0), Lit(1)),
             Less(Lit(0), Lit(1)), Less(Lit(1), Lit(0))]
    qbodies = [Eq(x, x), Less(x, Lit(2)), Eq(x, Lit(1))]
    depth1 = atoms + [All("x", b) for b in qbodies] + [Ex("x", b) for b in qbodies]
    out = list(depth1)
    seeds = [atoms[0], atoms[1], depth1[4], depth1[7]]
    for a, b in itertools.product(seeds, atoms[:2]):
        out.extend([And(a, b), Or(a, b), Imp(a, b)])
    out.append(Imp(And(atoms[0], atoms[2]), Or(atoms[1], atoms[0])))
    out.append(And(depth1[5], Or(atoms[0], atoms[1])))
    # a rebound variable, which the inner quantifier binds
    out.append(All("x", All("x", Less(x, Lit(2)))))
    return out


def test_checker_matches_brute_force_oracle_exactly():
    asm = tri_assembly()
    oracle = Oracle(asm)
    checker = Checker(Env(asm), POL)
    mismatches = []
    unknowns = 0
    for phi in fidelity_formulas():
        for e in range(64):
            got = checker.check(e, phi)
            if isinstance(got, Unknown):
                unknowns += 1
                mismatches.append((phi, e, "Unknown"))
                continue
            want = oracle.holds(e, phi)
            if isinstance(got, Realized) != want:
                mismatches.append((phi, e, type(got).__name__, want))
    assert unknowns == 0
    assert not mismatches, mismatches[:5]


def test_verdict_memo_keeps_nested_implications_polynomial(monkeypatch):
    # every level tries each antecedent candidate against the level below:
    # 263 evaluations with Checker.memo, over 400,000 without it
    calls = 0
    check = Checker._check

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return check(self, *args)

    monkeypatch.setattr(Checker, "_check", counted)
    phi = parse_formula(
        "((((0 = 0 -> 0 = 0) -> 0 = 0) -> 0 = 0) -> 0 = 0) -> 0 = 0")
    assert isinstance(jrealizes(build_delta0(phi), phi, nat_env(), POL),
                      Realized)
    assert calls <= 1_000


def test_each_atom_is_interpreted_once_per_scope(monkeypatch):
    # every antecedent candidate and every map output meets the two atoms;
    # each (atom, scope) is interpreted once, and where x < 2 fails, at
    # x = 2, its one verdict refutes them all and ends the check
    seen = collections.Counter()
    interpret = Checker._interpret

    def counted(self, phi, scope):
        seen[show_formula(phi), scope] += 1
        return interpret(self, phi, scope)

    monkeypatch.setattr(Checker, "_interpret", counted)
    e = build_delta0(parse_formula("forall x < 3. x < 3"))
    got = jrealizes(e, parse_formula("forall x < 3. x < 2"), nat_env(), POL)
    assert got == Refuted("universal map leaves the closure at 2")
    assert set(seen.values()) == {1}
    points = collections.defaultdict(set)
    for atom, ((_, x),) in seen:
        points[atom].add(x)
    assert points == {"x < 3": {0, 1, 2}, "x < 2": {0, 1, 2}}


REALIZED_ON_WINDOW = Realized("universal map lands for 50 realizers",
                              ("carrier sampled on a 50-point window",))


@pytest.mark.parametrize("built, want", [
    ("(x < 2 -> x < 2) /\\ (x < 2 -> x < 2)", REALIZED_ON_WINDOW),
    ("(x < 2 -> 0 = 0) /\\ (x < 2 -> x < 2)", REALIZED_ON_WINDOW),
    ("(x < 2 -> x < 2) /\\ 0 = 0",
     Refuted("universal map leaves the closure at 0")),
    ("0 = 0 /\\ (x < 2 -> x < 2)",
     Refuted("universal map leaves the closure at 0")),
    ("(x < 2 -> x < 2) /\\ (x < 1 -> x < 1)",
     Refuted("universal map leaves the closure at 1")),
])
def test_equal_subformulas_at_two_positions_keep_their_verdicts(built, want):
    # the memo keys subformulas by identity: two equal conjuncts parsed apart
    # are checked apart, and one object in both positions is checked once;
    # either way each realizer gets the one verdict pinned here
    phi = parse_formula("forall x < 3. (x < 2 -> x < 2) /\\ (x < 2 -> x < 2)")
    guard, conj = phi.body.left, phi.body.right
    assert conj.left == conj.right and conj.left is not conj.right
    shared = All("x", Imp(guard, And(conj.left, conj.left)))
    e = build_delta0(parse_formula(f"forall x < 3. {built}"))
    assert jrealizes(e, phi, nat_env(), POL) == want
    assert jrealizes(e, shared, nat_env(), POL) == want
