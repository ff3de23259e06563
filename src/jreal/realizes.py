"""The realizability clauses as a bounded three-valued checker, plus a
constructive realizer builder for true bounded-quantifier sentences.

Clause conventions pinned here:
  - The scope is the ambient variable tuple, newest binding first; the
    membership prefix for atoms, implications, and universals covers the
    whole tuple, not just the variables the subformula mentions.
  - An empty scope makes the prefix vacuous; builders then put a dummy 0
    in the prefix slot.
  - A one-variable prefix is the bare component; longer prefixes are flat
    sequences checked componentwise.
  - Conjunction, disjunction, and the existential impose no prefix of
    their own; the existential's first component is evidence for the
    witness alone.

Checks against an infinite carrier range over a declared window and are
stamped as sampled in the evidence; they never silently claim certainty.
On finite carriers with finite realizer shapes the checker commits to
definite verdicts at its declared policy bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import coding
from .assemblies import Assembly, NatAssembly, realizer_elements
from .bracket import lam
from .certs import TRACK_THRESHOLD, CertSearch, CheckPolicy
from .formulas import (
    All, And, Eq, Ex, Formula, Imp, Less, Or, Rel,
    eval_term, free_vars, is_delta0, bound_of, truth, show_formula,
)
from .jsets import ByPredicate, JSet, member
from .machine import DEFAULT_FUEL, Value, apply_cached
from .prog import LT01, ite, ite_table, seq2, tag0
from .terms import App, K, Num, Var, ap, encode_term

Point = object


@dataclass(frozen=True, slots=True)
class Evidence:
    notes: tuple[str, ...] = ()
    caveats: tuple[str, ...] = ()

    @property
    def sampled(self) -> bool:
        return bool(self.caveats)


@dataclass(frozen=True, slots=True)
class Realized:
    e: int
    evidence: Evidence


@dataclass(frozen=True, slots=True)
class Refuted:
    reason: str


@dataclass(frozen=True, slots=True)
class Unknown:
    diagnostics: str


Verdict3 = Realized | Refuted | Unknown


@dataclass(frozen=True)
class Env:
    assembly: Assembly
    assignment: tuple[tuple[str, Point], ...] = ()
    evidence: tuple[tuple[str, int], ...] = ()
    relations: tuple[tuple[str, Callable[[tuple], JSet]], ...] = ()


def nat_env(**relations: Callable[[tuple], JSet]) -> Env:
    return Env(NatAssembly(), relations=tuple(sorted(relations.items())))


class Checker:
    """One checking session; memoizes subformula verdicts across the run."""

    def __init__(self, env: Env, policy: CheckPolicy | None = None,
                 quant_window: int = 50, cand_bound: int = 64):
        self.env = env
        self.policy = policy or CheckPolicy(depth=4, window=2, fuel=DEFAULT_FUEL)
        self.quant_window = quant_window
        self.cand_bound = cand_bound
        self.exact = env.assembly.finite
        self.relations = dict(env.relations)
        self.memo: dict = {}
        self.searcher = CertSearch(self.policy, TRACK_THRESHOLD)
        self._jsets: dict = {}

    # -- membership -------------------------------------------------------

    def certify(self, v: int, S: JSet) -> bool | None:
        # only an exact carrier turns "not shown inside" into a refutation
        if self.searcher.decide(v, S)[0]:
            return True
        return False if self.exact else None

    def prefix_ok(self, e: int, scope: tuple) -> tuple[bool | None, str]:
        """e against the closure of each scope realizer set, flat when long."""
        if not scope:
            return True, "empty prefix"
        sets = [self.env.assembly.realizer_set(pt) for _, pt in scope]
        if len(scope) == 1:
            parts = [e]
        else:
            parts = list(coding.decode_seq(e))
            if len(parts) != len(scope):
                return False, f"prefix is not a {len(scope)}-sequence"
        for (name, _), part, S in zip(scope, parts, sets):
            got = self.certify(part, S)
            if got is not True:
                verdict = "outside" if got is False else "undecided against"
                return got, f"prefix for {name} {verdict} its closure"
        return True, "prefix certified"

    def realizer_jset(self, phi: Formula, scope: tuple) -> JSet:
        """The realizers of a formula as a membership test, any magnitude."""
        key = (phi, scope)
        if key not in self._jsets:
            self._jsets[key] = ByPredicate(
                lambda m: self._bool(self.check(m, phi, scope)),
                f"realizes[{show_formula(phi)}]")
        return self._jsets[key]

    @staticmethod
    def _bool(v: Verdict3) -> bool | None:
        match v:
            case Realized(_, _):
                return True
            case Refuted(_):
                return False
        return None

    # -- the clauses ------------------------------------------------------

    def check(self, e: int, phi: Formula, scope: tuple = ()) -> Verdict3:
        key = (e, phi, scope)
        if key in self.memo:
            return self.memo[key]
        # a provisional entry breaks self-referential candidate loops
        self.memo[key] = Unknown("cyclic membership obligation")
        out = self._check(e, phi, scope)
        self.memo[key] = out
        return out

    def _check(self, e: int, phi: Formula, scope: tuple) -> Verdict3:
        asn = {name: pt for name, pt in scope}
        match phi:
            case Eq(l, r) | Less(l, r):
                # the interpretation decides refutation outright; only an
                # accepted atom needs its prefix certified
                lv, rv = eval_term(l, asn), eval_term(r, asn)
                holds = lv == rv if isinstance(phi, Eq) else lv < rv
                if not holds:
                    op = "=" if isinstance(phi, Eq) else "<"
                    return Refuted(f"interpretation fails: {lv} {op} {rv}")
                ok, note = self.prefix_ok(e, scope)
                if ok is False:
                    return Refuted(note)
                if ok is None:
                    return Unknown(note)
                return Realized(e, Evidence((note,)))
            case Rel(name, args):
                if name not in self.relations:
                    return Unknown(f"relation {name} not interpreted")
                pts = tuple(eval_term(a, asn) for a in args)
                S = self.relations[name](pts)
                got = member(S, e)
                if got is True:
                    return Realized(e, Evidence((f"{name}{pts} holds of {e}",)))
                if got is False:
                    return Refuted(f"{e} outside the {name} set at {pts}")
                return Unknown(f"{name} membership undecided at {pts}")
            case And(a, b):
                parts = coding.decode_seq(e)
                if len(parts) != 2:
                    return Refuted("conjunction realizer is not a pair")
                va = self.check(parts[0], a, scope)
                if isinstance(va, Refuted):
                    return Refuted(f"left conjunct: {va.reason}")
                vb = self.check(parts[1], b, scope)
                if isinstance(vb, Refuted):
                    return Refuted(f"right conjunct: {vb.reason}")
                if isinstance(va, Unknown):
                    return Unknown(f"left conjunct: {va.diagnostics}")
                if isinstance(vb, Unknown):
                    return Unknown(f"right conjunct: {vb.diagnostics}")
                return Realized(e, _merge(va.evidence, vb.evidence))
            case Or(a, b):
                parts = coding.decode_seq(e)
                if len(parts) != 2:
                    return Refuted("disjunction realizer is not a pair")
                side, sub = ("left", a) if parts[0] == 0 else ("right", b)
                v = self.check(parts[1], sub, scope)
                match v:
                    case Realized(_, ev):
                        return Realized(e, Evidence(
                            (f"{side} disjunct selected",) + ev.notes, ev.caveats))
                    case Refuted(reason):
                        return Refuted(f"{side} disjunct: {reason}")
                    case Unknown(d):
                        return Unknown(f"{side} disjunct: {d}")
            case Imp(a, b):
                return self._check_imp(e, a, b, scope)
            case Ex(var, body):
                return self._check_ex(e, var, body, scope)
            case All(var, body):
                return self._check_all(e, var, body, scope)
        raise TypeError(phi)

    def _check_imp(self, e: int, a: Formula, b: Formula, scope: tuple) -> Verdict3:
        parts = coding.decode_seq(e)
        if len(parts) != 2:
            return Refuted("implication realizer is not a pair")
        ok, note = self.prefix_ok(parts[0], scope)
        if ok is False:
            return Refuted(note)
        target = self.realizer_jset(b, scope)
        caveats = [f"antecedent realizers sampled below {self.cand_bound}"]
        notes = [note]
        pending: str | None = None if ok is True else note
        hits = 0
        for m in range(self.cand_bound):
            got = self.check(m, a, scope)
            if not isinstance(got, Realized):
                continue
            hits += 1
            res = apply_cached(parts[1], m, self.policy.fuel)
            if not isinstance(res, Value):
                pending = pending or f"consequent map ran out of fuel on {m}"
                continue
            landed = self.certify(res.value, target)
            if landed is False:
                return Refuted(f"consequent map leaves the closure on input {m}")
            if landed is None:
                pending = pending or f"consequent closure undecided on input {m}"
        if pending is not None:
            return Unknown(pending)
        notes.append(f"consequent map lands for {hits} antecedent realizers")
        return Realized(e, Evidence(tuple(notes), tuple(caveats)))

    def _points(self) -> tuple[tuple[Point, ...], str | None]:
        if self.env.assembly.finite:
            return self.env.assembly.sample_points(0), None
        pts = self.env.assembly.sample_points(self.quant_window)
        return pts, f"carrier sampled on a {len(pts)}-point window"

    def _check_ex(self, e: int, var: str, body: Formula, scope: tuple) -> Verdict3:
        parts = coding.decode_seq(e)
        if len(parts) != 2:
            return Refuted("existential realizer is not a pair")
        points, caveat = self._points()
        pending: str | None = None
        for a in points:
            ev_ok = self.certify(parts[0], self.env.assembly.realizer_set(a))
            if ev_ok is False:
                continue
            if ev_ok is None:
                pending = pending or f"witness evidence undecided at {a}"
                continue
            inner = self.check(parts[1], body, ((var, a),) + scope)
            match inner:
                case Realized(_, evd):
                    notes = (f"witness {a} accepted",) + evd.notes
                    cavs = evd.caveats + ((caveat,) if caveat else ())
                    return Realized(e, Evidence(notes, cavs))
                case Unknown(d):
                    pending = pending or f"witness {a}: {d}"
        if pending is not None:
            return Unknown(pending)
        if caveat is None:
            return Refuted("no carrier point admits this realizer as witness")
        return Unknown(f"no witness on the window; {caveat}")

    def _check_all(self, e: int, var: str, body: Formula, scope: tuple) -> Verdict3:
        parts = coding.decode_seq(e)
        if len(parts) != 2:
            return Refuted("universal realizer is not a pair")
        ok, note = self.prefix_ok(parts[0], scope)
        if ok is False:
            return Refuted(note)
        pending: str | None = None if ok is True else note
        points, caveat = self._points()
        caveats = [caveat] if caveat else []
        checked = 0
        for y in points:
            inner_scope = ((var, y),) + scope
            target = self.realizer_jset(body, inner_scope)
            elems, approx = realizer_elements(
                self.env.assembly.realizer_set(y), 8)
            if approx:
                caveats.append(f"realizers of {y} sampled")
            for k in elems:
                checked += 1
                res = apply_cached(parts[1], k, self.policy.fuel)
                if not isinstance(res, Value):
                    pending = pending or f"instance map ran out of fuel at {y}"
                    continue
                landed = self.certify(res.value, target)
                if landed is False:
                    return Refuted(f"instance at {y} leaves the closure")
                if landed is None:
                    pending = pending or f"instance closure undecided at {y}"
        if pending is not None:
            return Unknown(pending)
        return Realized(e, Evidence(
            (note, f"{checked} instance obligations discharged"),
            tuple(caveats)))


def _merge(a: Evidence, b: Evidence) -> Evidence:
    return Evidence(a.notes + b.notes, a.caveats + b.caveats)


def jrealizes(e: int, phi: Formula, env: Env,
              policy: CheckPolicy | None = None, *,
              quant_window: int = 50, cand_bound: int = 64) -> Verdict3:
    missing = free_vars(phi) - {name for name, _ in env.assignment}
    if missing:
        raise ValueError(f"unassigned free variables: {sorted(missing)}")
    scope = tuple((name, pt) for name, pt in env.assignment)
    return Checker(env, policy, quant_window, cand_bound).check(e, phi, scope)


# ---------------------------------------------------------------------------
# constructive builders

_K0_CODE = encode_term(App(K, Num(0)))


def _const_realizer_code(r: int) -> int:
    return encode_term(lam("m", tag0(Num(r))))


def _prefix_int(scope: tuple) -> int:
    """Evidence for a fully fixed binding chain: unit-wrapped points."""
    if not scope:
        return 0
    if len(scope) == 1:
        return coding.pair(0, scope[0][1])
    return coding.encode_seq([coding.pair(0, k) for _, k in scope])


def _prefix_term(scope: tuple):
    """Evidence with the newest binding dynamic, fed in as the variable y."""
    head = seq2(Num(0), Var("y"))
    if len(scope) == 1:
        return head
    from .terms import CONS, ap
    out: object = Num(0)
    for _, k in reversed(scope[1:]):
        out = ap(CONS, Num(coding.pair(0, k)), out)
    return ap(CONS, head, out)


def build_delta0(phi: Formula) -> int:
    """A realizer for a closed true bounded-quantifier sentence.

    Recursion on the formula: pairs for conjunction, tags for disjunction,
    constant maps into the consequent for implication, and for a bounded
    universal a dispatch code materializing every instance realizer below
    the bound.  Every piece carries membership evidence for the binding
    chain it sits under.  Classically false input is refused, never
    realized.
    """
    if free_vars(phi):
        raise ValueError("builder needs a closed sentence")
    if not is_delta0(phi):
        raise ValueError("builder covers bounded-quantifier sentences only")
    if not truth(phi):
        raise ValueError(f"classically false: {show_formula(phi)}")
    return _build(phi, ())


def _build(phi: Formula, scope: tuple) -> int:
    asn = {name: k for name, k in scope}
    match phi:
        case Eq(_, _) | Less(_, _):
            return _prefix_int(scope)
        case And(a, b):
            return coding.pair(_build(a, scope), _build(b, scope))
        case Or(a, b):
            if truth(a, asn):
                return coding.pair(0, _build(a, scope))
            return coding.pair(1, _build(b, scope))
        case Imp(a, b):
            if not truth(a, asn):
                return coding.pair(_prefix_int(scope), _K0_CODE)
            return coding.pair(_prefix_int(scope),
                               _const_realizer_code(_build(b, scope)))
        case All(_, guarded):
            var, bound_t, _ = bound_of(phi)
            n = eval_term(bound_t, asn)
            rows = []
            for k in range(n):
                rows.append((k, _build(guarded, ((var, k),) + scope)))
            # beyond the bound the guard is false, so a total dummy map
            # serves; its prefix must still name the dispatched point.
            # One range test gates the equality chain, whose cost would
            # otherwise grow with the input numeral, not with the bound.
            fallback = seq2(_prefix_term(((var, None),) + scope), Num(_K0_CODE))
            body_term = ite(ap(LT01, Var("y"), Num(n)),
                            ite_table(Var("y"), rows, fallback),
                            fallback) if rows else fallback
            dispatch = lam("y", tag0(body_term))
            return coding.pair(_prefix_int(scope), encode_term(dispatch))
        case Ex(_, guarded):
            var, bound_t, body = bound_of(phi)
            n = eval_term(bound_t, asn)
            for w in range(n):
                if truth(body, {**asn, var: w}):
                    return coding.pair(coding.pair(0, w),
                                       _build(guarded, ((var, w),) + scope))
            raise AssertionError("true bounded existential lost its witness")
    raise ValueError(f"no builder for {show_formula(phi)}")


def build_sigma1(phi: Formula, search_bound: int = 256) -> int | None:
    """Dovetail witnesses for an unguarded existential over a true core."""
    match phi:
        case Ex(var, body) if is_delta0(body) and not (free_vars(body) - {var}):
            for w in range(search_bound):
                if truth(body, {var: w}):
                    return coding.pair(coding.pair(0, w),
                                       _build(body, ((var, w),)))
            return None
    raise ValueError("expected one unguarded existential over a bounded core")