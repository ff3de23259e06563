"""The realizability clauses as a bounded three-valued checker, plus a
constructive realizer builder for true bounded-quantifier sentences.

Clause conventions pinned here:
  - The scope is the ambient variable tuple, newest binding first; the
    membership prefix for atoms, implications, and universals covers the
    whole tuple, not just the variables the subformula mentions.
  - A variable bound twice reads its newest binding, as in
    ``compile_formula``; ``_assignment`` is the one place a scope becomes
    the values its terms read.
  - An empty scope makes the prefix vacuous; builders then put a dummy 0
    in the prefix slot.
  - A one-variable prefix is the bare component; longer prefixes are flat
    sequences checked componentwise.
  - Conjunction, disjunction, and the existential impose no prefix of
    their own; the existential's first component is evidence for the
    witness alone.

The landing rule: whether a value lies in the closure of a realizer set is
``CertSearch.decide``'s answer, True, False or undecided.  An undecided
answer reads as outside only on an exact (finite) carrier.  A definite False
refutes, except on an infinite carrier where the value is the map's image of
an antecedent realizer whose own verdict carries caveats: that realizer may
not be one, so the False stays Unknown.  Implication and universal realizers
track maps, so both clauses run through the tracking loop
``assemblies.track_rows`` with this rule.  A 1-tagged value that lands, as
witness evidence or in a membership prefix, landed by the lift rule, so the
verdict carries ``LIFT_CAVEAT``.

Checks against an infinite carrier range over a window of
``QUANT_WINDOW`` points and say so in the verdict's caveats; they never
silently claim certainty.  An implication tries the antecedent's
realizers below ``CAND_BOUND`` and says so, except that an interpreted
relation whose set lists its elements (finite or a singleton) is tried on
exactly those.  On finite carriers with finite realizer shapes the checker
commits to definite verdicts at its declared policy bounds.

A verdict is ``Realized(note, caveats)``, ``Refuted(reason)`` or
``Unknown(diagnostics)``, and holds what a report prints: the deciding
clause's note, and every caveat the verdict rests on.  A verdict read
through ``realizer_jset``, as the target of a map, counts there as a bool,
so the session keeps the caveats of every ``Realized`` read that way and
``jrealizes`` adds them to a ``Realized`` result.  ``Checker.memo``
stays for nested implications: each level tries every antecedent candidate
against the level below, so without it the checks multiply with the depth.
Checks recurse on strict subformulas only, so it holds no provisional entry.
An atom's truth does not depend on its realizer, so it is interpreted once
per (atom, scope) in a session, and a false atom's ``Refuted`` verdict is
formatted once.  Both tables key a formula by its identity, not its whole
tree, and each entry holds its formula, so no other takes that identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import coding
from .assemblies import Assembly, NatAssembly, TrackStatus, track_rows
from .bracket import lam
from .certs import LIFT_CAVEAT, TRACK_THRESHOLD, CertSearch, CheckPolicy, tagged
from .formulas import (
    NATURALS, All, And, Eq, Ex, Formula, Imp, Less, Or, Rel,
    bound_of, compile_formula, compile_term, free_vars, is_delta0, show_formula,
)
from .jsets import ByPredicate, JSet, Singleton, elements, member
from .prog import LT01, ite, ite_table, seq2, tag0
from .terms import App, CONS, K, Num, Var, ap, encode_term
from .text import InputError, show_nat

Point = object

QUANT_WINDOW = 50
CAND_BOUND = 64
# witnesses tried by build_sigma1
WITNESS_BOUND = 256


@dataclass(frozen=True, slots=True)
class Realized:
    note: str
    caveats: tuple[str, ...]


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
    relations: tuple[tuple[str, Callable[[tuple], JSet]], ...] = ()


def nat_env() -> Env:
    return Env(NatAssembly())


def _assignment(scope: tuple) -> dict:
    """Each scope variable's value; the newest binding, listed first, wins."""
    return dict(reversed(scope))


class Checker:
    """One checking session; memoizes subformula verdicts across the run."""

    def __init__(self, env: Env, policy: CheckPolicy):
        self.env = env
        self.policy = policy
        self.exact = env.assembly.finite
        self.relations = dict(env.relations)
        self.memo: dict = {}
        self.searcher = CertSearch(self.policy, TRACK_THRESHOLD)
        self._atoms: dict = {}  # (id, scope) -> (atom, _interpret's answer)
        self.read_caveats: dict[str, None] = {}  # in the order first read

    # -- membership -------------------------------------------------------

    def lands(self, v: int, S: JSet, sure: bool = True) -> tuple[bool | None, str]:
        """``decide``, except that an exact carrier reads undecided as outside
        and that False stays undecided when v's source is not ``sure``."""
        inside, why = self.searcher.decide(v, S)
        if inside is None and self.exact:
            return False, why
        if inside is False and not sure:
            return None, f"{why}, from a sampled antecedent realizer"
        return inside, why

    def prefix_ok(self, e: int, scope: tuple) -> tuple[bool | None, str, tuple[str, ...]]:
        """e against the closure of each scope realizer set, flat when long,
        with the caveats of a prefix that lands."""
        if not scope:
            return True, "empty prefix", ()
        sets = [self.env.assembly.realizer_set(pt) for _, pt in scope]
        if len(scope) == 1:
            parts = [e]
        else:
            parts = list(coding.decode_seq(e))
            if len(parts) != len(scope):
                return False, f"prefix is not a {len(scope)}-sequence", ()
        for (name, _), part, S in zip(scope, parts, sets):
            got = self.lands(part, S)[0]
            if got is not True:
                verdict = "outside" if got is False else "undecided against"
                return got, f"prefix for {name} {verdict} its closure", ()
        return True, "prefix certified", _lift_caveat(parts)

    def realizer_jset(self, phi: Formula, scope: tuple) -> JSet:
        """The realizers of a formula as a membership test, any magnitude;
        the caveats of each realizer it accepts go to ``read_caveats``."""
        return ByPredicate(lambda m: self._bool(self.check(m, phi, scope)),
                           f"realizes[{show_formula(phi)}]")

    def _bool(self, v: Verdict3) -> bool | None:
        match v:
            case Realized(_, cavs):
                self.read_caveats.update(dict.fromkeys(cavs))
                return True
            case Refuted(_):
                return False
        return None

    # -- the clauses ------------------------------------------------------

    def check(self, e: int, phi: Formula, scope: tuple = ()) -> Verdict3:
        # without the memo, nested implications re-check every level below
        # for each antecedent candidate (see the module docstring)
        key = (e, id(phi), scope)
        out = self.memo.get(key)
        if out is None:
            out = self.memo[key] = (phi, self._check(e, phi, scope))
        return out[1]

    def _interpret(self, phi: Eq | Less, scope: tuple) -> Refuted | None:
        """The verdict of every realizer of a false atom; None if it holds."""
        asn = _assignment(scope)
        lv = compile_term(phi.left, NATURALS)(asn)
        rv = compile_term(phi.right, NATURALS)(asn)
        holds = lv == rv if isinstance(phi, Eq) else lv < rv
        if holds:
            return None
        op = "=" if isinstance(phi, Eq) else "<"
        return Refuted(f"interpretation fails: {show_nat(lv)} {op} {show_nat(rv)}")

    def _check(self, e: int, phi: Formula, scope: tuple) -> Verdict3:
        match phi:
            case Eq() | Less():
                # the interpretation decides refutation outright; only an
                # accepted atom needs its prefix certified
                key = (id(phi), scope)
                got = self._atoms.get(key)
                if got is None:
                    got = self._atoms[key] = (phi, self._interpret(phi, scope))
                if got[1] is not None:
                    return got[1]
                ok, note, cavs = self.prefix_ok(e, scope)
                if ok is False:
                    return Refuted(note)
                if ok is None:
                    return Unknown(note)
                return Realized(note, cavs)
            case Rel(name, _):
                if name not in self.relations:
                    return Unknown(f"relation {name} not interpreted")
                pts, S = self._rel_set(phi, scope)
                got = member(S, e)
                if got is True:
                    return Realized(f"{name}{pts} holds of {e}", ())
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
                return Realized(vb.note, va.caveats + vb.caveats)
            case Or(a, b):
                parts = coding.decode_seq(e)
                if len(parts) != 2:
                    return Refuted("disjunction realizer is not a pair")
                if parts[0] not in (0, 1):
                    return Refuted("disjunction tag is not 0 or 1")
                side, sub = ("left", a) if parts[0] == 0 else ("right", b)
                v = self.check(parts[1], sub, scope)
                match v:
                    case Refuted(reason):
                        return Refuted(f"{side} disjunct: {reason}")
                    case Unknown(d):
                        return Unknown(f"{side} disjunct: {d}")
                return v
            case Imp(a, b):
                # rows carry (target, sure) for lands; see the module docstring
                target = self.realizer_jset(b, scope)
                cands = (elements(self._rel_set(a, scope)[1])
                         if isinstance(a, Rel) and a.name in self.relations
                         else None)
                caveats = () if cands is not None else (
                    f"antecedent realizers sampled below {CAND_BOUND}",)
                rows = ((m, Singleton(m),
                         (target, self.exact or not got.caveats))
                        for m in (range(CAND_BOUND) if cands is None else cands)
                        if isinstance(got := self.check(m, a, scope), Realized))
                return self._check_map(e, scope, "implication", rows, caveats)
            case Ex(var, body):
                return self._check_ex(e, var, body, scope)
            case All(var, body):
                points, caveats = self._points()
                rows = ((y, self.env.assembly.realizer_set(y),
                         (self.realizer_jset(body, ((var, y),) + scope), True))
                        for y in points)
                return self._check_map(e, scope, "universal", rows, caveats)
        raise TypeError(phi)

    def _rel_set(self, phi: Rel, scope: tuple) -> tuple[tuple, JSet]:
        """An interpreted relation's arguments at the scope, and its set."""
        asn = _assignment(scope)
        pts = tuple(compile_term(a, NATURALS)(asn) for a in phi.args)
        return pts, self.relations[phi.name](pts)

    def _points(self) -> tuple[tuple[Point, ...], tuple[str, ...]]:
        """The carrier's points, every one when it is finite, and any caveat."""
        pts = self.env.assembly.sample_points(QUANT_WINDOW)
        return pts, () if self.exact else (
            f"carrier sampled on a {len(pts)}-point window",)

    def _check_ex(self, e: int, var: str, body: Formula, scope: tuple) -> Verdict3:
        parts = coding.decode_seq(e)
        if len(parts) != 2:
            return Refuted("existential realizer is not a pair")
        # untagged evidence lands in no closure, whatever the point
        if tagged(parts[0]) is None:
            return Refuted("witness evidence is not a tagged pair")
        points, caveats = self._points()
        pending: str | None = None
        for a in points:
            ev_ok = self.lands(parts[0], self.env.assembly.realizer_set(a))[0]
            if ev_ok is False:
                continue
            if ev_ok is None:
                pending = pending or f"witness evidence undecided at {a}"
                continue
            inner = self.check(parts[1], body, ((var, a),) + scope)
            match inner:
                case Realized(note, cavs):
                    return Realized(note, _lift_caveat(parts[:1]) + cavs + caveats)
                case Unknown(d):
                    pending = pending or f"witness {a}: {d}"
        if pending is not None:
            return Unknown(pending)
        if not caveats:
            return Refuted("no carrier point admits this realizer as witness")
        return Unknown(f"no witness on the window; {caveats[0]}")

    def _check_map(self, e: int, scope: tuple, clause: str, rows,
                   caveats: tuple[str, ...]) -> Verdict3:
        """Implication and universal: a prefix, then a map that tracks every
        row's realizers into the closure of the row's target; each row's
        target is a (realizer set, sure) pair for ``lands``."""
        parts = coding.decode_seq(e)
        if len(parts) != 2:
            return Refuted(f"{clause} realizer is not a pair")
        ok, note, prefix_cavs = self.prefix_ok(parts[0], scope)
        if ok is False:
            return Refuted(note)
        rep = track_rows(parts[1], rows, lambda v, t: self.lands(v, *t),
                         self.policy.fuel, 8, False)
        if rep.status is TrackStatus.FAILED:
            return Refuted(f"{clause} map leaves the closure at {rep.witness[0]}")
        if ok is None:
            return Unknown(note)
        if rep.status is TrackStatus.UNKNOWN:
            return Unknown(f"{clause} map undecided at {rep.witness[0]}: {rep.note}")
        return Realized(f"{clause} map lands for {rep.checked} realizers",
                        prefix_cavs + caveats + rep.caveats)


def _lift_caveat(landed) -> tuple[str, ...]:
    """A 1-tagged value that lands can only land by the lift rule."""
    return (LIFT_CAVEAT,) if any(tagged(v)[0] == 1 for v in landed) else ()


def jrealizes(e: int, phi: Formula, env: Env, policy: CheckPolicy) -> Verdict3:
    missing = free_vars(phi)
    if missing:
        raise InputError(f"unassigned free variables: {sorted(missing)}")
    checker = Checker(env, policy)
    v = checker.check(e, phi)
    if isinstance(v, Realized):
        read = tuple(c for c in checker.read_caveats if c not in v.caveats)
        return Realized(v.note, v.caveats + read)
    return v


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
        raise InputError("builder needs a closed sentence")
    if not is_delta0(phi):
        raise InputError("builder covers bounded-quantifier sentences only")
    if not compile_formula(phi, NATURALS, None)({}):
        raise InputError(f"classically false: {show_formula(phi)}")
    return _build(phi, ())


def _build(phi: Formula, scope: tuple) -> int:
    asn = _assignment(scope)
    match phi:
        case Eq(_, _) | Less(_, _):
            return _prefix_int(scope)
        case And(a, b):
            return coding.pair(_build(a, scope), _build(b, scope))
        case Or(a, b):
            if compile_formula(a, NATURALS, None)(asn):
                return coding.pair(0, _build(a, scope))
            return coding.pair(1, _build(b, scope))
        case Imp(a, b):
            if not compile_formula(a, NATURALS, None)(asn):
                return coding.pair(_prefix_int(scope), _K0_CODE)
            return coding.pair(_prefix_int(scope),
                               _const_realizer_code(_build(b, scope)))
        case All(_, guarded):
            var, bound_t, _ = bound_of(phi)
            n = compile_term(bound_t, NATURALS)(asn)
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
            n = compile_term(bound_t, NATURALS)(asn)
            holds = compile_formula(body, NATURALS, None)
            for w in range(n):
                if holds({**asn, var: w}):
                    return coding.pair(coding.pair(0, w),
                                       _build(guarded, ((var, w),) + scope))
            raise AssertionError("true bounded existential lost its witness")
    raise InputError(f"no builder for {show_formula(phi)}")


def build_sigma1(phi: Formula) -> int | None:
    """Dovetail witnesses for an unguarded existential over a true core."""
    match phi:
        case Ex(var, body) if is_delta0(body) and not (free_vars(body) - {var}):
            holds = compile_formula(body, NATURALS, None)
            for w in range(WITNESS_BOUND):
                if holds({var: w}):
                    return coding.pair(coding.pair(0, w),
                                       _build(body, ((var, w),)))
            return None
    raise InputError("expected one unguarded existential over a bounded core")