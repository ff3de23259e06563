"""Certified decision procedures closed under complement and countable union.

A decision tree names a set of naturals: a singleton, the complement of a
named set, or a union of named sets.  Each tree compiles to one code that,
applied to a point, lands in the closure of the one-bit answer: bit 0 for
membership, bit 1 for absence.  Singletons answer with the unit combinator
directly, complements push a bit swap through the answer with fmap, and
unions stage a growing scan of the member deciders and flatten it.

A run classifies a point by rebuilding the answer's certificate through the
combinator mirrors, following the tree the code was compiled from, and then
checking that certificate against the machine's actual output value.  The
verdict is only as strong as the check: a rejected certificate, a mirror
mismatch, or fuel exhaustion all come back Unknown.  Run certificates
sample one point per stage by default; widen the policy window for
stronger evidence at superlinear replay cost.

Partial functions enter through their finite graphs: the compiled code
converges exactly on the graph's keys, while a total scanning companion
reports the least matching index so absence is itself decidable.
"""

from __future__ import annotations

from enum import Enum
from dataclasses import dataclass
from functools import cache
from random import Random

from . import coding
from .bracket import lam
from .certs import Accepted, Base, Cert, CheckPolicy, check_cert
from .jsets import Singleton
from .kit import (
    A_TERM,
    B_TERM,
    C_TERM,
    D_TERM,
    MirrorError,
    MirrorFn,
    cor_gh,
    mirror_b,
    mirror_c,
    mirror_d,
    mirror_lifted,
)
from .machine import DEFAULT_FUEL, Value, apply, apply_cached
from .prog import EQ01, MONUS, fixlam, ite, p1, tag0
from .terms import App, CONS, FIX, Num, PRED, PROJ, Term, Var, ap, encode_term, subst


# ---------------------------------------------------------------------------
# trees


@dataclass(frozen=True, slots=True)
class One:
    point: int


@dataclass(frozen=True, slots=True)
class Not:
    inner: "DecTree"


@dataclass(frozen=True, slots=True)
class Union:
    parts: tuple["DecTree", ...]


DecTree = One | Not | Union


def ground_truth(tree: DecTree, x: int) -> bool:
    match tree:
        case One(point):
            return x == point
        case Not(inner):
            return not ground_truth(inner, x)
        case Union(parts):
            return any(ground_truth(p, x) for p in parts)
    raise TypeError(f"not a decision tree: {tree!r}")


def height(tree: DecTree) -> int:
    match tree:
        case One():
            return 0
        case Not(inner):
            return 1 + height(inner)
        case Union(parts):
            return 1 + max((height(p) for p in parts), default=0)


def leaves(tree: DecTree) -> int:
    match tree:
        case One():
            return 1
        case Not(inner):
            return leaves(inner)
        case Union(parts):
            return sum(leaves(p) for p in parts)


def random_tree(rng: Random, depth: int, limit: int = 10) -> DecTree:
    if depth <= 0 or rng.random() < 0.3:
        return One(rng.randrange(limit))
    if rng.random() < 0.4:
        return Not(random_tree(rng, depth - 1, limit))
    width = rng.randrange(2, 4)
    return Union(tuple(random_tree(rng, depth - 1, limit) for _ in range(width)))


# ---------------------------------------------------------------------------
# compilation

_SWAP_TERM = lam("b", ite(Var("b"), Num(1), Num(0)))
_SWAP_CODE = encode_term(_SWAP_TERM)

_ALWAYS_OUT_CODE = encode_term(lam("x", tag0(Num(1))))

# seq of the first n+1 enumerated decider outputs at x, newest first;
# prepending keeps the build linear and the any-zero scanner is order-blind
BUILDSCAN = fixlam(
    "bq", "en", "x", "n",
    ite(Var("n"),
        ap(CONS, ap(ap(Var("en"), Num(0)), Var("x")), Num(0)),
        ap(CONS,
           ap(ap(Var("en"), Var("n")), Var("x")),
           ap(Var("bq"), Var("en"), Var("x"), App(PRED, Var("n"))))),
)


def _enum_term(member_codes: tuple[int, ...]) -> Term:
    if not member_codes:
        return lam("n", Num(_ALWAYS_OUT_CODE))
    last = len(member_codes) - 1
    seq = Num(coding.encode_seq(list(member_codes)))
    clamped = ap(MONUS, Var("n"), ap(MONUS, Var("n"), Num(last)))
    return lam("n", ap(PROJ, seq, clamped))


@cache
def _any_lifted():
    return cor_gh().any_zero


def _any_zero_code() -> int:
    return _any_lifted().g_code


@cache
def _stage_term(tree: "Union") -> Term:
    """The staged scan body of a union decider, with the point left free."""
    enum_code = encode_term(_enum_term(tuple(decider_code(p) for p in tree.parts)))
    return lam("n", App(Num(_any_zero_code()),
                        ap(BUILDSCAN, Num(enum_code), Var("x"), Var("n"))))


@cache
def decider_term(tree: DecTree) -> Term:
    match tree:
        case One(point):
            return lam("x", App(A_TERM, ap(EQ01, Var("x"), Num(point))))
        case Not(inner):
            inner_code = decider_code(inner)
            return lam("x", App(App(B_TERM, Num(_SWAP_CODE)),
                                App(Num(inner_code), Var("x"))))
        case Union():
            return lam("x", App(D_TERM, App(C_TERM, _stage_term(tree))))
    raise TypeError(f"not a decision tree: {tree!r}")


@cache
def decider_code(tree: DecTree) -> int:
    return encode_term(decider_term(tree))


# ---------------------------------------------------------------------------
# running


class Verdict(Enum):
    IN = "in"
    OUT = "out"
    UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class RunResult:
    verdict: Verdict
    value: int | None
    cert: Cert | None
    note: str


def cert_depth_bound(tree: DecTree, window: int) -> int:
    """Upper bound on the certificate depth a run can produce."""
    match tree:
        case One():
            return 1
        case Not(inner):
            return cert_depth_bound(inner, window)
        case Union(parts):
            if not parts:
                return 2
            # deepest window point is k + window - 1 with k at most the
            # last member index, and padding repeats the last member
            scan = [parts[min(i, len(parts) - 1)]
                    for i in range(len(parts) + window - 1)]
            stage = 1 + sum(max(cert_depth_bound(p, window) - 1, 0) for p in scan)
            return 1 + stage
    raise TypeError(f"not a decision tree: {tree!r}")


def run_policy(tree: DecTree, fuel: int = DEFAULT_FUEL, window: int = 1) -> CheckPolicy:
    return CheckPolicy(depth=cert_depth_bound(tree, window) + 1, window=window, fuel=fuel)


def _mirror_run(tree: DecTree, x: int, policy: CheckPolicy,
                memo: dict) -> tuple[int, Cert, int]:
    """Predicted output value, its certificate, and the answer bit."""
    got = memo.get(tree)
    if got is not None:
        return got
    match tree:
        case One(point):
            bit = 0 if x == point else 1
            out = coding.pair(0, bit), Base(bit), bit
        case Not(inner):
            v_in, c_in, b_in = _mirror_run(inner, x, policy, memo)
            swap = MirrorFn(Num(_SWAP_CODE), lambda y: ((1 if y == 0 else 0), None))
            v, c = mirror_b(swap, v_in, c_in, policy)
            out = v, c, 1 - b_in
        case Union(parts):
            if parts:
                mems = [_mirror_run(p, x, policy, memo) for p in parts]
                bit = 0 if any(b == 0 for _, _, b in mems) else 1
                threshold = next((i for i, (_, _, b) in enumerate(mems) if b == 0), 0)
                entry = [(v, c) for v, c, _ in mems]
            else:
                bit, threshold = 1, 0
                entry = [(coding.pair(0, 1), Base(1))]
            scanner = _any_lifted()

            def stage_value(m: int) -> tuple[int, Cert]:
                scan = [entry[min(i, len(entry) - 1)] for i in range(m, -1, -1)]
                return mirror_lifted(scanner, scan, policy)

            f = MirrorFn(subst(_stage_term(tree), {"x": Num(x)}), stage_value)
            c_val, c_cert = mirror_c(f, threshold, policy)
            v, c = mirror_d(c_val, c_cert, policy)
            out = v, c, bit
        case _:
            raise TypeError(f"not a decision tree: {tree!r}")
    memo[tree] = out
    return out


def run_decider(tree: DecTree, x: int,
                policy: CheckPolicy | None = None) -> RunResult:
    """Classify a point, backing the verdict with a checked certificate."""
    policy = policy or run_policy(tree)
    res = apply_cached(decider_code(tree), x, policy.fuel)
    if not isinstance(res, Value):
        return RunResult(Verdict.UNKNOWN, None, None,
                         f"decider ran out of fuel after {res.steps} steps")
    try:
        value, cert, bit = _mirror_run(tree, x, policy, {})
    except MirrorError as exc:
        return RunResult(Verdict.UNKNOWN, res.value, None, str(exc))
    if value != res.value:
        return RunResult(Verdict.UNKNOWN, res.value, None,
                         "mirror and machine disagree on the output value")
    checked = check_cert(res.value, Singleton(bit), cert, policy)
    if not isinstance(checked, Accepted):
        return RunResult(Verdict.UNKNOWN, res.value, cert,
                         f"certificate rejected: {checked.reason}")
    verdict = Verdict.IN if bit == 0 else Verdict.OUT
    return RunResult(verdict, res.value, cert, "answer bit certified")


# ---------------------------------------------------------------------------
# partial functions through their graphs

_DIVERGE = ap(App(FIX, lam("lp", "z", ap(Var("lp"), Var("z")))), Num(0))


def _match_bits(keys: list[int]) -> Term:
    """Straight-line seq of unit-tagged match bits; the graph is fixed, so
    the per-key scan unrolls at build time instead of recursing at run time."""
    bits: Term = Num(0)
    for k in reversed(keys):
        bits = ap(CONS, tag0(ap(EQ01, Var("x"), Num(k))), bits)
    return bits


@cache
def _least_zero_code() -> int:
    return cor_gh().least_zero.g_code


@dataclass(frozen=True, slots=True)
class Representation:
    graph: tuple[tuple[int, int], ...]
    code: int       # converges exactly on the keys
    scan_code: int  # total: least matching key index, length when absent


def represent_from_graph(graph: dict[int, int] | list[tuple[int, int]]) -> Representation:
    pairs = tuple(sorted(graph.items() if isinstance(graph, dict) else graph))
    keys = [k for k, _ in pairs]
    if len(set(keys)) != len(keys):
        raise ValueError("graph keys must be distinct")
    vals = [v for _, v in pairs]
    l = len(pairs)
    scan_body = p1(App(Num(_least_zero_code()), _match_bits(keys)))
    scan_term = lam("x", scan_body)
    main_term = lam("x", App(
        lam("m", ite(ap(EQ01, Var("m"), Num(l)),
                     _DIVERGE,
                     ap(PROJ, Num(coding.encode_seq(vals)), Var("m")))),
        scan_body))
    return Representation(pairs, encode_term(main_term), encode_term(scan_term))


class PartialOutcome(Enum):
    VALUE = "value"
    NOT_IN_DOMAIN = "not-in-domain"
    UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class PartialResult:
    outcome: PartialOutcome
    value: int | None
    note: str


def partial_apply(rep: Representation, x: int, fuel: int = DEFAULT_FUEL) -> PartialResult:
    res = apply(rep.code, x, fuel)
    if isinstance(res, Value):
        return PartialResult(PartialOutcome.VALUE, res.value, "converged")
    scan = apply(rep.scan_code, x, fuel)
    if isinstance(scan, Value):
        if scan.value >= len(rep.graph):
            return PartialResult(PartialOutcome.NOT_IN_DOMAIN, None,
                                 "scan converged with no matching key")
        return PartialResult(PartialOutcome.UNKNOWN, None,
                             f"key at index {scan.value} matched but evaluation ran out of fuel")
    return PartialResult(PartialOutcome.UNKNOWN, None, "scan ran out of fuel")


# ---------------------------------------------------------------------------
# text format
#
#   one 4
#   not one 4
#   union (one 1) (not one 2)


class DecSyntaxError(ValueError):
    pass


def show_dec(tree: DecTree) -> str:
    match tree:
        case One(point):
            return f"one {point}"
        case Not(inner):
            return f"not {show_dec(inner)}"
        case Union(parts):
            if not parts:
                return "union"
            return "union " + " ".join(f"({show_dec(p)})" for p in parts)
    raise TypeError(f"not a decision tree: {tree!r}")


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse(tokens: list[str], pos: int) -> tuple[DecTree, int]:
    if pos >= len(tokens):
        raise DecSyntaxError("unexpected end of input")
    head = tokens[pos]
    if head == "one":
        if pos + 1 >= len(tokens) or not tokens[pos + 1].isdigit():
            raise DecSyntaxError("one needs a numeral")
        return One(int(tokens[pos + 1])), pos + 2
    if head == "not":
        inner, nxt = _parse(tokens, pos + 1)
        return Not(inner), nxt
    if head == "union":
        parts = []
        nxt = pos + 1
        while nxt < len(tokens) and tokens[nxt] == "(":
            part, after = _parse(tokens, nxt + 1)
            if after >= len(tokens) or tokens[after] != ")":
                raise DecSyntaxError("unclosed group")
            parts.append(part)
            nxt = after + 1
        return Union(tuple(parts)), nxt
    raise DecSyntaxError(f"unexpected token {head!r}")


def parse_dec(text: str) -> DecTree:
    tokens = _tokenize(text)
    tree, pos = _parse(tokens, 0)
    if pos != len(tokens):
        raise DecSyntaxError(f"trailing tokens from {tokens[pos]!r}")
    return tree
