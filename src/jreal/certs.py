"""Membership certificates for the inductively generated closure of a set.

A certificate claims that a value lies in the closure of a target set and is
checked against the two generating rules:

  base: the value is <0,a> with a in the target;
  lift: the value is <1,e> where e maps every point past some threshold back
        into the closure, witnessed by per-point tail certificates.

The lift rule's universal condition is sampled on a finite window, so an
Accepted verdict that used it is a bounded approximation, never a proof,
and its caveats are ``(LIFT_CAVEAT,)``; otherwise they are empty.
Rejection always carries the first failing rule, sample point, or fuel site.

When the target is itself a closure (a ``JOf`` set), a base certificate must
carry an inner certificate for its payload; there is no direct membership
test to fall back on.

Every layer asks a value the same question, <0,a>, <1,e> or neither, and
``tagged`` answers it from the sequence's first three entries behind one
bounded cache of 4,096 values.  That holds all the distinct values of a
whole seed-0 benchmark stream: 2,247 on search (1,201 in its measured
prefix) and 2,168 on certify (358), where they reach 141,000 bits.

``CertSearch`` memoizes answers by (value, target, depth).  It recurses at
a smaller depth only, so the memo holds no provisional entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import coding
from .jsets import JOf, JSet, member, show_jset
from .machine import DEFAULT_FUEL, OutOfFuel, apply_cached
from .terms import App, K, Num, encode_term
from .text import Cursor, InputError, lexer


@dataclass(frozen=True, slots=True)
class Base:
    a: int
    inner: "Cert | None" = None


@dataclass(frozen=True, slots=True)
class Lift:
    threshold: int
    tails: tuple[tuple[int, "Cert"], ...]


Cert = Base | Lift

# the caveat of every verdict whose certificate used the lift rule
LIFT_CAVEAT = "lift obligations checked on a finite window only"


@dataclass(frozen=True, slots=True)
class CheckPolicy:
    depth: int = 4
    window: int = 4
    fuel: int = DEFAULT_FUEL

    def __post_init__(self) -> None:
        if self.depth < 1 or self.window < 1 or self.fuel < 1:
            raise InputError("policy bounds must be at least 1")

    def window_points(self, threshold: int) -> range:
        return range(threshold, threshold + self.window)


@dataclass(frozen=True, slots=True)
class Accepted:
    caveats: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Rejected:
    reason: str


CheckResult = Accepted | Rejected


@lru_cache(maxsize=1 << 12)
def tagged(v: int) -> tuple[int, int] | None:
    """(tag, payload) when v is <0,a> or <1,e>, the two shapes the closure
    rules make; None for every other code, which lies in no closure.  Three
    entries tell a pair from a longer sequence.  This cache is the only one
    on tag reads (sized in the module docstring)."""
    parts = coding.seq_prefix(v, 3)
    if len(parts) == 2 and parts[0] < 2:
        return parts
    return None


def check_cert(x: int, target: JSet, cert: Cert, policy: CheckPolicy) -> CheckResult:
    return _check(x, target, cert, policy, policy.depth)


def _check(x: int, target: JSet, cert: Cert, policy: CheckPolicy, depth: int) -> CheckResult:
    if depth <= 0:
        return Rejected("certificate deeper than the policy depth")
    match cert:
        case Base(a, inner):
            if x != coding.pair(0, a):
                return Rejected(f"base: {x} is not the 0-tagged pair of {a}")
            if isinstance(target, JOf):
                if inner is None:
                    return Rejected("base: nested target needs an inner certificate")
                return _check(a, target.inner, inner, policy, depth - 1)
            if inner is not None:
                return Rejected("base: inner certificate against a plain target")
            got = member(target, a)
            if got is None:
                return Rejected(f"base: membership of {a} in {show_jset(target)} undecided")
            if not got:
                return Rejected(f"base: {a} not in {show_jset(target)}")
            return Accepted(())
        case Lift(threshold, tails):
            got = tagged(x)
            if got is None or got[0] != 1:
                return Rejected(f"lift: {x} is not a 1-tagged pair")
            e = got[1]
            table = dict(tails)
            for m in policy.window_points(threshold):
                tail = table.get(m)
                if tail is None:
                    return Rejected(f"lift: no tail certificate for sample {m}")
                res = apply_cached(e, m, policy.fuel)
                if isinstance(res, OutOfFuel):
                    return Rejected(f"lift: fuel exhausted applying the tail code at {m}")
                sub = _check(res.value, target, tail, policy, depth - 1)
                if isinstance(sub, Rejected):
                    return Rejected(f"lift at {m}: {sub.reason}")
            return Accepted((LIFT_CAVEAT,))
        case _:
            raise TypeError(cert)


# ---------------------------------------------------------------------------
# bounded certificate search


# The largest lift threshold tried when tracking maps and checking realizers.
# The realizability verdicts and the step and cache counts pinned by the
# tests and the benchmark rest on it.
TRACK_THRESHOLD = 3
# exponent_finite runs a fresh search per (output, target) over thousands of
# raw candidate codes; threshold 1 keeps each one short (3 costs extra machine
# runs on the same candidates).
SCAN_THRESHOLD = 1
# search_cert, a search on its own, looks one threshold past tracking
SEARCH_THRESHOLD = 4


class CertSearch:
    """Bounded search for a certificate of x in the closure of a target.

    Thresholds for the lift rule are tried up to ``max_threshold``; results
    and tail applications are memoized so overlapping windows come cheap.
    A ``None`` answer means no certificate was found inside the bounds, not
    that membership fails.  ``_applied`` keeps tail values per searcher on
    top of ``apply_cached``: a window revisited within one search skips the
    shared cache, whose hit counts the benchmark pins.
    """

    def __init__(self, policy: CheckPolicy, max_threshold: int):
        self.policy = policy
        self.max_threshold = max_threshold
        self._memo: dict[tuple[int, JSet, int], Cert | None] = {}
        self._applied: dict[tuple[int, int], int | None] = {}

    def decide(self, v: int, target: JSet) -> tuple[bool | None, str]:
        """Whether v, typically a tracker's output, is in the closure of target.

        True and False are definite; None means undecided at these bounds.
        A value that is not a tagged pair is outside the closure.  A base
        payload against a plain target is a direct membership question;
        against a closure target, and for a lift, a certificate is searched.
        """
        got = tagged(v)
        if got is None:
            return False, "tracker output is not a tagged pair"
        tag, payload = got
        if tag == 0 and not isinstance(target, JOf):
            inside = member(target, payload)
            if inside is None:
                return None, "target membership undecided"
            if not inside:
                return False, "base payload lands outside the target set"
            return True, "base payload in the target set"
        if self.search(v, target) is None:
            return None, "no certificate at these bounds"
        return True, "certificate found"

    def _apply(self, e: int, m: int) -> int | None:
        key = (e, m)
        if key not in self._applied:
            res = apply_cached(e, m, self.policy.fuel)
            self._applied[key] = None if isinstance(res, OutOfFuel) else res.value
        return self._applied[key]

    def search(self, x: int, target: JSet, depth: int | None = None) -> Cert | None:
        if depth is None:
            depth = self.policy.depth
        if depth <= 0:
            return None
        key = (x, target, depth)
        if key in self._memo:
            return self._memo[key]
        found: Cert | None = None
        match tagged(x):
            case (0, payload):
                if isinstance(target, JOf):
                    inner = self.search(payload, target.inner, depth - 1)
                    if inner is not None:
                        found = Base(payload, inner)
                elif member(target, payload):
                    found = Base(payload)
            case (1, e):
                for threshold in range(self.max_threshold + 1):
                    tails: list[tuple[int, Cert]] = []
                    for m in self.policy.window_points(threshold):
                        value = self._apply(e, m)
                        if value is None:
                            break
                        sub = self.search(value, target, depth - 1)
                        if sub is None:
                            break
                        tails.append((m, sub))
                    else:
                        found = Lift(threshold, tuple(tails))
                        break
        self._memo[key] = found
        return found


def search_cert(x: int, target: JSet, policy: CheckPolicy) -> Cert | None:
    return CertSearch(policy, SEARCH_THRESHOLD).search(x, target)


def lifted_constant(x: int, cert: Cert, threshold: int, policy: CheckPolicy) -> tuple[int, Cert]:
    """Wrap a certified member as a 1-tagged constant code, certified."""
    e = encode_term(App(K, Num(x)))
    tails = tuple((m, cert) for m in policy.window_points(threshold))
    return coding.pair(1, e), Lift(threshold, tails)


# ---------------------------------------------------------------------------
# text format
#
#   (base 5)   (base 5 (base 9))   (lift 2 (2 (base 0)) (3 (base 0)) ...)

def show_cert(cert: Cert) -> str:
    match cert:
        case Base(a, None):
            return f"(base {a})"
        case Base(a, inner):
            return f"(base {a} {show_cert(inner)})"
        case Lift(threshold, tails):
            body = " ".join(f"({m} {show_cert(c)})" for m, c in tails)
            return f"(lift {threshold} {body})" if body else f"(lift {threshold})"
        case _:
            raise TypeError(cert)


_TOKENS = lexer("(", ")")


def parse_cert(text: str) -> Cert:
    c = Cursor(_TOKENS, text)
    cert = c.nested(_cert, c)
    c.done()
    return cert


def _cert(c: Cursor) -> Cert:
    c.expect("(")
    head = c.peek()
    if head == "base":
        c.take()
        a = c.nat()
        inner = c.nested(_cert, c) if c.peek() == "(" else None
        c.expect(")")
        return Base(a, inner)
    if head == "lift":
        c.take()
        threshold = c.nat()
        tails: list[tuple[int, Cert]] = []
        while c.peek() == "(":
            c.take()
            m = c.nat()
            tails.append((m, c.nested(_cert, c)))
            c.expect(")")
        c.expect(")")
        return Lift(threshold, tuple(tails))
    c.wanted("'base' or 'lift'")
