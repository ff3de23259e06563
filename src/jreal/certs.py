"""Membership certificates for the inductively generated closure of a set.

A certificate claims that a value lies in the closure of a target set and is
checked against the two generating rules:

  base: the value is <0,a> with a in the target;
  lift: the value is <1,e> where e maps every point past some threshold back
        into the closure, witnessed by per-point tail certificates.

The lift rule's universal condition is sampled on a finite window, so an
Accepted verdict is a bounded approximation by construction, never a proof.
Rejection always carries the first failing rule, sample point, or fuel site.

When the target is itself a closure (a ``JOf`` set), a base certificate must
carry an inner certificate for its payload; there is no direct membership
test to fall back on.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import coding
from .jsets import JOf, JSet, member, show_jset
from .machine import DEFAULT_FUEL, OutOfFuel, apply_cached
from .terms import App, K, Num, encode_term


@dataclass(frozen=True, slots=True)
class Base:
    a: int
    inner: "Cert | None" = None


@dataclass(frozen=True, slots=True)
class Lift:
    threshold: int
    tails: tuple[tuple[int, "Cert"], ...]
    # schema is a free-form note that all tails share one shape; the checker
    # ignores it and the text format does not carry it.
    schema: str | None = None


Cert = Base | Lift


@dataclass(frozen=True, slots=True)
class CheckPolicy:
    depth: int = 4
    window: int = 4
    fuel: int = DEFAULT_FUEL

    def __post_init__(self) -> None:
        if self.depth < 1 or self.window < 1 or self.fuel < 1:
            raise ValueError("policy bounds must be at least 1")

    def window_points(self, threshold: int) -> range:
        return range(threshold, threshold + self.window)


@dataclass(frozen=True, slots=True)
class Accepted:
    # sampled is set when any lift rule was exercised on the way
    sampled: bool = False


@dataclass(frozen=True, slots=True)
class Rejected:
    reason: str


CheckResult = Accepted | Rejected


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
            return Accepted()
        case Lift(threshold, tails, _):
            parts = coding.decode_seq(x)
            if len(parts) != 2 or parts[0] != 1:
                return Rejected(f"lift: {x} is not a 1-tagged pair")
            e = parts[1]
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
            return Accepted(sampled=True)
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


class CertSearch:
    """Bounded search for a certificate of x in the closure of a target.

    Thresholds for the lift rule are tried up to ``max_threshold``; results
    and tail applications are memoized so overlapping windows come cheap.
    A ``None`` answer means no certificate was found inside the bounds, not
    that membership fails.  ``_applied`` keeps tail values per searcher on
    top of ``apply_cached``: a window revisited within one search skips the
    shared cache, whose hit counts the benchmark pins.
    """

    def __init__(self, policy: CheckPolicy, max_threshold: int = 4):
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
        parts = coding.decode_seq(v)
        if len(parts) != 2 or parts[0] not in (0, 1):
            return False, "tracker output is not a tagged pair"
        if parts[0] == 0 and not isinstance(target, JOf):
            inside = member(target, parts[1])
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
        self._memo[key] = None  # cuts self-referential code loops short
        found: Cert | None = None
        parts = coding.decode_seq(x)
        if len(parts) == 2 and parts[0] == 0:
            payload = parts[1]
            if isinstance(target, JOf):
                inner = self.search(payload, target.inner, depth - 1)
                if inner is not None:
                    found = Base(payload, inner)
            elif member(target, payload):
                found = Base(payload)
        elif len(parts) == 2 and parts[0] == 1:
            e = parts[1]
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


def search_cert(x: int, target: JSet, policy: CheckPolicy, max_threshold: int = 4) -> Cert | None:
    return CertSearch(policy, max_threshold).search(x, target)


def lifted_constant(x: int, cert: Cert, threshold: int, policy: CheckPolicy) -> tuple[int, Cert]:
    """Wrap a certified member as a 1-tagged constant code, certified."""
    e = encode_term(App(K, Num(x)))
    tails = tuple((m, cert) for m in policy.window_points(threshold))
    return coding.pair(1, e), Lift(threshold, tails, schema="constant")


# ---------------------------------------------------------------------------
# text format
#
#   (base 5)   (base 5 (base 9))   (lift 2 (2 (base 0)) (3 (base 0)) ...)


class CertSyntaxError(ValueError):
    pass


def show_cert(cert: Cert) -> str:
    match cert:
        case Base(a, None):
            return f"(base {a})"
        case Base(a, inner):
            return f"(base {a} {show_cert(inner)})"
        case Lift(threshold, tails, _):
            body = " ".join(f"({m} {show_cert(c)})" for m, c in tails)
            return f"(lift {threshold} {body})" if body else f"(lift {threshold})"
        case _:
            raise TypeError(cert)


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_cert(text: str) -> Cert:
    tokens = _tokenize(text)
    cert, rest = _parse_cert(tokens)
    if rest:
        raise CertSyntaxError(f"trailing tokens {rest!r}")
    return cert


def _expect(tokens: list[str], what: str) -> list[str]:
    if not tokens or tokens[0] != what:
        raise CertSyntaxError(f"expected {what!r} at {tokens[:3]!r}")
    return tokens[1:]


def _nat(tokens: list[str]) -> tuple[int, list[str]]:
    if not tokens or not tokens[0].isdigit():
        raise CertSyntaxError(f"expected a number at {tokens[:3]!r}")
    return int(tokens[0]), tokens[1:]


def _parse_cert(tokens: list[str]) -> tuple[Cert, list[str]]:
    tokens = _expect(tokens, "(")
    if not tokens:
        raise CertSyntaxError("unterminated certificate")
    head, tokens = tokens[0], tokens[1:]
    if head == "base":
        a, tokens = _nat(tokens)
        inner: Cert | None = None
        if tokens and tokens[0] == "(":
            inner, tokens = _parse_cert(tokens)
        return Base(a, inner), _expect(tokens, ")")
    if head == "lift":
        threshold, tokens = _nat(tokens)
        tails: list[tuple[int, Cert]] = []
        while tokens and tokens[0] == "(":
            tokens = tokens[1:]
            m, tokens = _nat(tokens)
            sub, tokens = _parse_cert(tokens)
            tokens = _expect(tokens, ")")
            tails.append((m, sub))
        return Lift(threshold, tuple(tails)), _expect(tokens, ")")
    raise CertSyntaxError(f"unknown certificate head {head!r}")
