"""Host-side sets of naturals used as certificate targets.

Four directly decidable shapes, a fueled predicate wrapper whose test may
come back undecided, and ``JOf`` marking a target that is itself a closure:
membership there is certificate-mediated, never answered directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True, slots=True)
class Finite:
    elems: frozenset[int]


@dataclass(frozen=True, slots=True)
class Cofinite:
    excluded: frozenset[int]


@dataclass(frozen=True, slots=True)
class Singleton:
    k: int


@dataclass(frozen=True, slots=True)
class UpFrom:
    n: int


@dataclass(frozen=True, slots=True)
class ByPredicate:
    """Host membership test; may answer None (undecided under its budget)."""

    test: Callable[[int], bool | None]
    name: str = "predicate"


@dataclass(frozen=True, slots=True)
class JOf:
    """The closure of ``inner`` viewed as a set; direct queries are refused."""

    inner: "JSet"


JSet = Finite | Cofinite | Singleton | UpFrom | ByPredicate | JOf


def finite(*elems: int) -> Finite:
    return Finite(frozenset(elems))


def member(A: JSet, x: int) -> bool | None:
    match A:
        case Finite(elems):
            return x in elems
        case Cofinite(excluded):
            return x not in excluded
        case Singleton(k):
            return x == k
        case UpFrom(n):
            return x >= n
        case ByPredicate(test, _):
            return test(x)
        case JOf(_):
            return None
        case _:
            raise TypeError(A)


def is_empty(A: JSet) -> bool | None:
    """Emptiness; the closure of a set is empty exactly when the set is."""
    match A:
        case Finite(elems):
            return not elems
        case Cofinite(_) | UpFrom(_) | Singleton(_):
            return False
        case ByPredicate(_, _):
            return None
        case JOf(inner):
            return is_empty(inner)
        case _:
            raise TypeError(A)


def elements(A: JSet) -> tuple[int, ...] | None:
    """The sorted members of a finite or singleton set, None for other shapes."""
    match A:
        case Finite(elems):
            return tuple(sorted(elems))
        case Singleton(k):
            return (k,)
    return None


def sample(A: JSet, count: int) -> tuple[int, ...]:
    """Deterministic members of A, smallest first; short when A runs out.
    A predicate set is only tried below 512."""
    exact = elements(A)
    if exact is not None:
        return exact[:count]
    out: list[int] = []
    match A:
        case Cofinite(excluded):
            x = 0
            while len(out) < count:
                if x not in excluded:
                    out.append(x)
                x += 1
        case UpFrom(n):
            out = list(range(n, n + count))
        case ByPredicate(test, _):
            for x in range(512):
                if len(out) >= count:
                    break
                if test(x):
                    out.append(x)
        case JOf(_):
            raise ValueError("closure sets have no direct sampling")
        case _:
            raise TypeError(A)
    return tuple(out)


# ---------------------------------------------------------------------------
# text format
#
#   {1,2,3}   {}   cofinite{0,5}   upfrom 7   single 4


class JSetSyntaxError(ValueError):
    pass


def show_jset(A: JSet) -> str:
    match A:
        case Finite(elems):
            return "{" + ",".join(str(x) for x in sorted(elems)) + "}"
        case Cofinite(excluded):
            return "cofinite{" + ",".join(str(x) for x in sorted(excluded)) + "}"
        case Singleton(k):
            return f"single {k}"
        case UpFrom(n):
            return f"upfrom {n}"
        case ByPredicate(_, name):
            return f"<predicate {name}>"
        case JOf(inner):
            return f"J({show_jset(inner)})"
        case _:
            raise TypeError(A)


def _parse_brace_list(body: str, what: str) -> frozenset[int]:
    body = body.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise JSetSyntaxError(f"{what}: expected braces, got {body!r}")
    inner = body[1:-1].strip()
    if not inner:
        return frozenset()
    try:
        members = frozenset(int(part) for part in inner.split(","))
    except ValueError as exc:
        raise JSetSyntaxError(f"{what}: {exc}") from None
    if any(x < 0 for x in members):
        raise JSetSyntaxError(f"{what}: negative member {min(members)}")
    return members


def parse_jset(text: str) -> JSet:
    src = text.strip()
    if src.startswith("cofinite"):
        return Cofinite(_parse_brace_list(src[len("cofinite"):], "cofinite"))
    if src.startswith("{"):
        return Finite(_parse_brace_list(src, "finite"))
    fields = src.split()
    if (len(fields) == 2 and fields[1].isascii() and fields[1].isdigit()
            and fields[0] in ("single", "upfrom")):
        return (Singleton if fields[0] == "single" else UpFrom)(int(fields[1]))
    raise JSetSyntaxError(f"unrecognized set spec {text!r}")
