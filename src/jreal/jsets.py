"""Host-side sets of naturals used as certificate targets.

Four directly decidable shapes, a fueled predicate wrapper whose test may
come back undecided, and ``JOf`` marking a target that is itself a closure:
membership there is certificate-mediated, never answered directly.

Text form, read through ``text.Cursor``: ``set := '{' nats '}' | 'cofinite'
'{' nats '}' | 'single' nat | 'upfrom' nat`` with ``nats := [nat (',' nat)*]``.
``read_jset`` reads a set at any cursor whose lexer knows '{', '}' and ','.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
from typing import Callable

from .text import Cursor, lexer


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
    match A:
        case Cofinite(excluded):
            members = (x for x in itertools.count() if x not in excluded)
        case UpFrom(n):
            members = itertools.count(n)
        case ByPredicate(test, _):
            members = filter(test, range(512))
        case JOf(_):
            raise ValueError("closure sets have no direct sampling")
        case _:
            raise TypeError(A)
    return tuple(itertools.islice(members, count))


# ---------------------------------------------------------------------------
# text format (see the module docstring)

SET_TOKENS = lexer("{", "}", ",")


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


def read_members(c: Cursor) -> frozenset[int]:
    """A brace list of numerals at the cursor: {}, {3} or {1,2,3}."""
    c.expect("{")
    members: set[int] = set()
    while c.peek() != "}":
        if members:
            c.expect(",")
        members.add(c.nat())
    c.take()
    return frozenset(members)


def read_jset(c: Cursor) -> JSet:
    """One set at the cursor, whose lexer must know '{', '}' and ','."""
    head = c.peek()
    if head == "{":
        return Finite(read_members(c))
    if head not in ("cofinite", "single", "upfrom"):
        c.wanted("a set")
    c.take()
    if head == "cofinite":
        return Cofinite(read_members(c))
    return (Singleton if head == "single" else UpFrom)(c.nat())


def parse_jset(text: str) -> JSet:
    c = Cursor(SET_TOKENS, text)
    A = read_jset(c)
    c.done()
    return A
