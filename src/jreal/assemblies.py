"""Assemblies over the closure engine: tracked maps and their constructions.

An assembly attaches a nonempty realizer set to every point of a carrier.
Carriers are finite label lists, the natural numbers with singleton
realizers, or binary products with wedge realizer sets.  A morphism is a
carrier map plus a code; the code tracks the map when it sends every
realizer of a point into the certified closure of the target's realizers.

Checks over infinite carriers are sampled and say so in their reports.
Whether a tracker's output lands is decided by ``CertSearch.decide``: an
untagged output or a base payload outside the target is Failed, and a
certificate search that finds nothing is only ever Unknown, never Failed.

``track_rows`` is the one apply-then-land loop.  The realizability checker
runs its implication and universal clauses through it too, with its own
landing rule: a realizer of an implication or of a universal tracks a map
from the antecedent's realizers, or from the carrier's points, into the
closure of the consequent's or the instance's realizers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import product as iproduct
from typing import Any, Callable

from . import coding, prog
from .bracket import lam
from .certs import (SCAN_THRESHOLD, TRACK_THRESHOLD, Accepted, Base,
                    CertSearch, CheckPolicy, check_cert)
from .jsets import Finite, JSet, Singleton, is_empty, sample, show_jset, parse_jset
from .kit import A_CODE, B_TERM, D_TERM, E_TERM, wedge_target
from .machine import DEFAULT_FUEL, Value, apply_cached
from .prog import p0, p1, tag0
from .terms import App, Num, Var, ap, encode_term

Point = object  # hashable labels: str, int, tuple


@dataclass(frozen=True, slots=True)
class FiniteAssembly:
    name: str
    points: tuple[Point, ...]
    realizers: tuple[JSet, ...]

    def __post_init__(self):
        if len(self.points) != len(set(self.points)):
            raise ValueError("duplicate points")
        if len(self.points) != len(self.realizers):
            raise ValueError("one realizer set per point")
        for p, r in zip(self.points, self.realizers):
            if is_empty(r) is True:
                raise ValueError(f"empty realizer set at point {p!r}")

    def realizer_set(self, p: Point) -> JSet:
        return self.realizers[self.points.index(p)]

    def sample_points(self, k: int) -> tuple[Point, ...]:
        return self.points

    @property
    def finite(self) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class NatAssembly:
    """The natural numbers object; realizer sets are exact singletons."""

    name: str = "N"

    def realizer_set(self, p: Point) -> JSet:
        return Singleton(p)

    def sample_points(self, k: int) -> tuple[Point, ...]:
        return tuple(range(k))

    @property
    def finite(self) -> bool:
        return False


@dataclass(frozen=True, slots=True)
class ProductAssembly:
    left: "Assembly"
    right: "Assembly"

    @property
    def name(self) -> str:
        return f"{self.left.name}*{self.right.name}"

    def realizer_set(self, p: Point) -> JSet:
        a, b = p
        try:
            return wedge_target(self.left.realizer_set(a),
                                self.right.realizer_set(b))
        except ValueError as exc:
            raise ValueError(f"product point {p}: {exc}") from None

    def sample_points(self, k: int) -> tuple[Point, ...]:
        side = max(2, int(k ** 0.5) + 1)
        grid = iproduct(self.left.sample_points(side), self.right.sample_points(side))
        return tuple(p for p, _ in zip(grid, range(k)))

    @property
    def finite(self) -> bool:
        return self.left.finite and self.right.finite


Assembly = FiniteAssembly | NatAssembly | ProductAssembly


@dataclass(frozen=True)
class Morphism:
    src: Assembly
    dst: Assembly
    map: Callable[[Point], Point]
    tracker: int


def morphism_from_table(src: Assembly, dst: Assembly,
                        table: dict, tracker: int) -> Morphism:
    return Morphism(src, dst, table.__getitem__, tracker)


# ---------------------------------------------------------------------------
# tracking


class TrackStatus(Enum):
    VERIFIED = "verified"
    FAILED = "failed"
    UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class TrackReport:
    status: TrackStatus
    witness: tuple | None  # (point, realizer) pinpointing a failure
    checked: int
    sampled: bool
    note: str


def realizer_elements(S: JSet, k: int) -> tuple[tuple[int, ...], bool]:
    """Concrete elements to check against, exact when the shape allows."""
    match S:
        case Finite(es):
            return tuple(sorted(es)), False
        case Singleton(v):
            return (v,), False
        case _:
            return tuple(sample(S, k)), True


def track_rows(tracker: int, rows,
               lands: Callable[[int, Any], tuple[bool | None, str]],
               fuel: int, samples: int, sampled: bool) -> TrackReport:
    """Every realizer of each row's source set, under the tracker, must land
    in the closure of the row's target set; rows are (point, source, target).

    ``lands(v, target)`` is the landing rule: True or False when decided,
    None when not, each with a reason.  The first False fails the check.
    The target is passed to it as the row holds it, so a rule may ask for
    more than the set.
    """
    checked = 0
    unknown: tuple | None = None
    note = ""
    for x, source, target in rows:
        elems, approx = realizer_elements(source, samples)
        sampled = sampled or approx
        for r in elems:
            checked += 1
            res = apply_cached(tracker, r, fuel)
            if isinstance(res, Value):
                inside, why = lands(res.value, target)
            else:
                inside, why = None, "tracker ran out of fuel"
            if inside is False:
                return TrackReport(TrackStatus.FAILED, (x, r), checked, sampled, why)
            if inside is None and unknown is None:
                unknown, note = (x, r), why
    if unknown is not None:
        return TrackReport(TrackStatus.UNKNOWN, unknown, checked, sampled, note)
    scope = "sampled carrier" if sampled else "full carrier"
    return TrackReport(TrackStatus.VERIFIED, None, checked, sampled, scope)


def check_tracking(mor: Morphism, policy: CheckPolicy | None = None,
                   samples: int = 16) -> TrackReport:
    policy = policy or CheckPolicy(depth=4, window=2, fuel=DEFAULT_FUEL)
    rows = ((x, mor.src.realizer_set(x), mor.dst.realizer_set(mor.map(x)))
            for x in mor.src.sample_points(samples))
    lands = CertSearch(policy, TRACK_THRESHOLD).decide
    return track_rows(mor.tracker, rows, lands, policy.fuel, samples,
                      not mor.src.finite)


def identity_morphism(A: Assembly) -> Morphism:
    return Morphism(A, A, lambda p: p, A_CODE)


def compose(f: Morphism, g: Morphism) -> Morphism:
    """The composite g after f, its tracker flattening a pushed tracker."""
    if f.dst is not g.src and f.dst != g.src:
        raise ValueError("codomain of the first must be the domain of the second")
    tracker = encode_term(lam(
        "v",
        App(D_TERM, App(App(B_TERM, Num(g.tracker)),
                        App(Num(f.tracker), Var("v")))),
    ))
    return Morphism(f.src, g.dst, lambda p: g.map(f.map(p)), tracker)


# ---------------------------------------------------------------------------
# products

_P0_TRACKER = encode_term(lam("r", tag0(p0(Var("r")))))
_P1_TRACKER = encode_term(lam("r", tag0(p1(Var("r")))))


def product(A: Assembly, B: Assembly) -> ProductAssembly:
    return ProductAssembly(A, B)


def proj_left(AB: ProductAssembly) -> Morphism:
    return Morphism(AB, AB.left, lambda p: p[0], _P0_TRACKER)


def proj_right(AB: ProductAssembly) -> Morphism:
    return Morphism(AB, AB.right, lambda p: p[1], _P1_TRACKER)


def pairing(f: Morphism, g: Morphism) -> Morphism:
    """The tracked map into the product induced by two maps out of one source."""
    if f.src is not g.src and f.src != g.src:
        raise ValueError("pairing needs a common source")
    tracker = encode_term(lam(
        "r",
        App(E_TERM, prog.seq2(App(Num(f.tracker), Var("r")),
                              App(Num(g.tracker), Var("r")))),
    ))
    AB = product(f.dst, g.dst)
    return Morphism(f.src, AB, lambda p: (f.map(p), g.map(p)), tracker)


# ---------------------------------------------------------------------------
# finite exponents by honest enumeration

_EV_TRACKER = encode_term(lam("r", ap(p0(Var("r")), p1(Var("r")))))


@dataclass(frozen=True, slots=True)
class ExponentResult:
    assembly: FiniteAssembly
    morphisms: tuple[Morphism, ...]
    ev: Morphism
    unknown_maps: tuple[tuple, ...]   # no tracker found below the bound
    excluded_maps: tuple[tuple[tuple, str], ...]  # provably untrackable, with reason


def _impossible_map(A: FiniteAssembly, B: FiniteAssembly,
                    src_elems: dict, images: tuple[int, ...]) -> str | None:
    """A shared realizer whose images have disjoint finite realizer sets
    defeats every tracker: certificates are value-directed, so one output
    value cannot certify into two disjoint sets."""
    owners: dict[int, list[int]] = {}
    for x, i in zip(A.points, images):
        for r in src_elems[x]:
            owners.setdefault(r, []).append(i)
    # a sample of an infinite set can look disjoint from another when the
    # sets meet, so only exact sets are compared
    exact = [None if approx else set(es)
             for es, approx in (realizer_elements(S, 8) for S in B.realizers)]
    for r, idxs in owners.items():
        for i in idxs:
            for j in idxs:
                if (i != j and exact[i] is not None and exact[j] is not None
                        and not exact[i] & exact[j]):
                    return (f"realizer {r} is shared by points with "
                            f"disjoint image realizer sets")
    return None


def exponent_finite(A: FiniteAssembly, B: FiniteAssembly, search_bound: int,
                    policy: CheckPolicy | None = None) -> ExponentResult:
    """All tracked maps A -> B, trackers found by raw code enumeration.

    Each candidate code below the bound is run once on every source realizer;
    maps are then vetted against the precomputed outputs.  A code that jams
    or emits an untagged value on any realizer tracks nothing and is dropped
    before the per-map pass.
    """
    if not (A.finite and B.finite):
        raise ValueError("exponents are built for finite carriers only")
    policy = policy or CheckPolicy(depth=3, window=2, fuel=600)
    src_elems = {x: realizer_elements(A.realizer_set(x), 8)[0] for x in A.points}
    all_rs = sorted({r for es in src_elems.values() for r in es})
    outputs: dict[int, dict[int, int]] = {}
    for e in range(search_bound):
        row: dict[int, int] = {}
        for r in all_rs:
            res = apply_cached(e, r, policy.fuel)
            if not isinstance(res, Value):
                break
            parts = coding.decode_seq(res.value)
            if len(parts) != 2 or parts[0] not in (0, 1):
                break
            row[r] = res.value
        else:
            outputs[e] = row
    @cache
    def lands(v: int, ti: int) -> bool:
        searcher = CertSearch(policy, SCAN_THRESHOLD)
        return searcher.decide(v, B.realizers[ti])[0] is True

    points: list[Point] = []
    realizers: list[JSet] = []
    morphisms: list[Morphism] = []
    unknown: list[tuple] = []
    excluded: list[tuple[tuple, str]] = []
    for images in iproduct(range(len(B.points)), repeat=len(A.points)):
        label = tuple(B.points[i] for i in images)
        reason = _impossible_map(A, B, src_elems, images)
        if reason is not None:
            excluded.append((label, reason))
            continue
        table = {p: B.points[i] for p, i in zip(A.points, images)}
        found = [
            e for e, row in outputs.items()
            if all(lands(row[r], i)
                   for x, i in zip(A.points, images)
                   for r in src_elems[x])
        ]
        if found:
            points.append(label)
            realizers.append(Finite(frozenset(found)))
            morphisms.append(morphism_from_table(A, B, table, found[0]))
        else:
            unknown.append(label)
    exp = FiniteAssembly(f"{B.name}^{A.name}", tuple(points), tuple(realizers))
    ev_src = product(exp, A)
    ev = Morphism(ev_src, B,
                  lambda p: p[0][A.points.index(p[1])],
                  _EV_TRACKER)
    return ExponentResult(exp, tuple(morphisms), ev, tuple(unknown), tuple(excluded))


# ---------------------------------------------------------------------------
# subobjects


@dataclass(frozen=True)
class Subobject:
    R: Callable[[Point], JSet]
    tracker: int = A_CODE


def subobject_check(sub: Subobject, base: Assembly,
                    policy: CheckPolicy | None = None,
                    samples: int = 16) -> tuple[TrackReport, tuple[Point, ...]]:
    """Tracking of the realizer refinement, plus the induced point set."""
    policy = policy or CheckPolicy(depth=4, window=2, fuel=DEFAULT_FUEL)
    rows = [(x, refined, base.realizer_set(x))
            for x in base.sample_points(samples)
            if is_empty(refined := sub.R(x)) is not True]
    lands = CertSearch(policy, TRACK_THRESHOLD).decide
    rep = track_rows(sub.tracker, rows, lands, policy.fuel, samples,
                     not base.finite)
    return rep, tuple(x for x, _, _ in rows)


# ---------------------------------------------------------------------------
# table-built trackers, for generating morphism corpora


def table_tracker(src: Assembly, dst: Assembly, table: dict) -> int | None:
    """A lookup-based tracker for a map of finite assemblies, if one exists.

    A realizer shared between source points forces one output realizer good
    for every image; when the intersection is empty the map is untrackable
    by any function of realizers alone and None is returned.
    """
    rows: list[tuple[int, int]] = []
    seen: dict[int, set] = {}
    for x in src.points:
        elems, approx = realizer_elements(src.realizer_set(x), 8)
        if approx:
            raise ValueError("table trackers need finite realizer shapes")
        for r in elems:
            seen.setdefault(r, set()).add(table[x])
    for r, targets in sorted(seen.items()):
        commons = None
        for t in targets:
            elems, _ = realizer_elements(dst.realizer_set(t), 8)
            commons = set(elems) if commons is None else commons & set(elems)
        if not commons:
            return None
        rows.append((r, min(commons)))
    return encode_term(lam(
        "r", tag0(prog.ite_table(Var("r"), rows, Num(0)))))


# ---------------------------------------------------------------------------
# the uniformity realizer


@dataclass(frozen=True, slots=True)
class UniformityEvidence:
    element: int           # the self-paired uniform realizer
    checked: int
    failures: tuple[str, ...]

    @property
    def verified(self) -> bool:
        return not self.failures


def omega_uniformity(policy: CheckPolicy | None = None,
                     sets: tuple[JSet, ...] | None = None,
                     samples: int = 12) -> UniformityEvidence:
    """One element, paired with itself, lands in the equality set of every
    sampled family member; the exact finite version lives with the doctrines."""
    from .jsets import Cofinite, UpFrom

    policy = policy or CheckPolicy(depth=3, window=2, fuel=DEFAULT_FUEL)
    if sets is None:
        sets = (Finite(frozenset({0})), Finite(frozenset({0, 1, 2})),
                Singleton(5), UpFrom(10), Cofinite(frozenset({1, 4})))
    failures: list[str] = []
    checked = 0
    for A in sets:
        for x in sample(A, samples):
            checked += 1
            res = apply_cached(A_CODE, x, policy.fuel)
            if not isinstance(res, Value) or res.value != coding.pair(0, x):
                failures.append(f"{show_jset(A)} at {x}: unit did not wrap")
                continue
            got = check_cert(res.value, A, Base(x), policy)
            if not isinstance(got, Accepted):
                failures.append(f"{show_jset(A)} at {x}: {got.reason}")
    return UniformityEvidence(coding.pair(A_CODE, A_CODE), checked, tuple(failures))


# ---------------------------------------------------------------------------
# text format: one `point <name> realizers <jset-spec>` line per point


class AsmSyntaxError(ValueError):
    pass


def show_assembly(A: FiniteAssembly) -> str:
    lines = []
    for p, r in zip(A.points, A.realizers):
        lines.append(f"point {p} realizers {show_jset(r)}")
    return "\n".join(lines) + "\n"


def parse_assembly(text: str, name: str = "asm") -> FiniteAssembly:
    points: list[Point] = []
    realizers: list[JSet] = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        fields = ln.split(None, 3)
        if len(fields) != 4 or fields[0] != "point" or fields[2] != "realizers":
            raise AsmSyntaxError(f"bad line {ln!r}")
        try:
            realizers.append(parse_jset(fields[3]))
        except ValueError as exc:
            raise AsmSyntaxError(f"bad realizer set in {ln!r}: {exc}") from None
        points.append(fields[1])
    try:
        return FiniteAssembly(name, tuple(points), tuple(realizers))
    except ValueError as exc:
        raise AsmSyntaxError(str(exc)) from None
