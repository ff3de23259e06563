"""Assemblies over the closure engine: tracked maps and their constructions.

An assembly attaches a nonempty realizer set to every point of a carrier.
Carriers are finite label lists, the natural numbers with singleton
realizers, or binary products with wedge realizer sets.  A morphism is a
carrier map plus a code; the code tracks the map when it sends every
realizer of a point into the certified closure of the target's realizers.

Checks over infinite carriers are sampled and say so in their reports.
A report's caveats, printed as given, name what a verdict rests on: a
sampled realizer set (``SAMPLED_CAVEAT``) or a lift (``LIFT_CAVEAT``).  Its
scope note says whether the carrier was checked in full or sampled.
Whether a tracker's output lands is decided by ``CertSearch.decide``: an
untagged output or a base payload outside the target is Failed, and a
certificate search that finds nothing is only ever Unknown, never Failed.

``track_rows`` is the one apply-then-land loop.  The realizability checker
runs its implication and universal clauses through it too, with its own
landing rule: a realizer of an implication or of a universal tracks a map
from the antecedent's realizers, or from the carrier's points, into the
closure of the consequent's or the instance's realizers.

A finite assembly's file format, read through ``text.Cursor`` ('#' lines are
comments): ``file := ('point' label 'realizers' set)*``, ``label := name |
nat`` (kept as its text) and ``set`` as in ``jsets``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import product as iproduct
from typing import Any, Callable, Iterable

from . import coding, prog
from .bracket import lam
from .certs import (LIFT_CAVEAT, SCAN_THRESHOLD, TRACK_THRESHOLD, Accepted,
                    Base, CertSearch, CheckPolicy, check_cert, tagged)
from .jsets import (SET_TOKENS, Cofinite, Finite, JSet, Singleton, UpFrom, elements,
                    is_empty, read_jset, sample, show_jset)
from .kit import A_CODE, B_TERM, D_TERM, E_TERM, wedge_target
from .machine import DEFAULT_FUEL, Value, apply_cached
from .prog import p0, p1, tag0
from .terms import App, Num, Var, ap, encode_term
from .text import Cursor, InputError, blank_comments, is_name

Point = object  # hashable labels: str, int, tuple

# points sampled from an infinite carrier, and from each sampled realizer set
TRACK_SAMPLES = 16
# the caveat of every verdict that checked a sample of an infinite realizer set
SAMPLED_CAVEAT = "realizer sets sampled"


@dataclass(frozen=True, slots=True)
class FiniteAssembly:
    name: str
    points: tuple[Point, ...]
    realizers: tuple[JSet, ...]

    def __post_init__(self):
        if len(self.points) != len(set(self.points)):
            raise InputError("duplicate points")
        if len(self.points) != len(self.realizers):
            raise InputError("one realizer set per point")
        for p, r in zip(self.points, self.realizers):
            if is_empty(r) is True:
                raise InputError(f"empty realizer set at point {p!r}")

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
        except InputError as exc:
            raise InputError(f"product point {p}: {exc}") from None

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
    caveats: tuple[str, ...]
    note: str


def realizer_elements(S: JSet, k: int) -> tuple[tuple[int, ...], bool]:
    """Concrete elements to check against, exact when the shape allows."""
    exact = elements(S)
    if exact is not None:
        return exact, False
    return sample(S, k), True


def track_rows(tracker: int, rows,
               lands: Callable[[int, Any], tuple[bool | None, str]],
               fuel: int, samples: int, carrier_sampled: bool) -> TrackReport:
    """Every realizer of each row's source set, under the tracker, must land
    in the closure of the row's target set; rows are (point, source, target).

    ``lands(v, target)`` is the landing rule: True or False when decided,
    None when not, each with a reason.  The first False fails the check.
    The target is passed to it as the row holds it, so a rule may ask for
    more than the set.  A 1-tagged output that lands can only have landed
    by the lift rule, so it adds ``LIFT_CAVEAT``.
    """
    checked = 0
    unknown: tuple | None = None
    note = ""
    caveats: dict[str, None] = {}  # in first-seen order
    for x, source, target in rows:
        elems, approx = realizer_elements(source, samples)
        if approx:
            caveats[SAMPLED_CAVEAT] = None
        for r in elems:
            checked += 1
            res = apply_cached(tracker, r, fuel)
            if isinstance(res, Value):
                inside, why = lands(res.value, target)
                if inside is True and tagged(res.value)[0] == 1:
                    caveats[LIFT_CAVEAT] = None
            else:
                inside, why = None, "tracker ran out of fuel"
            if inside is False:
                return TrackReport(TrackStatus.FAILED, (x, r), checked,
                                   tuple(caveats), why)
            if inside is None and unknown is None:
                unknown, note = (x, r), why
    if unknown is not None:
        return TrackReport(TrackStatus.UNKNOWN, unknown, checked,
                           tuple(caveats), note)
    scope = "sampled carrier" if carrier_sampled else "full carrier"
    return TrackReport(TrackStatus.VERIFIED, None, checked, tuple(caveats),
                       scope)


def check_tracking(mor: Morphism, policy: CheckPolicy,
                   samples: int = TRACK_SAMPLES) -> TrackReport:
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
    caveats: tuple[str, ...]


def _exact_meet(sets: Iterable[JSet]) -> set[int] | None:
    """The elements common to the exact sets among ``sets``, None when no set
    is exact.  A realizer shared by points must go to one value in the
    closure of every image's realizer set, and the closure preserves finite
    meets, so an empty meet defeats every tracker.  Samples of infinite sets
    are left out: two can look disjoint when the sets meet."""
    common: set[int] | None = None
    for S in sets:
        elems = elements(S)
        if elems is not None:
            common = set(elems) if common is None else common.intersection(elems)
    return common


def _impossible_map(A: FiniteAssembly, B: FiniteAssembly,
                    src_elems: dict, images: tuple[int, ...]) -> str | None:
    """A shared realizer whose images' exact realizer sets have an empty
    meet: no tracker exists, since certificates are value-directed."""
    owners: dict[int, set[int]] = {}
    for x, i in zip(A.points, images):
        for r in src_elems[x]:
            owners.setdefault(r, set()).add(i)
    for r, idxs in owners.items():
        common = _exact_meet(B.realizers[i] for i in idxs)
        if common is not None and not common:
            return (f"realizer {r} is shared by points with "
                    f"disjoint image realizer sets")
    return None


def _per_map_pass(codes: list[int], rows: list[dict[int, int]],
                  elems: list[tuple[int, ...]],
                  lands: Callable[[int, int], bool]
                  ) -> Callable[[tuple[int, ...]], list[int]]:
    """For a map's image index per point, the codes, in order, whose output
    on every realizer ``elems[j]`` of every point j lands in ``images[j]``.

    ``rows[k]`` holds the outputs of ``codes[k]``, and bit k of a mask
    stands for it.  Each (point, image) pair keeps a mask of the codes
    decided there and one of those that land.  A map decides, point by
    point, only the codes still alive, then ANDs, so ``lands`` is asked what
    listing every code for every map would ask, and each question once.
    """
    masks: dict[tuple[int, int], list[int]] = {}  # (j, i) -> [decided, lands]
    everyone = (1 << len(codes)) - 1

    def found(images: tuple[int, ...]) -> list[int]:
        alive = everyone
        for j, i in enumerate(images):
            pair = masks.setdefault((j, i), [0, 0])
            todo = alive & ~pair[0]
            pair[0] |= todo
            while todo:
                low = todo & -todo
                todo ^= low
                row = rows[low.bit_length() - 1]
                if all(lands(row[r], i) for r in elems[j]):
                    pair[1] |= low
            alive &= pair[1]
        out = []
        while alive:
            low = alive & -alive
            alive ^= low
            out.append(codes[low.bit_length() - 1])
        return out

    return found


def exponent_finite(A: FiniteAssembly, B: FiniteAssembly, search_bound: int,
                    policy: CheckPolicy) -> ExponentResult:
    """All tracked maps A -> B, trackers found by raw code enumeration.

    Each candidate code below the bound is run once on every source realizer;
    maps are then vetted against the precomputed outputs by
    ``_per_map_pass``, which decides each code once per point and image and
    settles a map with a few ANDs of bitmasks over the codes.  A code that
    jams or emits an untagged value on any realizer tracks nothing and is
    dropped before the per-map pass.  The caveats say when some map was left
    open at the bound and when a source realizer set was checked on a sample.
    """
    if not (A.finite and B.finite):
        raise ValueError("exponents are built for finite carriers only")
    listed = {x: realizer_elements(A.realizer_set(x), 8) for x in A.points}
    src_elems = {x: elems for x, (elems, _) in listed.items()}
    all_rs = sorted({r for es in src_elems.values() for r in es})
    outputs: dict[int, dict[int, int]] = {}
    for e in range(search_bound):
        row: dict[int, int] = {}
        for r in all_rs:
            res = apply_cached(e, r, policy.fuel)
            if not isinstance(res, Value) or tagged(res.value) is None:
                break
            row[r] = res.value
        else:
            outputs[e] = row
    @cache
    def lands(v: int, ti: int) -> bool:
        searcher = CertSearch(policy, SCAN_THRESHOLD)
        return searcher.decide(v, B.realizers[ti])[0] is True

    trackers = _per_map_pass(list(outputs), list(outputs.values()),
                             [src_elems[x] for x in A.points], lands)
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
        found = trackers(images)
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
    caveats = (f"tracker search cut off at code {search_bound}",) if unknown else ()
    if any(approx for _, approx in listed.values()):
        caveats += (SAMPLED_CAVEAT,)
    return ExponentResult(exp, tuple(morphisms), ev, tuple(unknown), tuple(excluded),
                          caveats)


# ---------------------------------------------------------------------------
# subobjects


@dataclass(frozen=True)
class Subobject:
    R: Callable[[Point], JSet]
    tracker: int = A_CODE


def subobject_check(sub: Subobject, base: Assembly,
                    policy: CheckPolicy) -> tuple[TrackReport, tuple[Point, ...]]:
    """Tracking of the realizer refinement, plus the induced point set."""
    rows = [(x, refined, base.realizer_set(x))
            for x in base.sample_points(TRACK_SAMPLES)
            if is_empty(refined := sub.R(x)) is not True]
    lands = CertSearch(policy, TRACK_THRESHOLD).decide
    rep = track_rows(sub.tracker, rows, lands, policy.fuel, TRACK_SAMPLES,
                     not base.finite)
    return rep, tuple(x for x, _, _ in rows)


# ---------------------------------------------------------------------------
# table-built trackers, for generating morphism corpora


def table_tracker(src: Assembly, dst: Assembly, table: dict) -> int | None:
    """A lookup-based tracker for a map of finite assemblies, if one exists.

    A realizer shared between source points forces one output realizer good
    for every image; when the images' realizer sets have no common element
    the map is untrackable by any function of realizers alone and None is
    returned.
    """
    seen: dict[int, set] = {}
    for x in src.points:
        elems = elements(src.realizer_set(x))
        if elems is None or elements(dst.realizer_set(table[x])) is None:
            raise ValueError("table trackers need finite realizer shapes")
        for r in elems:
            seen.setdefault(r, set()).add(table[x])
    rows: list[tuple[int, int]] = []
    for r, targets in sorted(seen.items()):
        commons = _exact_meet(dst.realizer_set(t) for t in targets)
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


def omega_uniformity() -> UniformityEvidence:
    """One element, paired with itself, lands in the equality set of every
    sampled family member; the exact finite version lives with the doctrines."""
    policy = CheckPolicy(depth=3, window=2, fuel=DEFAULT_FUEL)
    failures: list[str] = []
    checked = 0
    for A in (Finite(frozenset({0})), Finite(frozenset({0, 1, 2})),
              Singleton(5), UpFrom(10), Cofinite(frozenset({1, 4}))):
        for x in sample(A, 12):
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
# text format (see the module docstring)


def show_assembly(A: FiniteAssembly) -> str:
    return "\n".join(f"point {p} realizers {show_jset(r)}"
                     for p, r in zip(A.points, A.realizers)) + "\n"


def parse_assembly(text: str, name: str = "asm") -> FiniteAssembly:
    c = Cursor(SET_TOKENS, blank_comments(text))
    points: list[Point] = []
    realizers: list[JSet] = []
    while c.peek():
        c.expect("point")
        label = c.peek()
        if not (is_name(label) or label[:1].isdigit()):
            c.wanted("a point label")
        points.append(c.take())
        c.expect("realizers")
        realizers.append(read_jset(c))
    try:
        return FiniteAssembly(name, tuple(points), tuple(realizers))
    except InputError as exc:
        c.fail(str(exc))
