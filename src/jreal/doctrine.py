"""Finite application doctrines: a desk-sized laboratory for the closure laws.

A doctrine is a carrier {0..N-1} with partial application and pairing tables.
Subsets are bitmasks, and an operator on subsets is a plain tuple indexed by
subset mask, checked monotone at construction (``mono_op``).  Every law is
witnessed by a concrete element or reported absent.  A witness is the
element itself, an ``int``, or ``None`` when there is none; test it with
``is None``, since the element 0 is a witness.  The least closed operator
above a monotone map is computed per set by iterating the two generating
rules and cross-checked against the big intersection it is supposed to
equal.

A doctrine carries two tables fixed when it is built, both filled subset by
subset from ``A ^ lowbit(A)``: ``images[e][A]``, the image of the set A under
row e (-1 where e is undefined somewhere on A), and ``pair_images[a][B]``,
the defined pair codes ``pair(a, b)`` for b in B.  ``arrow(d, A, B)`` is the
rows whose image of A is defined and inside B; ``wedge(d, A, B)`` is the OR
of ``pair_images[a][B]`` over the members a of A.  Neither builds anything.
The arrow row of A, ``arrow(d, A, B)`` for every B, is built by doubling over
the carrier: a row defined on A lands in B unless its image of A meets the
complement of B.  The wedge row of B, ``wedge(d, A, B)`` for every A, doubles
the same way over the members a.  Every law mask is one fold, ``_uniform``,
over the law's distinct (source, target) pairs, collected with ``zip`` and
``map`` over whole rows: it meets the targets of each source set first, so
it makes one ``arrow`` call per distinct source, at most 2^N per law.

File format, read through ``text.Cursor`` ('#' lines are comments):
``file := 'doctrine' nat (('app' | 'pair') nat nat '=' nat)*``, as in
``doctrine 2  app 0 0 = 0  pair 0 1 = 1``; a cell given twice is refused.
A table that cannot be a doctrine (a cell out of range, a pairing that is
not injective, a carrier above MAX_SIZE), and a pairing without the cells
the closure's seed stage needs, raise ``text.InputError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from .text import Cursor, InputError, blank_comments, lexer

MAX_SIZE = 10


@dataclass(frozen=True, slots=True)
class Doctrine:
    size: int
    app: tuple[int, ...]   # row-major e*size+x, -1 for undefined
    pair: tuple[int, ...]  # row-major x*size+y, -1 for undefined
    # images[e][A]: the image of A under row e, -1 if e is undefined on A
    images: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    # pair_images[a][B]: the defined pair codes pair(a, b) for b in B
    pair_images: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        n = self.size
        images, pair_images = [], []
        for e in range(n):
            app_row = self.app[e * n:(e + 1) * n]
            pair_row = self.pair[e * n:(e + 1) * n]
            img = [0] * (1 << n)
            pim = [0] * (1 << n)
            for A in range(1, 1 << n):
                low = A & -A
                x = low.bit_length() - 1
                rest, v, p = img[A ^ low], app_row[x], pair_row[x]
                img[A] = -1 if rest < 0 or v < 0 else rest | 1 << v
                pim[A] = pim[A ^ low] if p < 0 else pim[A ^ low] | 1 << p
            images.append(tuple(img))
            pair_images.append(tuple(pim))
        object.__setattr__(self, "images", tuple(images))
        object.__setattr__(self, "pair_images", tuple(pair_images))

    @property
    def full(self) -> int:
        return (1 << self.size) - 1

    def app_at(self, e: int, x: int) -> int | None:
        v = self.app[e * self.size + x]
        return None if v < 0 else v

    def pair_at(self, x: int, y: int) -> int | None:
        v = self.pair[x * self.size + y]
        return None if v < 0 else v


def make_doctrine(size: int,
                  app_cells: dict[tuple[int, int], int],
                  pair_cells: dict[tuple[int, int], int]) -> Doctrine:
    if not (1 <= size <= MAX_SIZE):
        raise InputError(f"carrier size {size} out of range")
    app = [-1] * (size * size)
    pair = [-1] * (size * size)
    for (e, x), v in app_cells.items():
        if not (0 <= e < size and 0 <= x < size and 0 <= v < size):
            raise InputError(f"app cell ({e},{x})={v} out of range")
        app[e * size + x] = v
    seen: dict[int, tuple[int, int]] = {}
    for (x, y), v in pair_cells.items():
        if not (0 <= x < size and 0 <= y < size and 0 <= v < size):
            raise InputError(f"pair cell ({x},{y})={v} out of range")
        if v in seen and seen[v] != (x, y):
            raise InputError(f"pairing not injective: {v} hit twice")
        seen[v] = (x, y)
        pair[x * size + y] = v
    return Doctrine(size, tuple(app), tuple(pair))


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# monotone operators


MonoOp = tuple[int, ...]  # an operator's value at every subset mask


def mono_op(size: int, table: tuple[int, ...]) -> MonoOp:
    """The table as an operator, rejecting non-monotone ones via the covers
    of the lattice."""
    if len(table) != 1 << size:
        raise ValueError("table must cover every subset")
    for mask in range(1 << size):
        for x in range(size):
            if not mask >> x & 1:
                bigger = mask | 1 << x
                if table[mask] & ~table[bigger]:
                    raise ValueError(f"not monotone between {mask} and {bigger}")
    return tuple(table)


# ---------------------------------------------------------------------------
# arrow and wedge


def arrow(d: Doctrine, A: int, B: int) -> int:
    """The rows defined on all of A that send A into B."""
    mask = 0
    for e, image in enumerate(d.images):
        img = image[A]
        if img >= 0 and not img & ~B:
            mask |= 1 << e
    return mask


def _arrow_row(d: Doctrine, A: int) -> list[int]:
    """``arrow(d, A, B)`` for every B, by doubling over the carrier: a row
    defined on A lands in B unless its image of A meets the complement of B,
    so each x outside B takes away the rows whose image holds x."""
    defined = 0
    hits = [0] * d.size  # hits[x]: the defined rows whose image of A holds x
    for e, image in enumerate(d.images):
        img = image[A]
        if img >= 0:  # an image of -1: e is undefined on A
            defined |= 1 << e
            for x in bits(img):
                hits[x] |= 1 << e
    out = [defined]  # indexed by B's bits below x; the bits from x up are in B
    for hit in hits:
        out = [rows & ~hit for rows in out] + out
    return out


def wedge(d: Doctrine, A: int, B: int) -> int:
    """The defined pair codes pair(a, b) for a in A and b in B."""
    mask = 0
    for a in bits(A):
        mask |= d.pair_images[a][B]
    return mask


def _wedge_row(d: Doctrine, B: int) -> list[int]:
    """``wedge(d, A, B)`` for every A, by doubling over the carrier: a set
    holding a has the pairs of the set without a, and a's pairs into B."""
    out = [0]  # over A's bits below a
    for pim in d.pair_images:
        pairs = pim[B]
        out += [w | pairs for w in out] if pairs else out
    return out


# ---------------------------------------------------------------------------
# witnesses and laws


def preorder_witness(d: Doctrine, F: MonoOp, G: MonoOp) -> int | None:
    """An element sending every F-stage into the matching G-stage, if any."""
    return _least(_uniform(d, zip(F, G)))


@dataclass(frozen=True, slots=True)
class LawReport:
    e1: int | None
    e2: int | None
    e3: int | None
    e4: int | None
    e4_derived: int | None
    e4_derivation_note: str

    @property
    def operator_is_local(self) -> bool:
        return all(w is not None for w in (self.e1, self.e2, self.e3))


def _least(mask: int) -> int | None:
    if not mask:
        return None
    return (mask & -mask).bit_length() - 1


def _uniform(d: Doctrine, pairs) -> int:
    """The rows sending A into B for every (A, B) of ``pairs``: the targets
    of each source are met first, so there is one ``arrow`` call per
    distinct A, and none after the mask runs empty.  The folds over every
    pair of sets hand in a set of distinct pairs built over whole rows."""
    need: dict[int, int] = {}
    for A, B in pairs:
        need[A] = need.get(A, B) & B
    mask = d.full
    for A, B in need.items():
        mask &= arrow(d, A, B)
        if not mask:
            break
    return mask


def _e2_mask(d: Doctrine, J: MonoOp) -> int:
    """The rows sending every set into its closure."""
    return _uniform(d, enumerate(J))


def local_laws(d: Doctrine, J: MonoOp) -> LawReport:
    n = range(1 << d.size)
    rows = [_arrow_row(d, A) for A in n]  # rows[A][B] = arrow(d, A, B)
    wedges = [_wedge_row(d, B) for B in n]  # wedges[B][A] = wedge(d, A, B)
    # each law's distinct pairs, collected a whole row at a time
    e1_pairs, e4_pairs = set(), set()
    for A in n:  # (arrow(A, B), arrow(J A, J B)) for every B
        e1_pairs.update(zip(rows[A], map(rows[J[A]].__getitem__, J)))
    # (wedge(J A, J B), wedge(A, B)) for every A; J maps the distinct targets
    for B in n:
        e4_pairs.update(zip(map(wedges[J[B]].__getitem__, J), wedges[B]))
    w1 = _least(_uniform(d, e1_pairs))
    w3 = _least(_uniform(d, zip(map(J.__getitem__, J), J)))
    m4 = _uniform(d, ((src, J[tgt]) for src, tgt in e4_pairs))
    derived, note = derive_e4(d, w1, w3, m4)
    return LawReport(w1, _least(_e2_mask(d, J)), w3, _least(m4), derived, note)


def derive_e4(d: Doctrine, w1: int | None, w3: int | None,
              e4_mask: int) -> tuple[int | None, str]:
    """Build a pair-merging witness out of the push and flatten witnesses.

    The construction mirrors how the law follows from the other three: section
    rows for the pairing, pushed through the first witness, then a row that
    runs the composite and one flattening.  Every stage is a table search;
    the found element is verified against ``e4_mask``, the rows that satisfy
    the law, before it is reported.
    """
    if w1 is None or w3 is None:
        return None, "underivable: missing ingredient witnesses"
    size = d.size
    firsts = sorted({x for x in range(size) for y in range(size) if d.pair_at(x, y) is not None})
    seconds = sorted({y for x in range(size) for y in range(size) if d.pair_at(x, y) is not None})
    if not firsts:
        return None, "underivable: pairing table is empty"

    sections: dict[int, int] = {}
    for u in firsts:
        e = _row(d, {y: p for y in range(size)
                     if (p := d.pair_at(u, y)) is not None})
        if e is None:
            return None, f"underivable: no section row for first component {u}"
        sections[u] = e

    pushed: dict[int, int] = {}
    for u, p_u in sections.items():
        q = d.app_at(w1, p_u)
        if q is None:
            return None, f"underivable: push witness undefined on section {p_u}"
        pushed[u] = q

    stitched: dict[int, int] = {}
    for v in seconds:
        want = {}
        for u in firsts:
            r = d.app_at(pushed[u], v)
            if r is None:
                return None, f"underivable: pushed section {pushed[u]} undefined at {v}"
            want[u] = r
        e = _row(d, want)
        if e is None:
            return None, f"underivable: no row stitching component {v}"
        stitched[v] = e

    combined: dict[int, int] = {}
    for u in firsts:
        for v in seconds:
            w = d.pair_at(u, v)
            if w is None:
                continue
            s1 = d.app_at(w1, stitched[v])
            if s1 is None:
                return None, "underivable: push witness undefined on a stitched row"
            s2 = d.app_at(s1, u)
            if s2 is None:
                return None, "underivable: pushed stitch undefined on a first component"
            s3 = d.app_at(w3, s2)
            if s3 is None:
                return None, "underivable: flatten witness undefined on the composite"
            combined[w] = s3
    e = _row(d, combined)
    if e is None:
        return None, "underivable: no row realizes the composite"
    if e4_mask >> e & 1:
        return e, "derived and verified"
    return None, f"underivable: candidate {e} fails the law set"


def _row(d: Doctrine, want: dict[int, int]) -> int | None:
    """The first row agreeing with the partial table ``want``, if any."""
    return next((e for e in range(d.size)
                 if all(d.app_at(e, x) == v for x, v in want.items())), None)


# ---------------------------------------------------------------------------
# the least closed operator


def _require_bottom(d: Doctrine, A: int) -> int:
    """Seed stage {0} wedge A; every entry is required, not optional."""
    out = 0
    for a in bits(A):
        p = d.pair_at(0, a)
        if p is None:
            raise InputError(f"pair(0,{a}) undefined but required by the seed stage")
        out |= 1 << p
    return out


def lfp_local(d: Doctrine, F: MonoOp) -> MonoOp:
    """Per-set iteration of the two closure rules to stabilization."""
    lift = 2 & d.full  # the tag set {1}, empty on a one-point carrier
    table = []
    for A in range(1 << d.size):
        B = _require_bottom(d, A)
        while True:
            nxt = B | wedge(d, lift, F[B])  # {1} wedge F(stage), defined pairs only
            if nxt == B:
                break
            B = nxt
        table.append(B)
    return mono_op(d.size, tuple(table))


def lfp_by_intersection(d: Doctrine, F: MonoOp, A: int) -> int:
    """The same operator as the meet of all closed supersets; for cross-checks."""
    seed = _require_bottom(d, A)
    lift = 2 & d.full
    out = d.full
    for B in range(1 << d.size):
        if seed & ~B:
            continue
        if wedge(d, lift, F[B]) & ~B:
            continue
        out &= B
    return out


def lift_caveats(d: Doctrine) -> tuple[str, ...]:
    """Say so when the lift rule can never fire: with pair(1, b) undefined
    for every b, the closure of A is just the 0-tagged pairs of A."""
    if wedge(d, 2 & d.full, d.full):
        return ()
    return ("lift rule unreachable: pair(1, b) is undefined for every b",)


def pitts_f_finite(d: Doctrine) -> MonoOp:
    """A maps to the union over n of (up-set of n) arrow A."""
    table = [0] * (1 << d.size)
    for n in range(d.size):
        for A, rows in enumerate(_arrow_row(d, (d.full >> n) << n)):
            table[A] |= rows
    return mono_op(d.size, tuple(table))


# ---------------------------------------------------------------------------
# uniformity of the equality object


@dataclass(frozen=True, slots=True)
class UniformityReport:
    element: int | None      # the paired witness, when one exists
    paired_from: int | None  # the element whose self-pairing it is
    checked: int
    failures: tuple[int, ...]  # set masks where membership failed

    @property
    def verified(self) -> bool:
        return self.element is not None and not self.failures


def uniformity_finite(d: Doctrine, J: MonoOp) -> UniformityReport:
    """One element self-paired into the equality set of every subset."""
    for a in bits(_e2_mask(d, J)):
        x = d.pair_at(a, a)
        if x is None:
            continue
        failures = []
        for A in range(1 << d.size):
            side = arrow(d, A, J[A])
            if not (side >> a & 1 and wedge(d, side, side) >> x & 1):
                failures.append(A)
        return UniformityReport(x, a, 1 << d.size, tuple(failures))
    return UniformityReport(None, None, 1 << d.size, ())


# ---------------------------------------------------------------------------
# shipped doctrines and generators


def _seeded_cells(size: int) -> tuple[dict, dict]:
    app: dict[tuple[int, int], int] = {}
    pair: dict[tuple[int, int], int] = {}
    for x in range(size):
        pair[0, x] = x          # bottom-stage pairing is total and injective
        app[0, x] = x           # row 0: identity
        app[x, 0] = x           # column 0: self
    return app, pair


def shipped_doctrine(size: int) -> Doctrine:
    """Identity row and column, successor row, near-constant upper rows."""
    app, pair = _seeded_cells(size)
    for x in range(1, size):
        app[1, x] = (x + 1) % size
        for e in range(2, size):
            app[e, x] = (e - 2) % size
    return make_doctrine(size, app, pair)


def shipped_d4() -> Doctrine:
    return shipped_doctrine(4)


def shipped_d8() -> Doctrine:
    return shipped_doctrine(8)


def random_doctrine(rng: Random, size: int) -> Doctrine:
    """Seeded like the shipped doctrines, free cells filled at random."""
    app, pair = _seeded_cells(size)
    for e in range(1, size):
        for x in range(1, size):
            if rng.random() < 0.7:
                app[e, x] = rng.randrange(size)
    return make_doctrine(size, app, pair)


def candidate_ops(d: Doctrine) -> list[tuple[str, MonoOp]]:
    """The shipped enumeration of operator tables law searches range over."""
    n = 1 << d.size
    out: list[tuple[str, MonoOp]] = [
        ("identity", tuple(range(n))),
        ("top", (d.full,) * n),
        ("chi", tuple(0 if A == 0 else d.full for A in range(n))),
    ]
    for C in range(n):
        out.append((f"join_{C}", tuple(A | C for A in range(n))))
    for C in range(min(n, 16)):
        out.append((f"arrow_{C}", tuple(_arrow_row(d, C))))
    return out


# ---------------------------------------------------------------------------
# file format (see the module docstring)

_TOKENS = lexer("=")


def show_doctrine(d: Doctrine) -> str:
    n = d.size
    lines = [f"doctrine {n}"]
    for kind, table in (("app", d.app), ("pair", d.pair)):  # both row-major
        lines += (f"{kind} {i // n} {i % n} = {v}"
                  for i, v in enumerate(table) if v >= 0)
    return "\n".join(lines) + "\n"


def parse_doctrine(text: str) -> Doctrine:
    c = Cursor(_TOKENS, blank_comments(text))
    c.expect("doctrine")
    size = c.nat()
    cells: dict[str, dict[tuple[int, int], int]] = {"app": {}, "pair": {}}
    while c.peek():
        kind = c.take()
        if kind not in cells:
            c.fail(f"unknown table {kind!r}", c.i - 1)
        x, y = c.nat(), c.nat()
        if (x, y) in cells[kind]:
            c.fail(f"{kind} cell ({x},{y}) given twice", c.i - 3)
        c.expect("=")
        cells[kind][x, y] = c.nat()
    try:
        return make_doctrine(size, cells["app"], cells["pair"])
    except InputError as exc:
        c.fail(str(exc))
