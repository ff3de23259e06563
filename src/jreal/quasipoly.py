"""Quasi-polynomials: a decidable, composition-closed function family.

A quasi-polynomial picks one polynomial with nonnegative integer
coefficients per residue class of its modulus; the value at n comes from
the class of n.  The family is closed under pointwise sum, product, and
composition, and eventual comparison along any residue class is exact:
the difference of two member polynomials has a computable last sign
change.  That decidability is what lets the model construction downstream
run without any oracle.

Coefficient tuples are low-to-high and never carry trailing zeros; the
zero polynomial is the empty tuple.  A quasi-polynomial's polynomials and
a definable set's classes are residue tables, canonical at their least
period: the least divisor d of the modulus that shifting the table by d
gives back.  A set's ``lift`` lists its classes modulo a multiple of that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import count
from math import lcm

from .text import Cursor, lexer

# ---------------------------------------------------------------------------
# integer polynomials (private helpers; signed coefficients allowed)


def _trim(cs: tuple[int, ...]) -> tuple[int, ...]:
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return cs[:n]


def _peval(cs: tuple[int, ...], n: int) -> int:
    out = 0
    for c in reversed(cs):
        out = out * n + c
    return out


def _padd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    return _trim(tuple(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)))


def _psub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    width = max(len(a), len(b))
    out = tuple((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                for i in range(width))
    return _trim(out)


def _pmul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(tuple(out))


def _sign_tail(diff: tuple[int, ...]) -> int:
    """The sign the difference settles on for large arguments."""
    if not diff:
        return 0
    return 1 if diff[-1] > 0 else -1


def _last_violation(diff: tuple[int, ...], modulus: int, residue: int) -> int | None:
    """Largest class member where the sign differs from its tail, if any."""
    tail = _sign_tail(diff)
    if tail == 0:
        return None
    lead = abs(diff[-1])
    bound = 1 + max(abs(c) for c in diff) // lead + 1
    first = residue % modulus
    top = first + ((bound - first) // modulus + 1) * modulus
    for n in range(top, first - 1, -modulus):
        v = _peval(diff, n)
        s = 0 if v == 0 else (1 if v > 0 else -1)
        if s != tail:
            return n
    return None


# ---------------------------------------------------------------------------
# the family


@dataclass(frozen=True, slots=True)
class QuasiPoly:
    modulus: int
    residues: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.modulus < 1 or len(self.residues) != self.modulus:
            raise ValueError("one residue polynomial per class")
        if any(cs and cs[-1] == 0 for cs in self.residues):
            raise ValueError("coefficients must be trimmed")

    def value(self, n: int) -> int:
        return _peval(self.residues[n % self.modulus], n)

    def poly_at(self, n_class: int) -> tuple[int, ...]:
        return self.residues[n_class % self.modulus]

    @property
    def degree(self) -> int:
        return max((len(cs) - 1 for cs in self.residues if cs), default=0)

    @property
    def coeff_sum(self) -> int:
        return sum(sum(cs) for cs in self.residues)

    @property
    def weight(self) -> int:
        return self.modulus + self.degree + self.coeff_sum

    @property
    def bounded(self) -> bool:
        return all(len(cs) <= 1 for cs in self.residues)


@cache
def _divisors(m: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, m + 1) if m % d == 0)


def least_period(modulus: int, shifts_back) -> int:
    """The least divisor d of the modulus for which ``shifts_back(d)`` holds."""
    return next(d for d in _divisors(modulus) if shifts_back(d))


def canon(modulus: int, residues) -> QuasiPoly:
    rs = tuple(_trim(tuple(cs)) for cs in residues)
    if len(rs) != modulus:
        raise ValueError("one residue polynomial per class")
    d = least_period(modulus, lambda d: rs[d:] == rs[:-d])
    return QuasiPoly(d, rs[:d])


def const(c: int) -> QuasiPoly:
    return QuasiPoly(1, ((c,) if c else (),))


def ident() -> QuasiPoly:
    return QuasiPoly(1, ((0, 1),))


def _at_joint_modulus(op, f: QuasiPoly, g: QuasiPoly) -> QuasiPoly:
    m = lcm(f.modulus, g.modulus)
    return canon(m, (op(f.poly_at(r), g.poly_at(r)) for r in range(m)))


def qp_add(f: QuasiPoly, g: QuasiPoly) -> QuasiPoly:
    return _at_joint_modulus(_padd, f, g)


def qp_mul(f: QuasiPoly, g: QuasiPoly) -> QuasiPoly:
    return _at_joint_modulus(_pmul, f, g)


# ---------------------------------------------------------------------------
# eventual comparison along residue classes


def compare_on_class(f: QuasiPoly, g: QuasiPoly, modulus: int,
                     residue: int) -> tuple[str, int]:
    """The settled relation of f to g on one residue class, with the least
    threshold past which it holds at every class member."""
    if modulus % lcm(f.modulus, g.modulus) != 0:
        raise ValueError("class modulus must refine both operands")
    diff = _psub(f.poly_at(residue), g.poly_at(residue))
    tail = _sign_tail(diff)
    rel = {-1: "<", 0: "=", 1: ">"}[tail]
    last = _last_violation(diff, modulus, residue)
    return rel, 0 if last is None else last + 1


# ---------------------------------------------------------------------------
# definable sets of naturals


@dataclass(frozen=True, slots=True)
class DefinableSet:
    modulus: int
    residues: frozenset[int]
    threshold: int

    def __post_init__(self):
        if self.modulus < 1 or self.threshold < 0:
            raise ValueError("bad shape")
        if any(r < 0 or r >= self.modulus for r in self.residues):
            raise ValueError("residues out of range")

    def member(self, n: int) -> bool:
        return n >= self.threshold and n % self.modulus in self.residues

    @property
    def infinite(self) -> bool:
        return bool(self.residues)

    def least_above(self, x: int) -> int:
        if not self.residues:
            raise ValueError("empty set has no elements")
        start = max(self.threshold, x + 1)
        return start + min((r - start) % self.modulus for r in self.residues)

    def lift(self, modulus: int) -> list[int]:
        """The set's classes modulo a multiple of its modulus, ascending."""
        rs = sorted(self.residues)
        return [k + r for k in range(0, modulus, self.modulus) for r in rs]

    def subset_of(self, other: "DefinableSet") -> bool:
        m = lcm(self.modulus, other.modulus)
        # every class in one of the other's, and no member below its threshold
        return (all(r % other.modulus in other.residues for r in self.lift(m))
                and all(n >= other.threshold for n in self.elements(1)))

    def elements(self, k: int) -> tuple[int, ...]:
        out = []
        n = self.threshold - 1
        while len(out) < k and self.residues:
            n = self.least_above(n)
            out.append(n)
        return tuple(out)


def canon_set(m: int, rs: frozenset[int], threshold: int) -> DefinableSet:
    """The classes rs modulo m above the threshold, at their least period."""
    d = least_period(m, lambda d: rs == {(r + d) % m for r in rs})
    return DefinableSet(d, frozenset(r % d for r in rs), threshold)


FULL_SET = DefinableSet(1, frozenset({0}), 0)


# ---------------------------------------------------------------------------
# the graded enumeration

# weight = modulus + degree + coefficient sum; within one weight, keys
# (modulus, degree, coefficient sum, residue tuple) sort lexicographically


def _polys_of(deg_cap: int, total: int):
    """All trimmed coefficient tuples with degree <= cap and given sum."""
    if total == 0:
        yield ()
        return
    for deg in range(deg_cap + 1):
        for cs in _splits(deg + 1, total):
            if cs[-1] != 0:
                yield cs


def _splits(parts: int, total: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _splits(parts - 1, total - head):
            yield (head,) + rest


# enumerate_qp and index_of walk every block below the one they need
@cache
def of_weight(w: int) -> tuple[QuasiPoly, ...]:
    out = []
    for m in range(1, w + 1):
        for d in range(w - m + 1):
            s = w - m - d
            for split in _splits(m, s):
                for rows in _rows_for(split, d):
                    if max((len(cs) - 1 for cs in rows if cs), default=0) != d:
                        continue
                    if canon(m, rows).modulus == m:
                        out.append(QuasiPoly(m, rows))
    out.sort(key=lambda q: (q.modulus, q.degree, q.coeff_sum, q.residues))
    return tuple(out)


def _rows_for(split: tuple[int, ...], deg_cap: int):
    if not split:
        yield ()
        return
    for head in _polys_of(deg_cap, split[0]):
        for rest in _rows_for(split[1:], deg_cap):
            yield (head,) + rest


def enumerate_qp(i: int) -> QuasiPoly:
    seen = 0
    for w in count(1):
        block = of_weight(w)
        if seen + len(block) > i:
            return block[i - seen]
        seen += len(block)


def index_of(qp: QuasiPoly) -> int:
    target = canon(qp.modulus, qp.residues)
    seen = 0
    for w in count(1):
        block = of_weight(w)
        if w == target.weight:
            return seen + block.index(target)
        seen += len(block)


# ---------------------------------------------------------------------------
# text format:  mod 2: 0 -> 1 + 2 n; 1 -> n^2

# the highest power of n parse_qp reads
MAX_POWER = 64


def show_qp(qp: QuasiPoly) -> str:
    rows = []
    for r, cs in enumerate(qp.residues):
        rows.append(f"{r} -> {_show_poly(cs)}")
    return f"mod {qp.modulus}: " + "; ".join(rows)


def _show_poly(cs: tuple[int, ...]) -> str:
    if not cs:
        return "0"
    bits = []
    for i, c in enumerate(cs):
        if c == 0:
            continue
        if i == 0:
            bits.append(str(c))
        else:
            var = "n" if i == 1 else f"n^{i}"
            bits.append(var if c == 1 else f"{c} {var}")
    return " + ".join(bits) if bits else "0"


QP_TOKENS = lexer(":", ";", "->", "+", "^")


def parse_qp(text: str) -> QuasiPoly:
    """The quasi-polynomial a text names.  A modulus above the number of
    rows the text gives, and a power of n above MAX_POWER, are refused
    before anything of their size is built."""
    c = Cursor(QP_TOKENS, text)
    c.expect("mod")
    m = c.nat()
    if m < 1:
        c.fail(f"modulus {m} below 1", c.i - 1)
    c.expect(":")
    rows: dict[int, tuple[int, ...]] = {}
    while c.peek():
        if c.peek() == ";":  # an empty row
            c.take()
            continue
        r = c.nat()
        if r >= m:
            c.fail(f"residue {r} outside modulus {m}", c.i - 1)
        c.expect("->")
        rows[r] = _poly(c)
        if c.peek():
            c.expect(";")
    if len(rows) < m:
        first = next(r for r in range(m) if r not in rows)
        c.fail(f"no polynomial for {m - len(rows)} of {m} residues, "
               f"the first {first}")
    return canon(m, [rows[r] for r in range(m)])


def _poly(c: Cursor) -> tuple[int, ...]:
    """Terms k, n, k n and k n^p, joined by '+'."""
    coeffs: dict[int, int] = {}
    while True:
        k = 1 if c.peek() == "n" else c.nat()
        p = 0
        if c.peek() == "n":
            c.take()
            p = 1
            if c.peek() == "^":
                c.take()
                p = c.nat()
                if p > MAX_POWER:
                    c.fail(f"power {p} above {MAX_POWER}", c.i - 1)
        coeffs[p] = coeffs.get(p, 0) + k
        if c.peek() != "+":
            return _trim(tuple(coeffs.get(i, 0) for i in range(max(coeffs) + 1)))
        c.take()
