"""A countable nonstandard extension of the naturals with decidable order.

The carrier is built from quasi-polynomial representatives.  A diagonal
construction walks the graded enumeration and maintains a descending chain
of definable sets: at each step the newcomer is compared against every
distinct function seen so far, the live set splits into the cells of one
displayed union (below the least, equal to it, strictly between neighbours,
and so on, above the greatest), and the first infinite cell survives.  A
strictly increasing selector picks one fresh witness from each live set;
two representatives name the same element exactly when they agree along the
selector's tail, and the chain keeps the enumerated functions as an
ascending list of such equality classes.

The process keeps one chain in one append-only record, extended in place:
per step k the live set and the selector value, per enumerated function its
class (numbered in the order classes open), the classes in ascending order
with each one's first function, and the lcm of those functions' moduli.  A
``ChainState`` holds only k, so it is a prefix of the one chain by
construction.  Only a step at the record's end compares the newcomer, and
with the class heads alone; ``extend_chain`` enumerates the newcomer behind
the end too, so its callers see the same calls as on a fresh record.

Elements are quasi-polynomials: wherever an element is taken or returned,
a plain ``QuasiPoly`` stands for its class, and ``const(n)`` is the embedded
natural n.

The payoff is a structure where order and equality between elements are
decided by finite polynomial comparisons, embedded copies of the naturals
sit below every unbounded element, and "is this element a natural number"
is itself decidable, so the standardness split carries an honest realizer
over the induced assembly.

Formulas are read here by ``formulas.compile_formula`` in
``limit_structure(model)``, the second structure beside ``NATURALS``:
quasi-polynomial arithmetic, ordered along the selector tail, and no
quantifiers, which raise only when evaluation reaches one.
``transfer_check`` compiles a formula once in each structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from . import coding
from .assemblies import (
    FiniteAssembly,
    Morphism,
    NatAssembly,
    Subobject,
    TrackReport,
    check_tracking,
    subobject_check,
)
from .bracket import lam
from .certs import CheckPolicy
from .formulas import (
    NATURALS,
    All,
    Eq,
    Ex,
    Formula,
    Imp,
    Less,
    Lit,
    NVar,
    Or,
    Rel,
    Structure,
    Succ,
    compile_formula,
    compile_term,
    free_vars,
    nodes,
)
from .jsets import Finite
from .prog import ADD, EQ01, LT01, MOD, MUL, SUFFIX, fixlam, ite, p0, p1, seq2, tag0
from .quasipoly import (
    FULL_SET,
    QP_TOKENS,
    DefinableSet,
    QuasiPoly,
    canon_set,
    compare_on_class,
    const,
    enumerate_qp,
    ident,
    parse_qp,
    qp_add,
    qp_mul,
    show_qp,
)
from .realizes import Env, Verdict3, jrealizes
from .terms import CONS, K, LEN, PROJ, SUCC, App, Num, Var, ap, encode_term
from .text import Cursor, InputError

# ---------------------------------------------------------------------------
# the refinement chain


@dataclass(frozen=True, slots=True)
class ChainState:
    """Functions 0..k incorporated: the record's first k + 1 steps."""

    k: int

    @property
    def live(self) -> DefinableSet:
        return _chain.live[self.k]

    @property
    def psi(self) -> tuple[int, ...]:
        if self.k >= len(_chain.psi):
            raise IndexError(f"the chain has no step {self.k} yet")
        return tuple(_chain.psi[:self.k + 1])


def initial_chain() -> ChainState:
    return ChainState(0)


def _live_classes(live: DefinableSet,
                  *qps: QuasiPoly) -> tuple[int, list[int]]:
    """The joint modulus of the live set and qps, and the set's lift to it."""
    modulus = lcm(live.modulus, *(qp.modulus for qp in qps))
    return modulus, live.lift(modulus)


def _position(new: QuasiPoly, betas: list[QuasiPoly], modulus: int,
              residue: int, t0: int) -> tuple[int, int]:
    """Cell index of the newcomer on one residue class, by binary search
    against the ascending restrictions; even cells are gaps, odd are ties."""
    lo, hi = 0, len(betas)
    thr = t0
    while lo < hi:
        mid = (lo + hi) // 2
        rel, t = compare_on_class(new, betas[mid], modulus, residue)
        thr = max(thr, t)
        if rel == "=":
            return 2 * mid + 1, thr
        if rel == "<":
            hi = mid
        else:
            lo = mid + 1
    return 2 * lo, thr


class _Record:
    """The chain of the process (see the module docstring)."""

    def __init__(self):
        self.live, self.psi = [FULL_SET], [0]   # per step
        self.cls = [0]                          # per enumerated function
        self.order, self.heads = [0], [const(0)]  # per class, ascending
        self.modulus = 1                        # lcm of the heads' moduli

    def append(self, new: QuasiPoly) -> None:
        """The step from the last state: the live set splits into the cells
        of the newcomer against the heads, and the first infinite one stays."""
        live = self.live[-1]
        modulus = lcm(live.modulus, new.modulus, self.modulus)
        cells: dict[int, tuple[list[int], int]] = {}
        for r in live.lift(modulus):
            cell, thr = _position(new, self.heads, modulus, r, live.threshold)
            res, t = cells.get(cell, ([], live.threshold))
            res.append(r)
            cells[cell] = (res, max(t, thr))
        chosen = min(cells)
        res, thr = cells[chosen]
        live = canon_set(modulus, frozenset(res), thr)
        self.live.append(live)
        self.psi.append(live.least_above(self.psi[-1]))
        # an odd cell ties the newcomer with the class at position j, an
        # even one opens a new class there
        j = chosen // 2
        if chosen % 2:
            self.cls.append(self.order[j])
        else:
            self.cls.append(len(self.order))
            self.order.insert(j, self.cls[-1])
            self.heads.insert(j, new)
            self.modulus = lcm(self.modulus, new.modulus)


_chain = _Record()


def extend_chain(state: ChainState) -> ChainState:
    new = enumerate_qp(state.k + 1)
    if state.k + 1 == len(_chain.psi):
        _chain.append(new)
    return ChainState(state.k + 1)


def sign(state: ChainState, i: int, j: int) -> str:
    """Settled order of enumerated functions i and j along the selector."""
    if not (0 <= i <= state.k and 0 <= j <= state.k):
        raise ValueError(f"extend the chain to {max(i, j)} first")
    pi, pj = (_chain.order.index(_chain.cls[n]) for n in (i, j))
    return "=" if pi == pj else ("<" if pi < pj else ">")


def show_chain(state: ChainState) -> str:
    live = state.live
    res = ",".join(str(r) for r in sorted(live.residues))
    tail = ",".join(str(p) for p in state.psi[-6:])
    return (f"chain k={state.k} live=(mod {live.modulus}: {{{res}}} "
            f"from {live.threshold}) classes={max(_chain.cls[:state.k + 1]) + 1} "
            f"psi tail=[...{tail}]")


# ---------------------------------------------------------------------------
# elements and the model interface


def show_elem(e: QuasiPoly) -> str:
    return f"[{show_qp(e)}]"


class Model:
    """Mutable chain holder; every query extends the chain as needed and
    answers exactly."""

    def __init__(self):
        self.state = initial_chain()

    def ensure(self, k: int) -> ChainState:
        while self.state.k < k:
            self.state = extend_chain(self.state)
        return self.state

    # -- comparison of arbitrary representatives --------------------------

    def _settle(self, f: QuasiPoly, g: QuasiPoly) -> list[tuple[str, int]]:
        """Refines the chain until every live residue class reports the same
        eventual relation of f to g; confinement to a single class modulo
        any fixed modulus happens after finitely many steps, so this
        terminates.  Returns each class's relation and threshold."""
        while True:
            modulus, residues = _live_classes(self.state.live, f, g)
            cmps = [compare_on_class(f, g, modulus, r) for r in residues]
            if len({rel for rel, _ in cmps}) == 1:
                return cmps
            self.state = extend_chain(self.state)

    def sign_qp(self, f: QuasiPoly, g: QuasiPoly) -> str:
        """Settled order of two representatives along the selector tail."""
        return self._settle(f, g)[0][0]

    def settle_threshold(self, f: QuasiPoly, g: QuasiPoly) -> int:
        """Past this value the settled relation holds at every live point."""
        return max(t for _, t in self._settle(f, g))


# ---------------------------------------------------------------------------
# standardness


def standard_value(model: Model, e: QuasiPoly) -> int | None:
    """The natural this element embeds, or None when it sits above all.

    Restricted to the live set the representative either ends up constant
    (one residue class survives with one constant polynomial) or stays
    nonconstant on every class forever; both outcomes are detected
    syntactically, so the loop always exits."""
    while True:
        _, residues = _live_classes(model.state.live, e)
        polys = {e.poly_at(r) for r in residues}
        if all(len(p) > 1 for p in polys):
            return None
        if all(len(p) <= 1 for p in polys):
            vals = {p[0] if p else 0 for p in polys}
            if len(vals) == 1:
                return vals.pop()
        model.ensure(model.state.k + 1)


def is_standard(model: Model, e: QuasiPoly) -> bool:
    return standard_value(model, e) is not None


# ---------------------------------------------------------------------------
# quantifier-free truth in the model


def limit_structure(model: Model) -> Structure:
    """The model as a structure on representatives: sums and products of
    quasi-polynomials, compared along the selector tail; no quantifiers."""
    return Structure(const, qp_add, qp_mul,
                     lambda f, g: model.sign_qp(f, g) == "=",
                     lambda f, g: model.sign_qp(f, g) == "<", None)


def truth_qf(model: Model, phi: Formula, asn: dict[str, QuasiPoly]) -> bool:
    """Exact truth of a quantifier-free formula at model elements."""
    return compile_formula(phi, limit_structure(model), None)(asn)


# ---------------------------------------------------------------------------
# truth transfer


@dataclass(frozen=True, slots=True)
class TransferReport:
    mode: str                      # "exact" or "sampled"
    limit_truth: bool | None
    standard_truth: bool | None
    window: tuple[int, int]        # selector index range, half open
    disagreements: tuple[str, ...]
    caveats: tuple[str, ...]

    @property
    def consistent(self) -> bool:
        return not self.disagreements


def transfer_check(model: Model, phi: Formula, asn: dict[str, QuasiPoly],
                   window: int) -> TransferReport:
    """Compare limit truth, truth at selector points, and truth at the
    embedded naturals.  Exact for quantifier-free input; quantified input
    gets a sampled consistency report only.  The standard verdict at a
    selector point depends only on the assignment's values there."""
    missing = free_vars(phi) - set(asn)
    if missing:
        raise InputError(f"unassigned free variables: {sorted(missing)}")
    if not any(isinstance(n, Rel | All | Ex) for n, _ in nodes(phi)):
        return _transfer_qf(model, phi, asn, window)
    return _transfer_sampled(model, phi, asn, window)


def _transfer_qf(model: Model, phi: Formula, asn, window: int) -> TransferReport:
    lt = truth_qf(model, phi, asn)
    # settling every atom, left to right, extends the chain in a fixed order
    limit = limit_structure(model)
    t_max = max((model.settle_threshold(compile_term(n.left, limit)(asn),
                                        compile_term(n.right, limit)(asn))
                 for n, _ in nodes(phi) if isinstance(n, Eq | Less)), default=0)
    while _chain.psi[model.state.k] < t_max:
        model.ensure(model.state.k + 1)
    holds = compile_formula(phi, NATURALS, None)
    n0, psi, verdicts = _at_selector(model, holds, asn, window)
    disagreements = [f"selector point psi({n})={psi[n]} disagrees"
                     for n, got in enumerate(verdicts, n0) if got != lt]
    st = None
    values = {v: standard_value(model, e) for v, e in asn.items()}
    if all(val is not None for val in values.values()):
        st = holds(values)
        if st != lt:
            disagreements.append("embedded-argument truth differs")
    return TransferReport("exact", lt, st,
                          (n0, n0 + window), tuple(disagreements), ())


def _at_selector(model: Model, holds, asn, window: int):
    """The window's first selector index, the selector, and the standard
    verdict at each selector point of the window.  The verdict depends only
    on the assignment's values there, so it is computed once for each
    distinct tuple of values: once in all for a closed sentence or for
    standard constants."""
    n0 = model.state.k
    psi = model.ensure(n0 + window).psi
    names, elems = tuple(asn), tuple(asn.values())
    verdict: dict[tuple[int, ...], bool] = {}
    out = []
    for n in range(n0, n0 + window):
        values = tuple(e.value(psi[n]) for e in elems)
        if values not in verdict:
            verdict[values] = holds(dict(zip(names, values)))
        out.append(verdict[values])
    return n0, psi, out


_QUANT_SAMPLE = 48


def _transfer_sampled(model: Model, phi: Formula, asn, window: int) -> TransferReport:
    holds = compile_formula(phi, NATURALS, tuple(range(_QUANT_SAMPLE)))
    n0, _, verdicts = _at_selector(model, holds, asn, window)
    disagreements = ()
    if len(set(verdicts)) > 1:
        flips = [n0 + i for i in range(1, window) if verdicts[i] != verdicts[i - 1]]
        disagreements = (f"sampled verdict flips at selector indices {flips}",)
    return TransferReport(
        "sampled", None, None, (n0, n0 + window),
        disagreements,
        (f"quantifiers sampled over a {_QUANT_SAMPLE}-point range",
         "quantified input: consistency report only"))


# ---------------------------------------------------------------------------
# realizer data for elements: <description, selector prefix>

# description = <modulus, <coefficient rows>>, the residue's row read at n
# gives the value at n; the prefix pins the selector values the description
# is read along


def qp_data(qp: QuasiPoly) -> int:
    return _join_data(qp.modulus, qp.residues)


def elem_code(qp: QuasiPoly, psi_code: int) -> int:
    return coding.pair(qp_data(qp), psi_code)


def decode_elem_code(code: int) -> tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(modulus, raw coefficient rows, selector prefix) of a realizer."""
    data, psi_code = coding.unpair(code)
    m, rows = _split_data(data)
    return m, tuple(rows), coding.decode_seq(psi_code)


# python mirrors of the object-level tracker arithmetic; kept untrimmed and
# unreduced so mirror output equals machine output verbatim

def _mirror_binop(row_op, d1: int, d2: int) -> int:
    """Host twin of ``_binop_data_term``: rows combined at the joint modulus."""
    m1, rows1 = _split_data(d1)
    m2, rows2 = _split_data(d2)
    m = lcm(m1, m2)
    return _join_data(m, [row_op(rows1[r % m1], rows2[r % m2]) for r in range(m)])


def mirror_add(d1: int, d2: int) -> int:
    return _mirror_binop(_mirror_padd, d1, d2)


def mirror_mul(d1: int, d2: int) -> int:
    return _mirror_binop(_mirror_pmul, d1, d2)


def mirror_succ(d: int) -> int:
    m, rows = _split_data(d)
    return _join_data(m, [(r[0] + 1,) + r[1:] if r else (1,) for r in rows])


def mirror_iota(n: int) -> int:
    return _join_data(1, [(n,)])


def _split_data(d: int) -> tuple[int, list[tuple[int, ...]]]:
    m, rows_code = coding.unpair(d)
    return m, [coding.decode_seq(rc) for rc in coding.decode_seq(rows_code)]


def _join_data(m: int, rows) -> int:
    return coding.pair(m, coding.encode_seq(
        [coding.encode_seq(r) for r in rows]))


def _mirror_padd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a:
        return b
    if not b:
        return a
    return (a[0] + b[0],) + _mirror_padd(a[1:], b[1:])


def _mirror_pmul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a:
        return ()
    shifted = _mirror_pmul(a[1:], b)
    return _mirror_padd(tuple(a[0] * c for c in b),
                        ((0,) + shifted) if shifted else ())


# ---------------------------------------------------------------------------
# object-level tracker programs


# lcm by stepping: least multiple of the start that the second divides
_LCM_T = fixlam(
    "lc", "t", "step", "m",
    ite(ap(EQ01, ap(MOD, Var("t"), Var("m")), Num(0)), Var("t"),
        ap(Var("lc"), ap(ADD, Var("t"), Var("step")), Var("step"), Var("m"))))

_PADD_T = fixlam(
    "pa", "a", "b",
    ite(Var("a"), Var("b"),
        ite(Var("b"), Var("a"),
            ap(CONS, ap(ADD, ap(PROJ, Var("a"), Num(0)), ap(PROJ, Var("b"), Num(0))),
               ap(Var("pa"), ap(SUFFIX, Var("a"), Num(1)), ap(SUFFIX, Var("b"), Num(1)))))))

_SCALE_T = fixlam(
    "sc", "c", "s",
    ite(Var("s"), Num(0),
        ap(CONS, ap(MUL, Var("c"), ap(PROJ, Var("s"), Num(0))),
           ap(Var("sc"), Var("c"), ap(SUFFIX, Var("s"), Num(1))))))

_SHIFT_T = lam("s", ite(Var("s"), Num(0), ap(CONS, Num(0), Var("s"))))

_PMUL_T = fixlam(
    "pm", "a", "b",
    ite(Var("a"), Num(0),
        ap(_PADD_T, ap(_SCALE_T, ap(PROJ, Var("a"), Num(0)), Var("b")),
           App(_SHIFT_T, ap(Var("pm"), ap(SUFFIX, Var("a"), Num(1)), Var("b"))))))


def _rows_loop(body_row, bound):
    """Builds <row(0), ..., row(bound-1)> left to right."""
    return ap(fixlam(
        "go", "r",
        ite(ap(EQ01, Var("r"), bound), Num(0),
            ap(CONS, body_row(Var("r")), ap(Var("go"), App(SUCC, Var("r")))))),
        Num(0))


def _binop_data_term(row_op) -> object:
    """Shared skeleton: lift both descriptions to the joint modulus and
    combine coefficient rows pointwise."""
    d1, d2 = Var("d1"), Var("d2")
    m1, m2 = p0(d1), p0(d2)
    rows1, rows2 = p1(d1), p1(d2)
    def row(r):
        return ap(row_op,
                  ap(PROJ, rows1, ap(MOD, r, m1)),
                  ap(PROJ, rows2, ap(MOD, r, m2)))
    body = ap(lam("L", seq2(Var("L"), _rows_loop(row, Var("L")))),
              ap(_LCM_T, m1, m1, m2))
    return lam("d1", "d2", body)


ADD_DATA_T = _binop_data_term(_PADD_T)
MUL_DATA_T = _binop_data_term(_PMUL_T)

SUCC_DATA_T = lam(
    "d",
    seq2(p0(Var("d")),
         ap(fixlam(
             "go", "rows",
             ite(Var("rows"), Num(0),
                 ap(CONS,
                    ap(lam("row",
                           ite(Var("row"), ap(CONS, Num(1), Num(0)),
                               ap(CONS, App(SUCC, ap(PROJ, Var("row"), Num(0))),
                                  ap(SUFFIX, Var("row"), Num(1))))),
                       ap(PROJ, Var("rows"), Num(0))),
                    ap(Var("go"), ap(SUFFIX, Var("rows"), Num(1)))))),
            p1(Var("d")))))


def _tracker_code(data_term_on_qp) -> int:
    """Unary tracker: rebuild <description', prefix> from <description, prefix>."""
    return encode_term(lam(
        "r", tag0(seq2(App(data_term_on_qp, p0(Var("r"))), p1(Var("r"))))))


def succ_tracker_code() -> int:
    return _tracker_code(SUCC_DATA_T)


def binop_tracker_code(data_term) -> int:
    """Tracker on a paired realizer <r1, r2>; the prefix rides along from
    the left component."""
    w = Var("w")
    return encode_term(lam(
        "w", tag0(seq2(
            ap(data_term, p0(p0(w)), p0(p1(w))),
            p1(p0(w))))))


def iota_tracker_code(psi_code: int) -> int:
    return encode_term(lam(
        "n", tag0(seq2(
            seq2(Num(1), ap(CONS, ap(CONS, Var("n"), Num(0)), Num(0))),
            Num(psi_code)))))


# the standardness branch: a description is embedded iff its modulus is 1
# and its single coefficient row is at most a constant

def standard_split_code(k0_code: int) -> int:
    """Code whose value at any element realizer is closure evidence for
    "embedded, witnessed by the realizer itself" or "not embedded, with the
    refutation map vacuous"."""
    k = Var("k")
    desc = p0(k)
    row0 = ap(PROJ, p1(desc), Num(0))
    left = seq2(Num(0), k)
    right = seq2(Num(1), seq2(seq2(Num(0), k), Num(k0_code)))
    body = ite(ap(EQ01, p0(desc), Num(1)),
               ite(ap(LT01, App(LEN, row0), Num(2)), left, right),
               right)
    return encode_term(lam("k", tag0(body)))


_EMPTY = Finite(frozenset())
_K0_CODE = encode_term(App(K, Num(0)))

STANDARD_SPLIT_FORMULA = All(
    "y", Or(Rel("St", (NVar("y"),)),
            Imp(Rel("St", (NVar("y"),)), Eq(Lit(0), Succ(Lit(0))))))


# ---------------------------------------------------------------------------
# the induced assembly over a finite element sample

# selector values psi(0..23) every realizer of the sample carries
ST_PREFIX_LEN = 24


@dataclass(frozen=True, slots=True)
class ModelAssembly:
    assembly: FiniteAssembly
    standard: Subobject
    standard_points: tuple[QuasiPoly, ...]
    standard_report: TrackReport
    morphism_reports: tuple[tuple[str, TrackReport], ...]
    split_code: int
    split_verdict: Verdict3


def default_elements() -> tuple[QuasiPoly, ...]:
    n = ident()
    nonstd = (n, qp_add(n, const(1)), qp_add(n, const(2)), qp_add(n, const(5)),
              qp_mul(const(2), n), qp_add(qp_mul(const(2), n), const(1)),
              qp_mul(const(3), n), qp_mul(n, n),
              qp_add(qp_mul(n, n), const(1)), qp_add(qp_mul(n, n), n))
    return tuple(const(i) for i in range(10)) + nonstd


def _canonicalize(model: Model, elems) -> tuple[QuasiPoly, ...]:
    out: list[QuasiPoly] = []
    for e in elems:
        v = standard_value(model, e)
        e = const(v) if v is not None else e
        if not any(model.sign_qp(e, seen) == "=" for seen in out):
            out.append(e)
    return tuple(out)


def st_assembly(model: Model) -> ModelAssembly:
    """The element sample as an assembly: realizer sets carry the canonical
    description paired with a selector prefix, the arithmetic is tracked by
    structural code over descriptions, and the standardness split carries
    the branch realizer across the whole sample."""
    policy = CheckPolicy(depth=4, window=2, fuel=200_000)
    elems = _canonicalize(model, default_elements())
    model.ensure(ST_PREFIX_LEN - 1)
    psi_code = coding.encode_seq(model.state.psi[:ST_PREFIX_LEN])

    data = {e: qp_data(e) for e in elems}
    variants: dict[QuasiPoly, set[int]] = {e: {elem_code(e, psi_code)}
                                           for e in elems}

    def find(qp: QuasiPoly) -> QuasiPoly | None:
        for e in elems:
            if model.sign_qp(e, qp) == "=":
                return e
        return None

    def register(e: QuasiPoly, desc: int):
        variants[e].add(coding.pair(desc, psi_code))

    std = {e: standard_value(model, e) is not None for e in elems}

    # successor: every element whose bump stays inside the sample; variant
    # registration repeats until stable since targets feed later sources
    succ_map: dict[QuasiPoly, QuasiPoly] = {}
    for e in elems:
        target = find(qp_add(e, const(1)))
        if target is not None:
            succ_map[e] = target
    changed = True
    while changed:
        changed = False
        for e, target in succ_map.items():
            for d in tuple(variants[e]):
                code = coding.pair(mirror_succ(coding.unpair(d)[0]), psi_code)
                if code not in variants[target]:
                    variants[target].add(code)
                    changed = True

    # sums and products staying inside the sample, capped with unbounded
    # operands kept in the mix; zero factors excluded so scaling cannot
    # blank a row and flip the standardness branch
    def closed_pairs(op, skip_zero: bool):
        hits = []
        for a in elems:
            for b in elems:
                if skip_zero and 0 in (standard_value(model, a),
                                       standard_value(model, b)):
                    continue
                t = find(op(a, b))
                if t is not None:
                    hits.append((a, b, t))
        mixed = [abt for abt in hits if not (std[abt[0]] and std[abt[1]])]
        plain = [abt for abt in hits if std[abt[0]] and std[abt[1]]]
        return mixed[:12] + plain[:8]

    add_pairs = closed_pairs(qp_add, skip_zero=False)
    mul_pairs = closed_pairs(qp_mul, skip_zero=True)
    for pairs, mirror in ((add_pairs, mirror_add), (mul_pairs, mirror_mul)):
        for a, b, t in pairs:
            register(t, mirror(data[a], data[b]))

    iota_map = {n: e for n, e in ((standard_value(model, e), e)
                                  for e in elems) if n is not None}
    for n, e in iota_map.items():
        register(e, mirror_iota(n))

    for e in elems:
        for code in variants[e]:
            m, rows, _ = decode_elem_code(code)
            got = m == 1 and len(rows[0]) <= 1
            if got != std[e]:
                raise AssertionError(
                    f"description variant misreports standardness at {show_elem(e)}")

    asm = FiniteAssembly(
        "limit-sample", tuple(elems),
        tuple(Finite(frozenset(variants[e])) for e in elems))

    reports: list[tuple[str, TrackReport]] = []

    succ_src = FiniteAssembly(
        "succ-domain", tuple(succ_map),
        tuple(asm.realizer_set(e) for e in succ_map))
    reports.append(("succ", check_tracking(
        Morphism(succ_src, asm, succ_map.__getitem__, succ_tracker_code()),
        policy)))

    for name, pairs, term in (("add", add_pairs, ADD_DATA_T),
                              ("mul", mul_pairs, MUL_DATA_T)):
        src = FiniteAssembly(
            f"{name}-domain", tuple((a, b) for a, b, _ in pairs),
            tuple(Finite(frozenset({coding.pair(
                elem_code(a, psi_code), elem_code(b, psi_code))}))
                for a, b, _ in pairs))
        table = {(a, b): t for a, b, t in pairs}
        reports.append((name, check_tracking(
            Morphism(src, asm, table.__getitem__, binop_tracker_code(term)),
            policy)))

    reports.append(("iota", check_tracking(
        Morphism(NatAssembly(), asm, iota_map.__getitem__,
                 iota_tracker_code(psi_code)),
        policy, samples=len(iota_map))))

    st_sub = Subobject(lambda e: asm.realizer_set(e) if std[e] else _EMPTY)
    st_report, st_points = subobject_check(st_sub, asm, policy)

    env = Env(asm, relations=(
        ("St", lambda pts: asm.realizer_set(pts[0]) if std[pts[0]] else _EMPTY),))
    split = coding.pair(0, standard_split_code(_K0_CODE))
    verdict = jrealizes(split, STANDARD_SPLIT_FORMULA, env, policy)

    return ModelAssembly(asm, st_sub, tuple(st_points), st_report,
                         tuple(reports), split, verdict)


# ---------------------------------------------------------------------------
# element text for the command line: a numeral embeds, anything else is a
# quasi-polynomial in the standard text form


def parse_elem(text: str) -> QuasiPoly:
    text = text.strip()  # positions count from the first non-blank
    c = Cursor(QP_TOKENS, text)
    if not c.peek()[:1].isdigit():
        return parse_qp(text)
    n = c.nat()
    c.done()
    return const(n)
