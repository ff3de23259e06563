"""Builders for random certified closure members and decision trees, shared
across test modules, the quasi-polynomial evaluators, the reference machine
loop, the reference formula interpreters, the reference doctrine law
checker, the reference per-map pass of finite exponents, the reference
pairing, unpairing and closure-tag reader, the scans that read a definable
set over its whole modulus, the Skolem chain with every state holding its
whole prefix, and quasi-polynomial composition.

Chains are grown bottom-up: a 0-tagged base member, then lift steps whose
tail codes either repeat one member or switch between two at a window split,
so tail certificates genuinely differ per sample point.
"""

import math
import random
from dataclasses import dataclass

from jreal import coding, prog
from jreal.bracket import lam
from jreal.certs import Base, Cert, CheckPolicy, Lift
from jreal.deciders import DecTree, Not, One, Union
from jreal.doctrine import Doctrine, LawReport, MonoOp, arrow, derive_e4, wedge
from jreal.formulas import (All, And, Eq, Ex, Formula, Imp, Less, Lit, NVar, Or,
                            Plus, Rel, Succ, TermAst, Times, bound_of)
from jreal.machine import NotClosedAtRuntime, _as_nat
from jreal.quasipoly import (FULL_SET, DefinableSet, QuasiPoly, _padd, _peval, _pmul,
                             canon, const, enumerate_qp, qp_add, qp_mul)
from jreal.skolem import _position
from jreal.terms import (App, K, Num, PROJ, Prim, Term, Var, ap, decode_term_cached,
                         encode_term, spine)
from jreal.text import InputError


def const_code(x: int) -> int:
    return encode_term(App(K, Num(x)))


def lift_step(rng, pool, policy: CheckPolicy):
    """One lift over members drawn from the pool; returns (value, cert)."""
    x1, c1 = rng.choice(pool)
    x2, c2 = rng.choice(pool)
    threshold = rng.randrange(0, 3)
    if rng.random() < 0.4:
        e = const_code(x1)
        tails = tuple((m, c1) for m in policy.window_points(threshold))
    else:
        split = threshold + rng.randrange(0, policy.window)
        e = encode_term(
            lam("m", prog.ite(ap(prog.LT01, Var("m"), Num(split)), Num(x1), Num(x2)))
        )
        tails = tuple(
            (m, c1 if m < split else c2) for m in policy.window_points(threshold)
        )
    return coding.pair(1, e), Lift(threshold, tails)


def chain(rng: random.Random, a: int, depth: int, policy: CheckPolicy) -> tuple[int, Cert]:
    """A certified member of the closure of {a}, with `depth` lift layers."""
    pool = [(coding.pair(0, a), Base(a))]
    for _ in range(depth):
        pool.append(lift_step(rng, pool, policy))
    return pool[-1]


def nested_chain(rng: random.Random, a: int, inner_depth: int, outer_depth: int,
                 policy: CheckPolicy) -> tuple[int, Cert]:
    """A certified member of the double closure of {a}."""
    x, cert = chain(rng, a, inner_depth, policy)
    pool = [(coding.pair(0, x), Base(x, cert))]
    for _ in range(outer_depth):
        pool.append(lift_step(rng, pool, policy))
    return pool[-1]


def random_tree(rng: random.Random, depth: int) -> DecTree:
    """A decision tree at most ``depth`` levels deep over points below 10."""
    if depth <= 0 or rng.random() < 0.3:
        return One(rng.randrange(10))
    if rng.random() < 0.4:
        return Not(random_tree(rng, depth - 1))
    width = rng.randrange(2, 4)
    return Union(tuple(random_tree(rng, depth - 1) for _ in range(width)))



# Horner evaluation of a coefficient sequence <c0, c1, ...> at n
POLYEVAL = prog.fixlam(
    "pe", "c", "n",
    prog.ite(Var("c"), Num(0),
             ap(prog.ADD, ap(PROJ, Var("c"), Num(0)),
                ap(prog.MUL, Var("n"),
                   ap(Var("pe"), ap(prog.SUFFIX, Var("c"), Num(1)), Var("n"))))),
)

# quasi-polynomial evaluation of data <m, <coefficients per residue>>, the
# description half of a skolem element code
QPEVAL = lam(
    "d", "n",
    ap(POLYEVAL,
       ap(PROJ, ap(PROJ, Var("d"), Num(1)), ap(prog.MOD, Var("n"), ap(PROJ, Var("d"), Num(0)))),
       Var("n")),
)

class ReferenceMachine:
    """The machine's contraction rules written out plainly: tagged stack
    tuples, a spine walk per contraction, and the whole application built
    for every S, fix and numeral unquote.  The reference that
    ``jreal.machine.Machine`` must match run for run, step for step."""

    def __init__(self, fuel: int):
        self.fuel = fuel
        self.steps = 0

    def _tick(self) -> bool:
        if self.steps >= self.fuel:
            return False
        self.steps += 1
        return True

    def eval(self, t: Term) -> Term | None:
        # stack entries: ("arg", term) pending argument, ("app", value) pending fn
        stack: list[tuple[str, Term]] = []
        mode_eval = True
        while True:
            if mode_eval:
                if isinstance(t, App):
                    if t.room:
                        mode_eval = False
                        continue
                    stack.append(("arg", t.arg))
                    t = t.fn
                    continue
                if isinstance(t, Var):
                    raise NotClosedAtRuntime(t.name)
                if isinstance(t, Prim) and t.tag == 6:
                    if not self._tick():
                        return None
                    t = Num(0)
                mode_eval = False
                continue
            if not stack:
                return t
            kind, payload = stack.pop()
            if kind == "arg":
                stack.append(("app", t))
                t = payload
                mode_eval = True
                continue
            out = self._apply_value(payload, t)
            if out is None:
                return None
            t, mode_eval = out

    def _apply_value(self, f: Term, v: Term) -> tuple[Term, bool] | None:
        if isinstance(f, Num):
            if not self._tick():
                return None
            return App(decode_term_cached(f.value), v), True
        if f.room > 1:
            return App(f, v), False
        if not self._tick():
            return None
        head, args = spine(f)
        tag = head.tag
        if tag == 0:  # K a b -> a
            return args[0], False
        if tag == 1:  # S f g x -> f x (g x)
            a, b = args
            return App(App(a, v), App(b, v)), True
        if tag == 2:  # succ
            return Num(_as_nat(v) + 1), False
        if tag == 3:  # pred
            n = _as_nat(v)
            return Num(n - 1 if n > 0 else 0), False
        if tag == 4:  # ifz c a b
            c, a = args
            return (a if _as_nat(c) == 0 else v), False
        if tag == 5:  # fix f x -> f (fix f) x
            (fn,) = args
            return App(App(fn, App(Prim(5), fn)), v), True
        if tag == 7:  # cons
            (a,) = args
            return Num(coding.seq_cons(_as_nat(a), _as_nat(v))), False
        if tag == 8:  # len
            return Num(coding.seq_len(_as_nat(v))), False
        if tag == 9:  # proj
            (s,) = args
            return Num(coding.seq_proj(_as_nat(s), _as_nat(v))), False
        raise AssertionError(head)


# ---------------------------------------------------------------------------
# the formula interpreters that ``formulas.compile_formula`` must match: a
# tree walk per evaluation over the naturals, and one over the limit model


def eval_term(t: TermAst, env: dict) -> int:
    match t:
        case NVar(name):
            if name not in env:
                raise InputError(f"unassigned variable {name}")
            return env[name]
        case Lit(k):
            return k
        case Succ(a):
            return eval_term(a, env) + 1
        case Plus(a, b):
            return eval_term(a, env) + eval_term(b, env)
        case Times(a, b):
            return eval_term(a, env) * eval_term(b, env)
    raise TypeError(t)


def truth(phi: Formula, env: dict | None = None,
          points: tuple[int, ...] | None = None) -> bool:
    """Classical truth over the naturals; quantifiers must be guarded, unless
    ``points`` is given, when every quantifier ranges over those points."""
    env = env or {}
    match phi:
        case Eq(l, r):
            return eval_term(l, env) == eval_term(r, env)
        case Less(l, r):
            return eval_term(l, env) < eval_term(r, env)
        case Rel(name, _):
            raise InputError(f"relation {name} has no interpretation")
        case And(a, b):
            return truth(a, env, points) and truth(b, env, points)
        case Or(a, b):
            return truth(a, env, points) or truth(b, env, points)
        case Imp(a, b):
            return (not truth(a, env, points)) or truth(b, env, points)
        case All(v, body) | Ex(v, body):
            if points is None:
                got = bound_of(phi)
                if got is None:
                    raise InputError("unbounded quantifier has no classical "
                                     "evaluation here")
                ks = range(eval_term(got[1], env))
            else:
                ks = points
            picks = (truth(body, {**env, v: k}, points) for k in ks)
            return all(picks) if isinstance(phi, All) else any(picks)
    raise TypeError(phi)


def term_rep(t: TermAst, asn: dict):
    match t:
        case NVar(name):
            if name not in asn:
                raise InputError(f"unassigned variable {name}")
            return asn[name]
        case Lit(k):
            return const(k)
        case Succ(a):
            return qp_add(term_rep(a, asn), const(1))
        case Plus(a, b):
            return qp_add(term_rep(a, asn), term_rep(b, asn))
        case Times(a, b):
            return qp_mul(term_rep(a, asn), term_rep(b, asn))
    raise TypeError(t)


def truth_qf(model, phi: Formula, asn: dict) -> bool:
    """Exact truth of a quantifier-free formula at elements of the model."""
    match phi:
        case Eq(l, r):
            return model.sign_qp(term_rep(l, asn), term_rep(r, asn)) == "="
        case Less(l, r):
            return model.sign_qp(term_rep(l, asn), term_rep(r, asn)) == "<"
        case And(a, b):
            return truth_qf(model, a, asn) and truth_qf(model, b, asn)
        case Or(a, b):
            return truth_qf(model, a, asn) or truth_qf(model, b, asn)
        case Imp(a, b):
            return (not truth_qf(model, a, asn)) or truth_qf(model, b, asn)
        case Rel(name, _):
            raise InputError(f"relation {name} has no interpretation")
    raise InputError("quantifier-free formulas only")


def is_delta0(phi: Formula) -> bool:
    """Every quantifier guarded, by recursion on the formula."""
    match phi:
        case Eq(_, _) | Less(_, _) | Rel(_, _):
            return True
        case And(a, b) | Or(a, b) | Imp(a, b):
            return is_delta0(a) and is_delta0(b)
        case All(_, _) | Ex(_, _):
            got = bound_of(phi)
            return got is not None and is_delta0(got[2])
    raise TypeError(phi)


def atoms(phi: Formula):
    """The (left, right) terms of each atom of a quantifier-free formula,
    left to right, the order in which transfer settles them."""
    match phi:
        case Eq(l, r) | Less(l, r):
            yield l, r
        case And(a, b) | Or(a, b) | Imp(a, b):
            yield from atoms(a)
            yield from atoms(b)


def levels(phi) -> int:
    """Levels of formula and term nodes, counted a level at a time."""
    count, level = 0, [phi]
    while level:
        count += 1
        fields = [getattr(node, f) for node in level for f in node.__match_args__]
        level = [v for field in fields
                 for v in (field if isinstance(field, tuple) else (field,))
                 if not isinstance(v, str | int)]
    return count


# ---------------------------------------------------------------------------
# the law checker that ``doctrine.local_laws`` must match: every (source,
# target) pair of every law costs its own ``arrow`` call, and every set in a
# pair is computed by ``arrow`` or ``wedge`` on the spot


def local_laws(d: Doctrine, J: MonoOp) -> LawReport:
    def uniform(pairs) -> int:
        mask = d.full
        for A, B in pairs:
            mask &= arrow(d, A, B)
            if not mask:
                break
        return mask

    def least(mask: int) -> int | None:
        return (mask & -mask).bit_length() - 1 if mask else None

    n = range(1 << d.size)
    w1 = least(uniform((arrow(d, A, B), arrow(d, J[A], J[B]))
                       for A in n for B in n))
    w2 = least(uniform((A, J[A]) for A in n))
    w3 = least(uniform((J[J[A]], J[A]) for A in n))
    m4 = uniform((wedge(d, J[A], J[B]), J[wedge(d, A, B)])
                 for A in n for B in n)
    derived, note = derive_e4(d, w1, w3, m4)
    return LawReport(w1, w2, w3, least(m4), derived, note)


# ---------------------------------------------------------------------------
# the per-map pass that ``assemblies._per_map_pass`` must match: every map
# runs every candidate code through ``lands`` again, point by point


def per_map_listing(codes, rows, elems, lands):
    def found(images):
        return [e for e, row in zip(codes, rows)
                if all(lands(row[r], i)
                       for j, i in enumerate(images)
                       for r in elems[j])]
    return found


# ---------------------------------------------------------------------------
# the pairing and unpairing that ``coding._pair`` and ``coding._unpair`` must
# match, written with the offset off(L) of the first code whose payloads
# total L bits and full-width sums, the unpairing scanning down from n's bit
# length; and the tag reader that ``certs.tagged`` must match, decoding the
# whole sequence


def off(L: int) -> int:
    return 1 + ((L - 1) << L) if L else 0


def pair_by_offset(a: int, b: int) -> int:
    la = (a + 1).bit_length() - 1
    lb = (b + 1).bit_length() - 1
    L = la + lb
    pa = a + 1 - (1 << la)
    pb = b + 1 - (1 << lb)
    return off(L) + (la << L) + (pa << lb) + pb


def unpair_by_scan(n: int) -> tuple[int, int]:
    if n == 0:
        return 0, 0
    L = n.bit_length()  # off(bitlen(n)) > n, so scan downward
    while off(L) > n:
        L -= 1
    r = n - off(L)
    la = r >> L
    rest = r - (la << L)
    lb = L - la
    pa = rest >> lb
    pb = rest - (pa << lb)
    return (1 << la) - 1 + pa, (1 << lb) - 1 + pb


def tagged_by_full_decode(v: int) -> tuple[int, int] | None:
    parts = coding.decode_seq(v)
    if len(parts) == 2 and parts[0] < 2:
        return parts
    return None


# ---------------------------------------------------------------------------
# the coder that ``terms.encode_term`` must match: the frame walk over every
# spine, which reads no code an application keeps and writes none


def encode_by_walk(t: Term) -> int:
    codes: list[int] = []
    todo: list = [t]
    while todo:
        u = todo.pop()
        if type(u) is tuple:  # a spine's (atom, argument count) frame
            atom, n = u
            k = len(codes) - n
            codes[k:] = [coding.phi_join(codes[k:], atom)]
        elif type(u) is App:
            head, args = spine(u)
            todo.append((head.tag if type(head) is Prim else 10 + head.value,
                         len(args)))
            todo.extend(reversed(args))
        elif type(u) is Prim:
            codes.append(coding.phi_join((), u.tag))
        else:
            codes.append(coding.phi_join((), 10 + u.value))
    return codes[0]


# ---------------------------------------------------------------------------
# the readings of a definable set that ``quasipoly`` must match, each a scan
# over a whole modulus: the least period by rebuilding the residues at every
# divisor, the lift and the subset test by filtering every class of the
# joint modulus, and the next member by walking a modulus-long window


def reduce_by_scan(ds: DefinableSet) -> DefinableSet:
    for d in range(1, ds.modulus + 1):
        if ds.modulus % d:
            continue
        base = frozenset(r % d for r in ds.residues)
        if ds.residues == frozenset(
                r for r in range(ds.modulus) if r % d in base):
            return DefinableSet(d, base, ds.threshold)
    return ds


def lift_by_scan(ds: DefinableSet, modulus: int) -> list[int]:
    return [r for r in range(modulus) if r % ds.modulus in ds.residues]


def least_above_by_scan(ds: DefinableSet, x: int) -> int:
    start = max(ds.threshold, x + 1)
    for n in range(start, start + ds.modulus):
        if n % ds.modulus in ds.residues:
            return n
    raise ValueError("empty set has no elements")


def subset_by_scan(a: DefinableSet, b: DefinableSet) -> bool:
    m = math.lcm(a.modulus, b.modulus)
    if any(r % b.modulus not in b.residues for r in lift_by_scan(a, m)):
        return False
    return not a.residues or least_above_by_scan(a, -1) >= b.threshold


# ---------------------------------------------------------------------------
# the chain that ``skolem.extend_chain`` must match: each state holds its
# whole prefix, the newcomer is compared with every class on every step,
# and the live set is read by the scans above


@dataclass(frozen=True)
class OracleState:
    """Functions 0..k incorporated, with the surviving definable set, the
    selector prefix, and the settled order: ``classes`` holds the indices
    0..k grouped by settled equality, the groups in ascending order."""

    k: int
    live: DefinableSet
    psi: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    reps: tuple[QuasiPoly, ...]

    def sign(self, i: int, j: int) -> str:
        pos = {n: c for c, g in enumerate(self.classes) for n in g}
        return "=" if pos[i] == pos[j] else ("<" if pos[i] < pos[j] else ">")


def initial_unmemoized() -> OracleState:
    return OracleState(0, FULL_SET, (0,), ((0,),), (const(0),))


def extend_unmemoized(state: OracleState) -> OracleState:
    new = enumerate_qp(state.k + 1)
    betas = tuple(state.reps[g[0]] for g in state.classes)
    modulus = math.lcm(state.live.modulus, new.modulus,
                       *(b.modulus for b in betas))
    cells: dict[int, tuple[list[int], int]] = {}
    for r in lift_by_scan(state.live, modulus):
        cell, thr = _position(new, betas, modulus, r, state.live.threshold)
        res, t = cells.get(cell, ([], state.live.threshold))
        res.append(r)
        cells[cell] = (res, max(t, thr))
    chosen = min(cells)
    res, thr = cells[chosen]
    live = reduce_by_scan(DefinableSet(modulus, frozenset(res), thr))
    j = chosen // 2
    classes = list(state.classes)
    if chosen % 2:
        classes[j] += (state.k + 1,)
    else:
        classes.insert(j, (state.k + 1,))
    return OracleState(state.k + 1, live,
                       state.psi + (least_above_by_scan(live, state.psi[-1]),),
                       tuple(classes), state.reps + (new,))


# ---------------------------------------------------------------------------
# composition of quasi-polynomials, which the package never needs: f after
# g, checked pointwise over three periods


def _pcompose(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    acc: tuple[int, ...] = ()
    for c in reversed(outer):
        acc = _padd(_pmul(acc, inner), (c,) if c else ())
    return acc


def qp_compose(f: QuasiPoly, g: QuasiPoly) -> QuasiPoly:
    """f after g; the modulus lifts to make g's value class constant."""
    m = math.lcm(f.modulus, g.modulus)
    rows = []
    for r in range(m):
        inner = g.poly_at(r)
        outer = f.poly_at(_peval(inner, r))
        rows.append(_pcompose(outer, inner))
    out = canon(m, rows)
    span = 3 * m
    bad = [n for n in range(span) if out.value(n) != f.value(g.value(n))]
    if bad:
        raise AssertionError(f"composition drifts at {bad[:3]}")
    return out
