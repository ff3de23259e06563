"""Closure combinators: codes, host mirrors, and the disjointness probe.

Five object-level programs drive everything built on top of the closure
operator:

  unit      a: wraps a value as a 0-tagged member;
  fmap      b: pushes a function through a tagged tree;
  stage     c: turns an eventually-good code into a 1-tagged member;
  flatten   d: collapses one level of nesting;
  zip       e: merges two members into a member of the paired set, derived
               from a, b and d the same way the law it witnesses is derived.

Each code has a host mirror that, given a certified input, produces the
exact value the machine will produce together with a certificate for it.
Mirrors never replay the combinator itself on the machine: output closures
are predicted by substituting into the same open templates the codes were
compiled from, then encoding.  Input-side tail codes are replayed, since a
tail certificate names its sample points but not the values behind them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import coding, prog
from .bracket import lam
from .certs import Base, Cert, CertSearch, CheckPolicy, Lift, check_cert, Accepted
from .jsets import Finite, JSet, Singleton, UpFrom, Cofinite
from .machine import OutOfFuel, apply_cached
from .prog import EQ01, LT01, SUFFIX, _v, ite, p0, p1, tag0, tag1
from .terms import (
    App,
    CONS,
    FIX,
    LEN,
    PRED,
    PROJ,
    SUCC,
    Num,
    Term,
    Var,
    ap,
    encode_term,
    subst,
)


class MirrorError(ValueError):
    """A mirror was fed an input its certificate does not actually cover."""


def _short(n: int) -> str:
    """Codes grow astronomically; never print more than a size hint."""
    return str(n) if n < 10**9 else f"<{n.bit_length()}-bit code>"


# ---------------------------------------------------------------------------
# the five combinators, kept as open templates plus compiled codes

A_TERM = lam("x", tag0(Var("x")))

_C_TAIL_TMPL = lam("m", tag0(ap(Var("f"), Var("m"))))
C_TERM = lam("f", tag1(_C_TAIL_TMPL))

_B_TAIL_TMPL = lam("m", ap(Var("bg"), ap(p1(Var("x")), Var("m"))))
_B_STEP = lam(
    "bg", "x",
    ite(p0(Var("x")),
        tag0(ap(Var("g"), p1(Var("x")))),
        tag1(_B_TAIL_TMPL)),
)
B_TERM = lam("g", App(FIX, _B_STEP))

_D_TAIL_TMPL = lam("m", ap(Var("dj"), ap(p1(Var("x")), Var("m"))))
_D_STEP = lam(
    "dj", "x",
    ite(p0(Var("x")),
        p1(Var("x")),
        tag1(_D_TAIL_TMPL)),
)
D_TERM = App(FIX, _D_STEP)

_E_PAIR_TMPL = lam("v", prog.seq2(Var("u"), Var("v")))
_E_SECTION_TMPL = lam("u", ap(B_TERM, _E_PAIR_TMPL, p1(Var("w"))))
E_TERM = lam("w", App(D_TERM, ap(B_TERM, _E_SECTION_TMPL, p0(Var("w")))))

A_CODE = encode_term(A_TERM)
B_CODE = encode_term(B_TERM)
C_CODE = encode_term(C_TERM)
D_CODE = encode_term(D_TERM)
E_CODE = encode_term(E_TERM)


def b_closure_term(g_term: Term) -> Term:
    """The value the machine holds after applying fmap to a function."""
    return App(FIX, subst(_B_STEP, {"g": g_term}))


def _b_tail_term(g_term: Term, x: int) -> Term:
    return subst(_B_TAIL_TMPL, {"bg": b_closure_term(g_term), "x": Num(x)})


def _d_tail_term(x: int) -> Term:
    return subst(_D_TAIL_TMPL, {"dj": D_TERM, "x": Num(x)})


def _c_tail_term(f_term: Term) -> Term:
    return subst(_C_TAIL_TMPL, {"f": f_term})


# ---------------------------------------------------------------------------
# mirrors


@dataclass(frozen=True)
class MirrorFn:
    """Host twin of an object-level function.

    ``term`` is the exact value term the machine binds for the function;
    ``on_value`` predicts the machine's result on a numeral argument and may
    attach a certificate when the result needs one (nested targets).
    """

    term: Term
    on_value: Callable[[int], tuple[int, Cert | None]]


def _tagged(x: int, want: int) -> int:
    parts = coding.decode_seq(x)
    if len(parts) != 2 or parts[0] != want:
        raise MirrorError(f"value {_short(x)} is not a {want}-tagged pair")
    return parts[1]


def _replay(e: int, m: int, policy: CheckPolicy) -> int:
    res = apply_cached(e, m, policy.fuel)
    if isinstance(res, OutOfFuel):
        raise MirrorError(f"input tail code {_short(e)} ran out of fuel at {m}")
    return res.value


def _tail_table(cert: Lift, policy: CheckPolicy) -> dict[int, Cert]:
    table = dict(cert.tails)
    for m in policy.window_points(cert.threshold):
        if m not in table:
            raise MirrorError(f"input certificate misses window point {m}")
    return table


def mirror_a(x: int, inner: Cert | None = None) -> tuple[int, Cert]:
    return coding.pair(0, x), Base(x, inner)


def mirror_b(g: MirrorFn, x: int, cert: Cert, policy: CheckPolicy) -> tuple[int, Cert]:
    match cert:
        case Base(y, _):
            out, out_inner = g.on_value(y)
            return coding.pair(0, out), Base(out, out_inner)
        case Lift(threshold, _, _):
            e_in = _tagged(x, 1)
            table = _tail_table(cert, policy)
            tails = []
            for m in policy.window_points(threshold):
                v_m = _replay(e_in, m, policy)
                _, sub = mirror_b(g, v_m, table[m], policy)
                tails.append((m, sub))
            out = coding.pair(1, encode_term(_b_tail_term(g.term, x)))
            return out, Lift(threshold, tuple(tails))
        case _:
            raise TypeError(cert)


def mirror_c(f: MirrorFn, threshold: int, policy: CheckPolicy) -> tuple[int, Cert]:
    tails = []
    for m in policy.window_points(threshold):
        v_m, inner = f.on_value(m)
        tails.append((m, Base(v_m, inner)))
    out = coding.pair(1, encode_term(_c_tail_term(f.term)))
    return out, Lift(threshold, tuple(tails), schema="staged")


def mirror_d(x: int, cert: Cert, policy: CheckPolicy) -> tuple[int, Cert]:
    match cert:
        case Base(y, inner):
            if inner is None:
                raise MirrorError("flatten needs an inner certificate on base inputs")
            return y, inner
        case Lift(threshold, _, _):
            e_in = _tagged(x, 1)
            table = _tail_table(cert, policy)
            tails = []
            for m in policy.window_points(threshold):
                v_m = _replay(e_in, m, policy)
                _, sub = mirror_d(v_m, table[m], policy)
                tails.append((m, sub))
            out = coding.pair(1, encode_term(_d_tail_term(x)))
            return out, Lift(threshold, tuple(tails))
        case _:
            raise TypeError(cert)


def mirror_e(w: int, cert_left: Cert, cert_right: Cert, policy: CheckPolicy) -> tuple[int, Cert]:
    parts = coding.decode_seq(w)
    if len(parts) != 2:
        raise MirrorError(f"zip input {_short(w)} is not a pair")
    left, right = parts

    def section_host(y: int) -> tuple[int, Cert]:
        g_pair = MirrorFn(
            subst(_E_PAIR_TMPL, {"u": Num(y)}),
            lambda z: (coding.pair(y, z), None),
        )
        return mirror_b(g_pair, right, cert_right, policy)

    g_section = MirrorFn(
        subst(_E_SECTION_TMPL, {"w": Num(w)}),
        section_host,
    )
    nested_val, nested_cert = mirror_b(g_section, left, cert_left, policy)
    return mirror_d(nested_val, nested_cert, policy)


def wedge_target(A: JSet, B: JSet) -> Finite:
    """The set of pair codes with components from two finite-shaped sets."""

    def elems(S: JSet) -> tuple[int, ...]:
        match S:
            case Finite(es):
                return tuple(sorted(es))
            case Singleton(k):
                return (k,)
            case _:
                raise ValueError("wedge targets need finite shapes")

    return Finite(frozenset(coding.pair(a, b) for a in elems(A) for b in elems(B)))


# ---------------------------------------------------------------------------
# pointwise lifting of a total function across tagged trees

# least index holding a 1-tagged entry, else the length
FIND1 = prog.fixlam(
    "f1", "s", "j",
    ite(ap(LT01, _v("j"), App(LEN, _v("s"))),
        ite(p0(ap(PROJ, _v("s"), _v("j"))),
            ap(_v("f1"), _v("s"), App(SUCC, _v("j"))),
            _v("j")),
        _v("j")),
)

# second components of every entry
PAYLOADS = prog.fixlam(
    "pl", "s",
    ite(_v("s"), Num(0),
        ap(CONS, p1(ap(PROJ, _v("s"), Num(0))),
           App(_v("pl"), ap(SUFFIX, _v("s"), Num(1))))),
)

REPLACEAT = prog.fixlam(
    "rp", "s", "i", "v",
    ite(_v("i"),
        ap(CONS, _v("v"), ap(SUFFIX, _v("s"), Num(1))),
        ap(CONS, ap(PROJ, _v("s"), Num(0)),
           ap(_v("rp"), ap(SUFFIX, _v("s"), Num(1)), App(PRED, _v("i")), _v("v")))),
)

_G_TAIL_TMPL = lam(
    "m",
    ap(Var("G"),
       ap(REPLACEAT, Var("s"), Var("i"),
          ap(p1(ap(PROJ, Var("s"), Var("i"))), Var("m")))),
)
_G_DISPATCH = lam(
    "i",
    ite(ap(EQ01, Var("i"), App(LEN, Var("s"))),
        tag0(App(Var("F"), App(PAYLOADS, Var("s")))),
        tag1(_G_TAIL_TMPL)),
)
_G_STEP = lam("G", "s", App(_G_DISPATCH, ap(FIND1, Var("s"), Num(0))))

# applying this single code to a function's code yields the lifted code,
# which is what makes the lifting uniform
G_BUILDER_TERM = lam("F", App(FIX, _G_STEP))
G_BUILDER_CODE = encode_term(G_BUILDER_TERM)


@dataclass(frozen=True)
class LiftedFn:
    """A total function's code together with its pointwise lifting."""

    f_code: int
    g_code: int
    host: Callable[[tuple[int, ...]], int]


def g_closure_term(f_code: int) -> Term:
    return App(FIX, subst(_G_STEP, {"F": Num(f_code)}))


def lemma_g(f_code: int, host: Callable[[tuple[int, ...]], int]) -> LiftedFn:
    return LiftedFn(f_code, encode_term(g_closure_term(f_code)), host)


def mirror_lifted(
    fn: LiftedFn,
    entries: list[tuple[int, Cert]],
    policy: CheckPolicy,
) -> tuple[int, Cert]:
    """Mirror of the lifted code on a sequence of certified tagged values."""
    xs = [x for x, _ in entries]
    first = len(xs)
    for k, x in enumerate(xs):
        parts = coding.decode_seq(x)
        if len(parts) != 2 or parts[0] not in (0, 1):
            raise MirrorError(f"coordinate {k} is not a tagged pair")
        if parts[0] == 1 and first == len(xs):
            first = k
    if first == len(xs):
        payloads = tuple(coding.decode_seq(x)[1] for x in xs)
        out = fn.host(payloads)
        return coding.pair(0, out), Base(out)
    cert_i = entries[first][1]
    if not isinstance(cert_i, Lift):
        raise MirrorError(f"coordinate {first} is 1-tagged but not lift-certified")
    e_i = coding.decode_seq(xs[first])[1]
    table = _tail_table(cert_i, policy)
    s_val = coding.encode_seq(xs)
    tail_code = encode_term(
        subst(_G_TAIL_TMPL, {"G": g_closure_term(fn.f_code), "s": Num(s_val), "i": Num(first)})
    )
    tails = []
    for m in policy.window_points(cert_i.threshold):
        v_m = _replay(e_i, m, policy)
        replaced = list(entries)
        replaced[first] = (v_m, table[m])
        _, sub = mirror_lifted(fn, replaced, policy)
        tails.append((m, sub))
    return coding.pair(1, tail_code), Lift(cert_i.threshold, tuple(tails))


# ---------------------------------------------------------------------------
# the two scanners whose liftings classify sequences

# 0 when some entry is 0, else 1
ANYZERO = prog.fixlam(
    "az", "s",
    ite(_v("s"), Num(1),
        ite(ap(PROJ, _v("s"), Num(0)), Num(0),
            App(_v("az"), ap(SUFFIX, _v("s"), Num(1))))),
)

# least index holding 0, else the length
LEASTZERO = prog.fixlam(
    "lz", "s",
    ite(_v("s"), Num(0),
        ite(ap(PROJ, _v("s"), Num(0)), Num(0),
            App(SUCC, App(_v("lz"), ap(SUFFIX, _v("s"), Num(1)))))),
)

ANYZERO_CODE = encode_term(ANYZERO)
LEASTZERO_CODE = encode_term(LEASTZERO)


def host_anyzero(payloads: tuple[int, ...]) -> int:
    return 0 if any(v == 0 for v in payloads) else 1


def host_leastzero(payloads: tuple[int, ...]) -> int:
    for k, v in enumerate(payloads):
        if v == 0:
            return k
    return len(payloads)


@dataclass(frozen=True)
class ScanPair:
    any_zero: LiftedFn
    least_zero: LiftedFn


def cor_gh() -> ScanPair:
    return ScanPair(
        lemma_g(ANYZERO_CODE, host_anyzero),
        lemma_g(LEASTZERO_CODE, host_leastzero),
    )


# ---------------------------------------------------------------------------
# disjointness probe


@dataclass(frozen=True, slots=True)
class ProbeReport:
    budget: int
    policy: CheckPolicy
    double_certified: tuple[int, ...]
    empty_certified: tuple[int, ...]
    inclusion_checked: int
    inclusion_failures: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.double_certified and not self.empty_certified and not self.inclusion_failures


def _inclusion_chains(policy: CheckPolicy) -> list[tuple[int, Cert, int]]:
    """Certified members of the closure of {a}, lifted to varied depths."""
    from .certs import lifted_constant

    out = []
    for a in (0, 1):
        x, cert = coding.pair(0, a), Base(a)
        out.append((x, cert, a))
        for step, threshold in enumerate((0, 2, 1)):
            if step + 2 > policy.depth:
                break
            x, cert = lifted_constant(x, cert, threshold, policy)
            out.append((x, cert, a))
    return out


def disjointness_probe(
    budget: int,
    policy: CheckPolicy,
    max_threshold: int = 2,
) -> ProbeReport:
    """Search for certificates that must not exist, at the given bounds.

    A double certification of membership above 0 and above 1, or any
    certificate against the empty target, contradicts what the closure
    operator is for; finding one is build-breaking.  The probe also
    re-verifies generated certificates against supersets of their targets.
    """
    zero, one, nothing = Singleton(0), Singleton(1), Finite(frozenset())
    s_zero = CertSearch(policy, max_threshold)
    s_one = CertSearch(policy, max_threshold)
    s_none = CertSearch(policy, max_threshold)
    doubles: list[int] = []
    empties: list[int] = []
    for x in range(budget):
        c0 = s_zero.search(x, zero)
        c1 = s_one.search(x, one)
        if c0 is not None and c1 is not None:
            doubles.append(x)
        if s_none.search(x, nothing) is not None:
            empties.append(x)

    checked = 0
    failures: list[str] = []
    for x, cert, a in _inclusion_chains(policy):
        for sup in (Finite(frozenset({0, 1})), UpFrom(0), Cofinite(frozenset({a + 2}))):
            checked += 1
            got = check_cert(x, sup, cert, policy)
            if not isinstance(got, Accepted):
                failures.append(f"x={x} superset={sup}: {got.reason}")
    return ProbeReport(
        budget, policy, tuple(doubles), tuple(empties), checked, tuple(failures)
    )
