"""Command-line front end.

Six subcommand families, one per layer of the package: closure doctrines,
membership certificates, decision trees, assemblies, realizability checks,
and the limit-model pipeline.  Every command prints one deterministic
report (see report.py) and exits 0 on success, 1 on any failed case, and
2 when unknown verdicts outnumber decided ones or the input is unusable.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
import functools
import pathlib
import sys

from . import skolem
from .assemblies import (AsmSyntaxError, Subobject, check_tracking,
                         exponent_finite, morphism_from_table, parse_assembly,
                         product, proj_left, proj_right, subobject_check,
                         TrackReport, TrackStatus)
from .certs import Accepted, CheckPolicy, check_cert, parse_cert
from .deciders import (Verdict, ground_truth, parse_dec, run_decider,
                       show_dec)
from .doctrine import (Doctrine, MonoOp, lfp_by_intersection, lfp_local,
                       local_laws, parse_doctrine, pitts_f_finite,
                       uniformity_finite)
from .formulas import parse_formula
from .jsets import Finite, parse_jset
from .quasipoly import enumerate_qp, show_qp
from .realizes import (Env, Realized, Refuted, Unknown, build_delta0,
                       build_sigma1, jrealizes, nat_env)
from .report import (Case, Report, case_fail, case_pass, case_unknown,
                     emit_report, exit_code)

LIFT_CAVEAT = "lift obligations checked on a finite window only"


class UsageError(ValueError):
    pass


def _read(path: str) -> str:
    try:
        return pathlib.Path(path).read_text()
    except OSError as exc:
        raise UsageError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _nat(what: str, value: int | str) -> int:
    """A natural number from a flag or a case field."""
    try:
        n = int(value, 0) if isinstance(value, str) else value
    except ValueError:
        raise UsageError(f"{what}: bad number {value!r}") from None
    if n < 0:
        raise UsageError(f"{what} must be a natural number, got {n}")
    return n


def _read_closure(path: str) -> tuple[Doctrine, MonoOp, MonoOp]:
    """The doctrine in a file, its map F and the least closed J above F."""
    text = _read(path)
    try:
        d = parse_doctrine(text)
        F = pitts_f_finite(d)
        return d, F, lfp_local(d, F)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _parse_mask(text: str, d: Doctrine) -> int:
    """Either an element list {0,2} or a plain integer bitmask."""
    text = text.strip()
    if text.startswith("{"):
        if not text.endswith("}"):
            raise UsageError(f"unclosed set literal {text!r}")
        inner = text[1:-1].strip()
        mask = 0
        for tok in filter(None, (t.strip() for t in inner.split(","))):
            mask |= 1 << int(tok)
    else:
        mask = int(text, 0)
    if not 0 <= mask <= d.full:
        raise UsageError(f"set {text!r} out of range for size {d.size}")
    return mask


def _show_mask(mask: int) -> str:
    return "{" + ",".join(str(i) for i in range(mask.bit_length())
                          if mask >> i & 1) + "}"


def _big(n: int) -> str:
    # realizer codes can run to thousands of digits; keep reports readable
    s = str(n)
    return s if len(s) <= 40 else f"{s[:12]}...({len(s)} digits)"


# ---------------------------------------------------------------------------
# doctrine


def _cmd_doctrine_laws(args, policy: CheckPolicy) -> Report:
    d, _, J = _read_closure(args.file)
    rep = local_laws(d, J)
    cases = []
    for name, w in (("e1", rep.e1), ("e2", rep.e2),
                    ("e3", rep.e3), ("e4", rep.e4)):
        if w is not None:
            cases.append(case_pass(name, "holds", f"uniform element {w.element}"))
        else:
            cases.append(case_fail(name, "fails", "no uniform element"))
    if rep.e4_derived is not None:
        cases.append(case_pass("e4-derived", "holds",
                               f"element {rep.e4_derived.element} "
                               f"({rep.e4_derivation_note})"))
    else:
        cases.append(case_fail("e4-derived", "fails", rep.e4_derivation_note))
    word = "Local" if rep.operator_is_local else "NotLocal"
    status = case_pass if rep.operator_is_local else case_fail
    cases.append(status("operator", word, "laws e1-e3 pin the closure"))
    return Report(f"doctrine laws {args.file}", tuple(cases))


def _cmd_doctrine_lfp(args, policy: CheckPolicy) -> Report:
    d, F, J = _read_closure(args.file)
    mask = _try_usage(_parse_mask, args.set, d)
    iterated = J[mask]
    meet = lfp_by_intersection(d, F, mask)
    cases = [
        case_pass("iterate", _show_mask(iterated),
                  f"rule closure of {_show_mask(mask)}"),
        case_pass("meet", _show_mask(meet), "intersection of closed supersets"),
    ]
    if iterated == meet:
        cases.append(case_pass("agree", "Equal", "both routes coincide"))
    else:
        cases.append(case_fail("agree", "Differ",
                               f"{_show_mask(iterated)} vs {_show_mask(meet)}"))
    return Report(f"doctrine lfp {args.file}", tuple(cases))


def _cmd_doctrine_uniformity(args, policy: CheckPolicy) -> Report:
    d, _, J = _read_closure(args.file)
    rep = uniformity_finite(d, J)
    if rep.verified:
        c = case_pass("uniformity", "Verified",
                      f"element {rep.element} pairs {rep.paired_from} "
                      f"with itself over {rep.checked} sets")
    elif rep.element is None:
        c = case_fail("uniformity", "Failed", "no self-paired candidate")
    else:
        c = case_fail("uniformity", "Failed",
                      f"element {rep.element} misses {len(rep.failures)} sets")
    return Report(f"doctrine uniformity {args.file}", (c,))


# ---------------------------------------------------------------------------
# jcert


def _cmd_jcert_check(args, policy: CheckPolicy) -> Report:
    target = _try_usage(parse_jset, args.set)
    cert = _try_usage(parse_cert, _read(args.cert))
    res = check_cert(_nat("--x", args.x), target, cert, policy)
    caveats = ()
    if isinstance(res, Accepted):
        c = case_pass("cert", "accepted", f"x={args.x} lands in {args.set}")
        if res.sampled:
            caveats = (LIFT_CAVEAT,)
    else:
        c = case_fail("cert", "rejected", res.reason)
    return Report(f"jcert check {args.cert}", (c,), caveats)


# ---------------------------------------------------------------------------
# jdec


_DEC_WORD = {Verdict.IN: "In", Verdict.OUT: "Out", Verdict.UNKNOWN: "Unknown"}


def _dec_case(ident: str, res, truth: bool | None) -> Case:
    word = _DEC_WORD[res.verdict]
    detail = res.note or f"value {res.value}"
    if res.verdict is Verdict.UNKNOWN:
        return case_unknown(ident, word, detail)
    if truth is not None:
        agrees = (res.verdict is Verdict.IN) == truth
        if not agrees:
            return case_fail(ident, word,
                             f"disagrees with direct evaluation ({detail})")
    return case_pass(ident, word, detail)


def _cmd_jdec_build(args, policy: CheckPolicy) -> Report:
    tree = _try_usage(parse_dec, args.expr)
    out = pathlib.Path(args.output)
    try:
        out.write_text(show_dec(tree) + "\n")
    except OSError as exc:
        raise UsageError(str(exc)) from None
    c = case_pass("build", "Built", f"wrote {args.output}")
    return Report(f"jdec build {args.output}", (c,))


def _cmd_jdec_run(args, policy: CheckPolicy) -> Report:
    tree = _try_usage(parse_dec, _read(args.file))
    res = run_decider(tree, _nat("--n", args.n), policy)
    c = _dec_case(f"n={args.n}", res, ground_truth(tree, args.n))
    return Report(f"jdec run {args.file}", (c,))


def _cmd_jdec_table(args, policy: CheckPolicy) -> Report:
    tree = _try_usage(parse_dec, _read(args.file))
    cases = tuple(_dec_case(f"n={n}", run_decider(tree, n, policy),
                            ground_truth(tree, n))
                  for n in range(_nat("--upto", args.upto) + 1))
    return Report(f"jdec table {args.file}", cases)


# ---------------------------------------------------------------------------
# asm


def _read_assembly(path: str) -> "FiniteAssembly":
    try:
        return parse_assembly(_read(path), pathlib.Path(path).stem)
    except AsmSyntaxError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _track_case(ident: str, rep: TrackReport) -> Case:
    detail = f"checked {rep.checked}"
    if rep.note:
        detail += f"; {rep.note}"
    match rep.status:
        case TrackStatus.VERIFIED:
            return case_pass(ident, "Verified", detail)
        case TrackStatus.FAILED:
            return case_fail(ident, "Failed",
                            f"{detail}; witness {rep.witness}")
        case _:
            return case_unknown(ident, "Unknown", detail)


def _cmd_asm_track(args, policy: CheckPolicy) -> Report:
    src = _read_assembly(args.file)
    dst = _read_assembly(args.dst) if args.dst else src
    table = {}
    for piece in filter(None, (p.strip() for p in args.map.split(","))):
        if ":" not in piece:
            raise UsageError(f"map entry {piece!r} needs the form src:dst")
        a, b = (s.strip() for s in piece.split(":", 1))
        table[a] = b
    missing = [p for p in src.points if p not in table]
    if missing:
        raise UsageError(f"map misses points {missing}")
    bad = [v for v in table.values() if v not in dst.points]
    if bad:
        raise UsageError(f"map hits unknown points {bad}")
    tracker = _nat("--tracker", args.tracker)
    mor = morphism_from_table(src, dst, table, tracker)
    rep = check_tracking(mor, policy)
    caveats = (LIFT_CAVEAT,) if rep.sampled else ()
    return Report(f"asm track {args.file}",
                  (_track_case("tracking", rep),), caveats)


def _cmd_asm_product(args, policy: CheckPolicy) -> Report:
    A = _read_assembly(args.left)
    B = _read_assembly(args.right)
    AB = product(A, B)
    for a in A.points:  # a wedge lists its factors' realizer sets
        for b in B.points:
            _try_usage(AB.realizer_set, (a, b))
    cases = (
        case_pass("points", str(len(A.points) * len(B.points)),
                  f"pairs of {A.name} and {B.name}"),
        _track_case("proj-left", check_tracking(proj_left(AB), policy)),
        _track_case("proj-right", check_tracking(proj_right(AB), policy)),
    )
    return Report(f"asm product {args.left} {args.right}", cases)


def _show_map(A, table: tuple) -> str:
    return " ".join(f"{p}>{q}" for p, q in zip(A.points, table))


def _cmd_asm_exp(args, policy: CheckPolicy) -> Report:
    A = _read_assembly(args.left)
    B = _read_assembly(args.right)
    res = exponent_finite(A, B, _nat("--bound", args.bound), policy)
    cases = []
    for i, mor in enumerate(res.morphisms):
        table = tuple(mor.map(p) for p in A.points)
        cases.append(case_pass(f"map{i}", "Tracked", _show_map(A, table)))
    for i, (table, reason) in enumerate(res.excluded_maps):
        cases.append(case_pass(f"excluded{i}", "Excluded",
                               f"{_show_map(A, table)}: {reason}"))
    for i, table in enumerate(res.unknown_maps):
        cases.append(case_unknown(f"open{i}", "Unknown",
                                  f"{_show_map(A, table)}: no tracker "
                                  f"below {args.bound}"))
    caveats = ()
    if res.unknown_maps:
        caveats = (f"tracker search cut off at code {args.bound}",)
    return Report(f"asm exp {args.left} {args.right}", tuple(cases), caveats)


def _cmd_asm_sub(args, policy: CheckPolicy) -> Report:
    base = _read_assembly(args.file)
    keep = {p.strip() for p in args.points.split(",") if p.strip()}
    unknown = keep - set(base.points)
    if unknown:
        raise UsageError(f"points not in the assembly: {sorted(unknown)}")
    empty = Finite(frozenset())
    sub = Subobject(lambda p: base.realizer_set(p) if p in keep else empty)
    rep, live = subobject_check(sub, base, policy)
    expected = tuple(p for p in base.points if p in keep)
    cases = [_track_case("tracking", rep)]
    if live == expected:
        cases.append(case_pass("points", "Live", " ".join(live) or "(none)"))
    else:
        cases.append(case_fail("points", "Mismatch",
                               f"live {list(live)} expected {list(expected)}"))
    return Report(f"asm sub {args.file}", tuple(cases))


# ---------------------------------------------------------------------------
# realize


def _realize_env(asm_path: str | None) -> Env:
    if asm_path is None:
        return nat_env()
    return Env(_read_assembly(asm_path))


def _realize_case(ident: str, verdict) -> Case:
    match verdict:
        case Realized(_, ev):
            detail = ev.notes[-1] if ev.notes else "all clauses checked"
            return case_pass(ident, "Realized", detail)
        case Refuted(reason):
            return case_fail(ident, "Refuted", reason)
        case Unknown(diag):
            return case_unknown(ident, "Unknown", diag)
    raise AssertionError(verdict)


def _cmd_realize_check(args, policy: CheckPolicy) -> Report:
    phi = _try_usage(parse_formula, args.formula)
    env = _realize_env(args.asm)
    v = _try_usage(jrealizes, _nat("--e", args.e), phi, env, policy)
    caveats = v.evidence.caveats if isinstance(v, Realized) else ()
    return Report("realize check", (_realize_case("check", v),), caveats)


def _build_realizer(phi) -> int:
    try:
        return build_delta0(phi)
    except ValueError as delta_exc:
        try:
            e = build_sigma1(phi)
        except ValueError:
            e = None
        if e is None:
            raise UsageError(f"no realizer constructed: {delta_exc}") from None
        return e


def _cmd_realize_build(args, policy: CheckPolicy) -> Report:
    phi = _try_usage(parse_formula, args.formula)
    e = _build_realizer(phi)
    v = jrealizes(e, phi, nat_env(), policy)
    cases = (case_pass("build", "Built", f"e={_big(e)}"),
             _realize_case("selfcheck", v))
    caveats = v.evidence.caveats if isinstance(v, Realized) else ()
    return Report("realize build", cases, caveats)


def _case_fields(path: pathlib.Path) -> dict[str, str]:
    fields: dict[str, str] = {}
    for ln in _read(str(path)).splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if ":" not in ln:
            raise UsageError(f"{path.name}: bad line {ln!r}")
        key, val = ln.split(":", 1)
        fields[key.strip()] = val.strip()
    return fields


def _corpus_files(dirname: str) -> list[pathlib.Path]:
    root = pathlib.Path(dirname)
    if not root.is_dir():
        raise UsageError(f"{dirname} is not a directory")
    files = sorted(root.glob("*.case"))
    if not files:
        raise UsageError(f"no .case files under {dirname}")
    return files


def _cmd_realize_corpus(args, policy: CheckPolicy) -> Report:
    cases = []
    caveats: dict[str, None] = {}
    for path in _corpus_files(args.dir):
        fields = _case_fields(path)
        if "formula" not in fields:
            raise UsageError(f"{path.name}: missing formula")
        phi = _try_usage(parse_formula, fields["formula"])
        env = _realize_env(str(path.parent / fields["asm"])
                           if "asm" in fields else None)
        e = (_nat(f"{path.name}: e", fields["e"]) if "e" in fields
             else _build_realizer(phi))
        v = _try_usage(jrealizes, e, phi, env, policy)
        expect = fields.get("expect", "realized")
        got = {Realized: "realized", Refuted: "refuted",
               Unknown: "unknown"}[type(v)]
        if isinstance(v, Realized):
            for cav in v.evidence.caveats:
                caveats[cav] = None
        if got == expect:
            cases.append(case_pass(path.stem, got.capitalize(),
                                   "as expected"))
        elif got == "unknown":
            cases.append(case_unknown(path.stem, "Unknown",
                                      f"expected {expect}: {v.diagnostics}"))
        else:
            why = v.reason if isinstance(v, Refuted) else "check passed"
            cases.append(case_fail(path.stem, got.capitalize(),
                                   f"expected {expect}: {why}"))
    return Report(f"realize corpus {args.dir}", tuple(cases), tuple(caveats))


# ---------------------------------------------------------------------------
# skolem


def _cmd_skolem_extend(args, policy: CheckPolicy) -> Report:
    if args.steps < 1:
        raise UsageError("--steps must be at least 1")
    states = [skolem.initial_chain()]
    for _ in range(args.steps):
        states.append(skolem.extend_chain(states[-1]))
    final = states[-1]
    mono = all(a < b for a, b in zip(final.psi, final.psi[1:]))
    nested = all(b.live.subset_of(a.live) for a, b in zip(states, states[1:]))
    live = final.live
    cases = (
        (case_pass if mono else case_fail)(
            "selector", "Increasing" if mono else "Stalls",
            f"psi {list(final.psi[:6])}{'...' if len(final.psi) > 6 else ''}"),
        (case_pass if nested else case_fail)(
            "chain", "Nested" if nested else "Broken",
            f"{args.steps} refinement steps"),
        case_pass("live", "Infinite",
                  f"mod {live.modulus} residues "
                  f"{sorted(live.residues)} from {live.threshold}"),
    )
    return Report(f"skolem extend {args.steps}", cases)


def _cmd_skolem_sign(args, policy: CheckPolicy) -> Report:
    i, j = _nat("i", args.i), _nat("j", args.j)
    state = skolem.Model().ensure(max(i, j) + 1)
    rel = skolem.sign(state, i, j)
    detail = f"{show_qp(enumerate_qp(i))} vs {show_qp(enumerate_qp(j))}"
    return Report(f"skolem sign {i} {j}",
                  (case_pass(f"{i},{j}", rel, detail),))


def _parse_assignment(text: str) -> dict[str, "skolem.ModelElem"]:
    # entries separated by |, since the element syntax itself uses , and ;
    asn = {}
    for piece in filter(None, (p.strip() for p in text.split("|"))):
        if "=" not in piece:
            raise UsageError(f"assignment entry {piece!r} needs name=value")
        name, val = piece.split("=", 1)
        asn[name.strip()] = _try_usage(skolem.parse_elem, val.strip())
    return asn


def _cmd_skolem_eval(args, policy: CheckPolicy) -> Report:
    phi = _try_usage(parse_formula, args.formula)
    asn = _parse_assignment(args.args) if args.args else {}
    model = skolem.Model()
    val = _try_usage(skolem.truth_qf, model, phi, asn)
    shown = " ".join(f"{n}={skolem.show_elem(e)}" for n, e in sorted(asn.items()))
    return Report("skolem eval",
                  (case_pass("eval", "True" if val else "False",
                             shown or "closed"),))


def _cmd_skolem_standard(args, policy: CheckPolicy) -> Report:
    e = _try_usage(skolem.parse_elem, args.elem)
    model = skolem.Model()
    val = skolem.standard_value(model, e)
    if val is None:
        c = case_pass("standard", "Unbounded",
                      f"{skolem.show_elem(e)} outgrows every constant")
    else:
        c = case_pass("standard", "Standard", f"value {val}")
    return Report("skolem standard", (c,))


def _cmd_skolem_transfer(args, policy: CheckPolicy) -> Report:
    model = skolem.Model()
    cases = []
    caveats: dict[str, None] = {}
    for path in _corpus_files(args.corpus):
        fields = _case_fields(path)
        if "formula" not in fields:
            raise UsageError(f"{path.name}: missing formula")
        phi = _try_usage(parse_formula, fields["formula"])
        asn = _parse_assignment(fields.get("args", ""))
        rep = _try_usage(skolem.transfer_check, model, phi, asn,
                         policy.window * 6)
        for cav in rep.caveats:
            caveats[cav] = None
        detail = f"{rep.mode} over {rep.window} points"
        if rep.consistent:
            cases.append(case_pass(path.stem, "Consistent", detail))
        else:
            cases.append(case_fail(path.stem, "Disagrees",
                                   f"{detail}; {rep.disagreements[0]}"))
    return Report(f"skolem transfer {args.corpus}", tuple(cases),
                  tuple(caveats))


# ---------------------------------------------------------------------------
# dispatch


def _try_usage(fn, *fnargs, **kw):
    try:
        return fn(*fnargs, **kw)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _common_flags(p: argparse.ArgumentParser, top: bool) -> None:
    # Only the top parser holds defaults.  A leaf sets a flag only when it
    # is given, so a flag given before the family is not overwritten.
    def default(value):
        return value if top else argparse.SUPPRESS

    p.add_argument("--fuel", type=int, default=default(200_000),
                   help="machine step budget per run")
    p.add_argument("--depth", type=int, default=default(4),
                   help="certificate nesting bound")
    p.add_argument("--window", type=int, default=default(4),
                   help="tail window for sampled obligations")
    p.add_argument("--seed", type=int, default=default(0),
                   help="seed echoed into the report header")
    p.add_argument("--format", choices=("text", "tsv"), default=default("text"),
                   help="report format (default text)")


# parsing leaves the parser as it was, so one serves every call of main
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="jreal")
    _common_flags(top, top=True)
    sub = top.add_subparsers(dest="family", required=True)

    def leaf(family, name, func, **kw):
        p = family.add_parser(name, **kw)
        _common_flags(p, top=False)
        p.set_defaults(func=func)
        return p

    doc = sub.add_parser("doctrine").add_subparsers(dest="cmd", required=True)
    p = leaf(doc, "laws", _cmd_doctrine_laws)
    p.add_argument("file")
    p = leaf(doc, "lfp", _cmd_doctrine_lfp)
    p.add_argument("file")
    p.add_argument("--set", required=True,
                   help="start set, as {0,2} or an integer bitmask")
    p = leaf(doc, "uniformity", _cmd_doctrine_uniformity)
    p.add_argument("file")

    jc = sub.add_parser("jcert").add_subparsers(dest="cmd", required=True)
    p = leaf(jc, "check", _cmd_jcert_check)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--set", required=True, help="target set expression")
    p.add_argument("--cert", required=True, help="certificate file")

    jd = sub.add_parser("jdec").add_subparsers(dest="cmd", required=True)
    p = leaf(jd, "build", _cmd_jdec_build)
    p.add_argument("expr")
    p.add_argument("-o", "--output", required=True)
    p = leaf(jd, "run", _cmd_jdec_run)
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p = leaf(jd, "table", _cmd_jdec_table)
    p.add_argument("file")
    p.add_argument("--upto", type=int, default=30)

    am = sub.add_parser("asm").add_subparsers(dest="cmd", required=True)
    p = leaf(am, "track", _cmd_asm_track)
    p.add_argument("file")
    p.add_argument("--dst", help="target assembly (defaults to the source)")
    p.add_argument("--map", required=True, help="point map, src:dst pairs")
    p.add_argument("--tracker", required=True, help="tracking code")
    p = leaf(am, "product", _cmd_asm_product)
    p.add_argument("left")
    p.add_argument("right")
    p = leaf(am, "exp", _cmd_asm_exp)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--bound", type=int, default=4096,
                   help="tracker code search bound")
    p = leaf(am, "sub", _cmd_asm_sub)
    p.add_argument("file")
    p.add_argument("--points", required=True, help="comma-separated points")

    rl = sub.add_parser("realize").add_subparsers(dest="cmd", required=True)
    p = leaf(rl, "check", _cmd_realize_check)
    p.add_argument("--formula", required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--asm", help="carrier assembly file (default naturals)")
    p = leaf(rl, "build", _cmd_realize_build)
    p.add_argument("--formula", required=True)
    p = leaf(rl, "corpus", _cmd_realize_corpus)
    p.add_argument("dir")

    sk = sub.add_parser("skolem").add_subparsers(dest="cmd", required=True)
    p = leaf(sk, "extend", _cmd_skolem_extend)
    p.add_argument("--steps", type=int, required=True)
    p = leaf(sk, "sign", _cmd_skolem_sign)
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p = leaf(sk, "eval", _cmd_skolem_eval)
    p.add_argument("--formula", required=True)
    p.add_argument("--args", default="",
                   help="assignment, e.g. 'x=3 | y=mod 1: 0 -> n'")
    p = leaf(sk, "standard", _cmd_skolem_standard)
    p.add_argument("elem")
    p = leaf(sk, "transfer", _cmd_skolem_transfer)
    p.add_argument("--corpus", required=True)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        policy = _try_usage(CheckPolicy, depth=args.depth, window=args.window,
                            fuel=args.fuel)
        report = args.func(args, policy)
    except UsageError as exc:
        print(f"jreal: error: {exc}", file=sys.stderr)
        return 2
    report = replace(report, policy=policy, seed=args.seed)
    sys.stdout.buffer.write(emit_report(report, args.format))
    sys.stdout.buffer.flush()
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
