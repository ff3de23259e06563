"""Command-line front end.

Six subcommand families, one per layer of the package: closure doctrines,
membership certificates, decision trees, assemblies, realizability checks,
and the limit-model pipeline.  Every command prints one deterministic
report (see report.py) and exits 0 on success, 1 on any failed case, and
2 when unknown verdicts outnumber decided ones or the input is unusable.

Input the program cannot use raises ``text.InputError`` wherever it is
found, in a reader or in a check, and ``main`` turns it into one line on
stderr, ``jreal: error: ...``, and exit code 2.  Any other exception is a
defect of the program and propagates.  Every numeral, in a flag or a
positional, is taken as text and read once by ``_nat`` through
``Cursor.nat``, so a bad one is refused like any other input, with its
flag and a position.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
import functools
import pathlib
import sys

from . import skolem
from .assemblies import (Subobject, check_tracking, exponent_finite,
                         morphism_from_table, parse_assembly, product,
                         proj_left, proj_right, subobject_check, TrackReport,
                         TrackStatus)
from .certs import Accepted, CheckPolicy, check_cert, parse_cert
from .deciders import (Verdict, ground_truth, parse_dec, run_decider,
                       show_dec)
from .doctrine import (Doctrine, MonoOp, bits, lfp_by_intersection, lfp_local,
                       lift_caveats, local_laws, parse_doctrine,
                       pitts_f_finite, uniformity_finite)
from .formulas import parse_formula
from .jsets import SET_TOKENS, Finite, parse_jset, read_members, show_jset
from .quasipoly import QuasiPoly, enumerate_qp, show_qp
from .realizes import (Env, Realized, Refuted, Unknown, build_delta0,
                       build_sigma1, jrealizes, nat_env)
from .report import (Case, Report, case_fail, case_pass, case_unknown,
                     emit_report, exit_code)
from .text import Cursor, InputError

EXIT_STATUS = ("exit status: 0 when every case passes, 1 when a case fails, "
               "2 for one of two things: a usage error (stdout empty, stderr "
               "'jreal: error: ...') or unknown verdicts outnumbering decided "
               "ones (a report on stdout)")


def _read(path: str) -> str:
    try:
        return pathlib.Path(path).read_text()
    except OSError as exc:
        raise InputError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None


def _nat(what: str, text: str) -> int:
    """The natural number a text names: one numeral and nothing else."""
    try:
        c = Cursor(SET_TOKENS, text)
        n = c.nat()
        c.done()
    except InputError as exc:
        raise InputError(f"{what}: {exc}") from None
    return n


def _read_closure(path: str) -> tuple[Doctrine, MonoOp, MonoOp]:
    """The doctrine in a file, its map F and the least closed J above F."""
    text = _read(path)
    try:
        d = parse_doctrine(text)
        F = pitts_f_finite(d)
        return d, F, lfp_local(d, F)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _parse_mask(text: str, d: Doctrine) -> int:
    """Either an element list {0,2} or a numeral bitmask."""
    c = Cursor(SET_TOKENS, text)
    if c.peek() == "{":
        members = read_members(c)
        # a member past the carrier is refused before it is shifted
        fits = all(x < d.size for x in members)
        mask = sum(1 << x for x in members) if fits else d.full + 1
    else:
        mask = c.nat()
    c.done()
    if mask > d.full:
        raise InputError(f"set {text.strip()!r} out of range for size {d.size}")
    return mask


def _show_mask(mask: int) -> str:
    return show_jset(Finite(frozenset(bits(mask))))


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
            cases.append(case_pass(name, "holds", f"uniform element {w}"))
        else:
            cases.append(case_fail(name, "fails", "no uniform element"))
    if rep.e4_derived is not None:
        cases.append(case_pass("e4-derived", "holds",
                               f"element {rep.e4_derived} "
                               f"({rep.e4_derivation_note})"))
    else:
        cases.append(case_fail("e4-derived", "fails", rep.e4_derivation_note))
    word = "Local" if rep.operator_is_local else "NotLocal"
    status = case_pass if rep.operator_is_local else case_fail
    cases.append(status("operator", word, "laws e1-e3 pin the closure"))
    return Report(f"doctrine laws {args.file}", tuple(cases), lift_caveats(d))


def _cmd_doctrine_lfp(args, policy: CheckPolicy) -> Report:
    d, F, J = _read_closure(args.file)
    mask = _parse_mask(args.set, d)
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
    return Report(f"doctrine lfp {args.file}", tuple(cases), lift_caveats(d))


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
    return Report(f"doctrine uniformity {args.file}", (c,), lift_caveats(d))


# ---------------------------------------------------------------------------
# jcert


def _cmd_jcert_check(args, policy: CheckPolicy) -> Report:
    target = parse_jset(args.set)
    cert = parse_cert(_read(args.cert))
    x = _nat("--x", args.x)
    res = check_cert(x, target, cert, policy)
    title = f"jcert check {args.cert}"
    if isinstance(res, Accepted):
        c = case_pass("cert", "accepted", f"x={x} lands in {show_jset(target)}")
        return Report(title, (c,), res.caveats)
    return Report(title, (case_fail("cert", "rejected", res.reason),))


# ---------------------------------------------------------------------------
# jdec


_DEC_WORD = {Verdict.IN: "In", Verdict.OUT: "Out", Verdict.UNKNOWN: "Unknown"}


def _dec_case(ident: str, res, truth: bool | None) -> Case:
    word = _DEC_WORD[res.verdict]
    detail = res.note
    if res.verdict is Verdict.UNKNOWN:
        return case_unknown(ident, word, detail)
    if truth is not None:
        agrees = (res.verdict is Verdict.IN) == truth
        if not agrees:
            return case_fail(ident, word,
                             f"disagrees with direct evaluation ({detail})")
    return case_pass(ident, word, detail)


def _cmd_jdec_build(args, policy: CheckPolicy) -> Report:
    tree = parse_dec(args.expr)
    out = pathlib.Path(args.output)
    try:
        out.write_text(show_dec(tree) + "\n")
    except OSError as exc:
        raise InputError(str(exc)) from None
    c = case_pass("build", "Built", f"wrote {args.output}")
    return Report(f"jdec build {args.output}", (c,))


def _cmd_jdec_run(args, policy: CheckPolicy) -> Report:
    tree = parse_dec(_read(args.file))
    n = _nat("--n", args.n)
    res = run_decider(tree, n, policy)
    c = _dec_case(f"n={n}", res, ground_truth(tree, n))
    return Report(f"jdec run {args.file}", (c,), res.caveats)


def _cmd_jdec_table(args, policy: CheckPolicy) -> Report:
    tree = parse_dec(_read(args.file))
    runs = [(n, run_decider(tree, n, policy))
            for n in range(_nat("--upto", args.upto) + 1)]
    cases = tuple(_dec_case(f"n={n}", res, ground_truth(tree, n))
                  for n, res in runs)
    return Report(f"jdec table {args.file}", cases,
                  tuple(cav for _, res in runs for cav in res.caveats))


# ---------------------------------------------------------------------------
# asm


def _read_assembly(path: str) -> "FiniteAssembly":
    text = _read(path)
    try:
        return parse_assembly(text, pathlib.Path(path).stem)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


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
            raise InputError(f"map entry {piece!r} needs the form src:dst")
        a, b = (s.strip() for s in piece.split(":", 1))
        if a in table:
            raise InputError(f"map gives point {a!r} twice")
        table[a] = b
    missing = [p for p in src.points if p not in table]
    if missing:
        raise InputError(f"map misses points {missing}")
    bad = [v for v in table.values() if v not in dst.points]
    if bad:
        raise InputError(f"map hits unknown points {bad}")
    tracker = _nat("--tracker", args.tracker)
    mor = morphism_from_table(src, dst, table, tracker)
    rep = check_tracking(mor, policy)
    return Report(f"asm track {args.file}",
                  (_track_case("tracking", rep),), rep.caveats)


def _cmd_asm_product(args, policy: CheckPolicy) -> Report:
    A = _read_assembly(args.left)
    B = _read_assembly(args.right)
    AB = product(A, B)
    for a in A.points:  # a wedge lists its factors' realizer sets
        for b in B.points:
            AB.realizer_set((a, b))
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
    bound = _nat("--bound", args.bound)
    res = exponent_finite(A, B, bound, policy)
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
                                  f"below {bound}"))
    return Report(f"asm exp {args.left} {args.right}", tuple(cases),
                  res.caveats)


def _cmd_asm_sub(args, policy: CheckPolicy) -> Report:
    base = _read_assembly(args.file)
    keep = {p.strip() for p in args.points.split(",") if p.strip()}
    unknown = keep - set(base.points)
    if unknown:
        raise InputError(f"points not in the assembly: {sorted(unknown)}")
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
    return Report(f"asm sub {args.file}", tuple(cases), rep.caveats)


# ---------------------------------------------------------------------------
# realize


def _realize_env(asm_path: str | None) -> Env:
    if asm_path is None:
        return nat_env()
    return Env(_read_assembly(asm_path))


def _realize_case(ident: str, verdict) -> Case:
    match verdict:
        case Realized(note, _):
            return case_pass(ident, "Realized", note)
        case Refuted(reason):
            return case_fail(ident, "Refuted", reason)
        case Unknown(diag):
            return case_unknown(ident, "Unknown", diag)
    raise AssertionError(verdict)


def _cmd_realize_check(args, policy: CheckPolicy) -> Report:
    phi = parse_formula(args.formula)
    env = _realize_env(args.asm)
    v = jrealizes(_nat("--e", args.e), phi, env, policy)
    caveats = v.caveats if isinstance(v, Realized) else ()
    return Report("realize check", (_realize_case("check", v),), caveats)


def _build_realizer(phi) -> int:
    try:
        return build_delta0(phi)
    except InputError as delta_exc:
        try:
            e = build_sigma1(phi)
        except InputError:
            e = None
        if e is None:
            raise InputError(f"no realizer constructed: {delta_exc}") from None
        return e


def _cmd_realize_build(args, policy: CheckPolicy) -> Report:
    phi = parse_formula(args.formula)
    e = _build_realizer(phi)
    v = jrealizes(e, phi, nat_env(), policy)
    cases = (case_pass("build", "Built", f"e={_big(e)}"),
             _realize_case("selfcheck", v))
    caveats = v.caveats if isinstance(v, Realized) else ()
    return Report("realize build", cases, caveats)


def _read_cases(dirname: str):
    """Each ``.case`` file under dirname in name order, as its path, its
    ``key: value`` fields and its parsed ``formula`` field."""
    root = pathlib.Path(dirname)
    if not root.is_dir():
        raise InputError(f"{dirname} is not a directory")
    files = sorted(root.glob("*.case"))
    if not files:
        raise InputError(f"no .case files under {dirname}")
    for path in files:
        fields: dict[str, str] = {}
        for ln in _read(str(path)).splitlines():
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            if ":" not in ln:
                raise InputError(f"{path.name}: bad line {ln!r}")
            key, val = (s.strip() for s in ln.split(":", 1))
            if key in fields:
                raise InputError(f"{path.name}: field {key!r} given twice")
            fields[key] = val
        if "formula" not in fields:
            raise InputError(f"{path.name}: missing formula")
        yield path, fields, parse_formula(fields["formula"])


def _cmd_realize_corpus(args, policy: CheckPolicy) -> Report:
    cases = []
    caveats: list[str] = []
    for path, fields, phi in _read_cases(args.dir):
        env = _realize_env(str(path.parent / fields["asm"])
                           if "asm" in fields else None)
        e = (_nat(f"{path.name}: e", fields["e"]) if "e" in fields
             else _build_realizer(phi))
        v = jrealizes(e, phi, env, policy)
        expect = fields.get("expect", "realized")
        got = {Realized: "realized", Refuted: "refuted",
               Unknown: "unknown"}[type(v)]
        if isinstance(v, Realized):
            caveats += v.caveats
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
    steps = _nat("--steps", args.steps)
    if steps < 1:
        raise InputError("--steps must be at least 1")
    # each state holds its whole selector prefix, so only two are kept
    final = skolem.initial_chain()
    nested = True
    for _ in range(steps):
        prev, final = final, skolem.extend_chain(final)
        nested = nested and final.live.subset_of(prev.live)
    mono = all(a < b for a, b in zip(final.psi, final.psi[1:]))
    live = final.live
    cases = (
        (case_pass if mono else case_fail)(
            "selector", "Increasing" if mono else "Stalls",
            f"psi {list(final.psi[:6])}{'...' if len(final.psi) > 6 else ''}"),
        (case_pass if nested else case_fail)(
            "chain", "Nested" if nested else "Broken",
            f"{steps} refinement steps"),
        case_pass("live", "Infinite",
                  f"mod {live.modulus} residues "
                  f"{sorted(live.residues)} from {live.threshold}"),
    )
    return Report(f"skolem extend {steps}", cases)


def _cmd_skolem_sign(args, policy: CheckPolicy) -> Report:
    i, j = _nat("i", args.i), _nat("j", args.j)
    state = skolem.Model().ensure(max(i, j) + 1)
    rel = skolem.sign(state, i, j)
    detail = f"{show_qp(enumerate_qp(i))} vs {show_qp(enumerate_qp(j))}"
    return Report(f"skolem sign {i} {j}",
                  (case_pass(f"{i},{j}", rel, detail),))


def _parse_assignment(text: str) -> dict[str, QuasiPoly]:
    # entries separated by |, since the element syntax itself uses , and ;
    asn = {}
    for piece in filter(None, (p.strip() for p in text.split("|"))):
        if "=" not in piece:
            raise InputError(f"assignment entry {piece!r} needs name=value")
        name, val = piece.split("=", 1)
        name = name.strip()
        if name in asn:
            raise InputError(f"assignment gives {name!r} twice")
        asn[name] = skolem.parse_elem(val)
    return asn


def _cmd_skolem_eval(args, policy: CheckPolicy) -> Report:
    phi = parse_formula(args.formula)
    asn = _parse_assignment(args.args) if args.args else {}
    model = skolem.Model()
    val = skolem.truth_qf(model, phi, asn)
    shown = " ".join(f"{n}={skolem.show_elem(e)}" for n, e in sorted(asn.items()))
    return Report("skolem eval",
                  (case_pass("eval", "True" if val else "False",
                             shown or "closed"),))


def _cmd_skolem_standard(args, policy: CheckPolicy) -> Report:
    e = skolem.parse_elem(args.elem)
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
    caveats: list[str] = []
    for path, fields, phi in _read_cases(args.corpus):
        asn = _parse_assignment(fields.get("args", ""))
        rep = skolem.transfer_check(model, phi, asn, policy.window * 6)
        caveats += rep.caveats
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


def _common_flags(p: argparse.ArgumentParser, top: bool) -> None:
    # Only the top parser holds defaults.  A leaf sets a flag only when it
    # is given, so a flag given before the family is not overwritten.
    def default(value):
        return value if top else argparse.SUPPRESS

    p.add_argument("--fuel", default=default("200000"),
                   help="machine step budget per run")
    p.add_argument("--depth", default=default("4"),
                   help="certificate nesting bound")
    p.add_argument("--window", default=default("4"),
                   help="tail window for sampled obligations")
    p.add_argument("--seed", default=default("0"),
                   help="seed echoed into the report header")
    p.add_argument("--format", choices=("text", "tsv"), default=default("text"),
                   help="report format (default text)")


# parsing leaves the parser as it was, so one serves every call of main
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="jreal", epilog=EXIT_STATUS)
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
                   help="start set: {0,2} or a bitmask numeral such as 5")
    p = leaf(doc, "uniformity", _cmd_doctrine_uniformity)
    p.add_argument("file")

    jc = sub.add_parser("jcert").add_subparsers(dest="cmd", required=True)
    p = leaf(jc, "check", _cmd_jcert_check)
    p.add_argument("--x", required=True)
    p.add_argument("--set", required=True,
                   help="target set: {1,2}, cofinite{0}, single 4 or upfrom 7")
    p.add_argument("--cert", required=True, help="certificate file")

    jd = sub.add_parser("jdec").add_subparsers(dest="cmd", required=True)
    p = leaf(jd, "build", _cmd_jdec_build)
    p.add_argument("expr")
    p.add_argument("-o", "--output", required=True)
    p = leaf(jd, "run", _cmd_jdec_run)
    p.add_argument("file")
    p.add_argument("--n", required=True)
    p = leaf(jd, "table", _cmd_jdec_table)
    p.add_argument("file")
    p.add_argument("--upto", default="30")

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
    p.add_argument("--bound", default="4096",
                   help="tracker code search bound")
    p = leaf(am, "sub", _cmd_asm_sub)
    p.add_argument("file")
    p.add_argument("--points", required=True, help="comma-separated points")

    rl = sub.add_parser("realize").add_subparsers(dest="cmd", required=True)
    p = leaf(rl, "check", _cmd_realize_check)
    p.add_argument("--formula", required=True)
    p.add_argument("--e", required=True)
    p.add_argument("--asm", help="carrier assembly file (default naturals)")
    p = leaf(rl, "build", _cmd_realize_build)
    p.add_argument("--formula", required=True)
    p = leaf(rl, "corpus", _cmd_realize_corpus)
    p.add_argument("dir")

    sk = sub.add_parser("skolem").add_subparsers(dest="cmd", required=True)
    p = leaf(sk, "extend", _cmd_skolem_extend)
    p.add_argument("--steps", required=True)
    p = leaf(sk, "sign", _cmd_skolem_sign)
    p.add_argument("i")
    p.add_argument("j")
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
        policy = CheckPolicy(depth=_nat("--depth", args.depth),
                             window=_nat("--window", args.window),
                             fuel=_nat("--fuel", args.fuel))
        seed = _nat("--seed", args.seed)
        report = args.func(args, policy)
    except InputError as exc:
        print(f"jreal: error: {exc}", file=sys.stderr)
        return 2
    report = replace(report, policy=policy, seed=seed)
    sys.stdout.buffer.write(emit_report(report, args.format))
    sys.stdout.buffer.flush()
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
