"""The command-line contract: golden reports, global flags, usage errors.

Every golden case runs once per report format and must reproduce the bytes
under ``tests/golden`` exactly, together with its exit code.  Paths are
relative to the repository root, because report titles echo them.
"""

import argparse
import pathlib
import tracemalloc

import pytest

from jreal import cli, machine, quasipoly, skolem
from jreal.kit import A_CODE
from jreal.report import Report, case_pass, emit_report

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
EXT = {"text": "txt", "tsv": "tsv"}

PAIR = "corpus/asm/pair.asm"
TWO = "corpus/asm/two.asm"

# name -> (argv, exit code)
CASES = {
    "realize-corpus": (["realize", "corpus", "corpus/realize"], 0),
    "realize-check": (["realize", "check", "--formula", "0 = 0", "--e", "2"], 0),
    "asm-product": (["asm", "product", PAIR, TWO], 0),
    "asm-sub": (["asm", "sub", PAIR, "--points", "a,c"], 0),
    "asm-track-identity": (["asm", "track", PAIR, "--map", "a:a,b:b,c:c",
                            "--tracker", str(A_CODE)], 0),
    "asm-track-wrong-point": (["asm", "track", PAIR, "--map", "a:b,b:b,c:c",
                               "--tracker", str(A_CODE)], 1),
    "asm-track-untagged": (["asm", "track", TWO, "--map", "p:p,q:q",
                            "--tracker", "7"], 1),
    "asm-exp": (["asm", "exp", TWO, TWO, "--bound", "1024", "--fuel", "400"], 2),
    "asm-exp-fuel200": (["asm", "exp", TWO, TWO, "--bound", "1024",
                         "--fuel", "200"], 2),
    "asm-exp-none": (["asm", "exp", TWO, PAIR, "--bound", "512",
                      "--fuel", "300"], 2),
    "doctrine-laws-d4": (["doctrine", "laws", "doctrines/d4.doc"], 0),
    "doctrine-laws-d8": (["doctrine", "laws", "doctrines/d8.doc"], 0),
    "doctrine-lfp-d4": (["doctrine", "lfp", "doctrines/d4.doc", "--set", "{1}"], 0),
    "doctrine-lfp-d8": (["doctrine", "lfp", "doctrines/d8.doc", "--set", "5"], 0),
    "doctrine-uniformity-d4": (["doctrine", "uniformity", "doctrines/d4.doc"], 0),
    "doctrine-uniformity-d8": (["doctrine", "uniformity", "doctrines/d8.doc"], 0),
    "skolem-transfer": (["skolem", "transfer", "--corpus", "corpus/transfer"], 0),
    "skolem-extend": (["skolem", "extend", "--steps", "12"], 0),
    "skolem-sign": (["skolem", "sign", "2", "5"], 0),
    "jdec-table": (["jdec", "table", "tests/data/one.dec", "--upto", "3"], 0),
    # a union lifts at every point, and its flatten replays a stage tail
    "jdec-table-union": (["jdec", "table", "tests/data/union.dec",
                          "--upto", "3"], 0),
    "jcert-base": (["jcert", "check", "--x", "8", "--set", "{2}",
                    "--cert", "tests/data/base.cert"], 0),
    "jcert-lift": (["jcert", "check", "--x", "1060671", "--set", "{2}",
                    "--cert", "tests/data/lift.cert"], 0),
    "jcert-rejected": (["jcert", "check", "--x", "2", "--set", "{2}",
                        "--cert", "tests/data/base.cert"], 1),
    "leaf-policy": (["skolem", "sign", "1", "0", "--depth", "3",
                     "--window", "2", "--fuel", "900", "--seed", "5"], 0),
}


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def run(argv, capsysbinary) -> tuple[int, str, str]:
    code = cli.main(argv)
    out, err = capsysbinary.readouterr()
    return code, out.decode(), err.decode()


@pytest.mark.parametrize("fmt", sorted(EXT))
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, fmt, capsysbinary):
    argv, want_code = CASES[name]
    code = cli.main(argv + ["--format", fmt])
    out = capsysbinary.readouterr().out
    assert out == (GOLDEN / f"{name}.{EXT[fmt]}").read_bytes()
    assert code == want_code


@pytest.mark.parametrize("name", [n for n in sorted(CASES) if n.startswith("doctrine-")])
def test_doctrine_reports_say_the_lift_rule_is_unreachable(name, capsysbinary):
    code, out, _ = run(CASES[name][0], capsysbinary)
    assert code == 0
    assert out.splitlines()[-1] == (
        "APPROX lift rule unreachable: pair(1, b) is undefined for every b")


@pytest.mark.parametrize("first", ["cold", "warm"])
@pytest.mark.parametrize("name", ["skolem-extend", "skolem-sign", "skolem-transfer"])
def test_skolem_reports_ignore_the_step_table(name, first, monkeypatch,
                                              capsysbinary):
    # the chain's step table outlives a call; each report runs once on an
    # empty table and once on one walked past every step the report needs
    argv, want_code = CASES[name]
    steps = {}
    monkeypatch.setattr(skolem, "_steps", steps)
    for table in (first, {"cold": "warm", "warm": "cold"}[first]):
        steps.clear()
        if table == "warm":
            skolem.Model().ensure(200)
        code = cli.main(argv)
        assert capsysbinary.readouterr().out == (GOLDEN / f"{name}.txt").read_bytes()
        assert code == want_code
        assert len(steps) == (200 if table == "warm" else
                              {"skolem-extend": 12, "skolem-sign": 6,
                               "skolem-transfer": 120}[name])


@pytest.mark.parametrize("argv", [
    ["--fuel", "7", "realize", "check", "--formula", "0 = 0", "--e", "2"],
    ["--fuel", "7", "skolem", "sign", "2", "5"],
    ["--fuel", "9", "skolem", "sign", "2", "5", "--depth", "3"],
])
def test_global_flags_reach_the_report(argv, capsysbinary):
    _, out, _ = run(argv, capsysbinary)
    policy = out.splitlines()[1]
    assert f"fuel={argv[1]}" in policy.split()
    if "--depth" in argv:
        assert "depth=3" in policy.split()


def test_leaf_flag_overrides_global(capsysbinary):
    _, out, _ = run(["--fuel", "7", "--seed", "3", "skolem", "sign", "2", "5",
                     "--fuel", "11"], capsysbinary)
    assert out.splitlines()[1] == "policy depth=4 window=4 fuel=11 seed=3"


def test_global_format_applies(capsysbinary):
    code, out, _ = run(["--format", "tsv", "skolem", "sign", "2", "5"],
                       capsysbinary)
    assert code == 0
    assert out == (GOLDEN / "skolem-sign.tsv").read_text()


def test_calls_in_a_row_share_no_flags(capsysbinary):
    # one parser serves every call; a flag or an error of one call must
    # not reach the next
    assert cli.build_parser() is cli.build_parser()
    check = ["realize", "check", "--formula", "0 = 0", "--e", "2"]
    _, out, _ = run(["--fuel", "7"] + check, capsysbinary)
    assert "fuel=7" in out.splitlines()[1].split()
    _, plain, _ = run(check, capsysbinary)
    assert "fuel=200000" in plain.splitlines()[1].split()
    _usage_error(["--fuel", "0"] + check, capsysbinary)
    code, _, err = run(check[:-1], capsysbinary)
    assert code == 2 and "--e" in err
    assert run(check, capsysbinary) == (0, plain, "")


def _usage_error(argv, capsysbinary) -> str:
    code, out, err = run(argv, capsysbinary)
    assert code == 2
    assert out == ""
    assert err.startswith("jreal: error:")
    assert "Traceback" not in err
    return err


def test_bad_tracker_code_is_a_usage_error(capsysbinary):
    err = _usage_error(["asm", "track", PAIR, "--map", "a:a,b:b,c:c",
                        "--tracker", "zz"], capsysbinary)
    assert "zz" in err


@pytest.mark.parametrize("where", ["global", "leaf"])
@pytest.mark.parametrize("flag", ["--fuel", "--depth", "--window"])
def test_zero_policy_bound_is_a_usage_error(flag, where, capsysbinary):
    leaf = ["asm", "product", PAIR, TWO]
    argv = [flag, "0"] + leaf if where == "global" else leaf + [flag, "0"]
    err = _usage_error(argv, capsysbinary)
    assert "at least 1" in err


# the bottom-stage pairing misses pair(0, 1), which the closure needs
PARTIAL_DOCTRINE = b"doctrine 2\napp 0 0 = 0\npair 0 0 = 0\n"
# realizer sets of infinite shape, which a product's wedge cannot list
WIDE_ASM = b"point p realizers upfrom 3\npoint q realizers cofinite{1}\n"
# one point, so the lift rule's tag 1 lies outside the carrier
ONE_POINT_DOCTRINE = b"doctrine 1\napp 0 0 = 0\npair 0 0 = 0\n"
# a carrier above doctrine.MAX_SIZE, where the laws would run for hours
OVERSIZE_DOCTRINE = b"doctrine 11\napp 0 0 = 0\npair 0 0 = 0\n"
# one cell given twice, which used to keep its last value
TWICE_DOCTRINE = (b"doctrine 2\napp 0 0 = 0\napp 0 0 = 1\n"
                  b"pair 0 0 = 0\npair 0 1 = 1\n")

# every numeral flag and positional, "N" standing for its numeral
NUMERAL_ARGV = {
    **{flag: ["skolem", "sign", "1", "2", flag, "N"]
       for flag in ("--fuel", "--depth", "--window", "--seed")},
    "--x": ["jcert", "check", "--x", "N", "--set", "{2}",
            "--cert", "tests/data/base.cert"],
    "--n": ["jdec", "run", "tests/data/one.dec", "--n", "N"],
    "--upto": ["jdec", "table", "tests/data/one.dec", "--upto", "N"],
    "--bound": ["asm", "exp", TWO, TWO, "--bound", "N"],
    "--e": ["realize", "check", "--formula", "0 = 0", "--e", "N"],
    "--steps": ["skolem", "extend", "--steps", "N"],
    "i": ["skolem", "sign", "N", "2"],
    "j": ["skolem", "sign", "1", "N"],
}
# numerals that int() reads, or that are past its digit limit: the one
# numeral rule takes ASCII digits only, with no sign, underscore or prefix
BAD_NUMERALS = {"underscore": "1_0", "plus": "+2", "minus": "-1",
                "hex": "0x10", "arabic-digit": "\u0663", "long": "1" * 4301}

# name -> (argv, files written under a temporary directory); "{tmp}" in an
# argument stands for that directory
BAD_INPUTS = {
    "tracker": (["asm", "track", TWO, "--map", "p:p,q:q",
                 "--tracker", "-3"], {}),
    "jdec-n": (["jdec", "run", "tests/data/one.dec", "--n", "-1"], {}),
    "jdec-upto": (["jdec", "table", "tests/data/one.dec", "--upto", "-2"], {}),
    "realize-e": (["realize", "check", "--formula", "0 = 0", "--e", "-4"], {}),
    "asm-bound": (["asm", "exp", TWO, TWO, "--bound", "-5"], {}),
    "jcert-x": (["jcert", "check", "--x", "-5", "--set", "{2}",
                 "--cert", "tests/data/base.cert"], {}),
    "skolem-modulus": (["skolem", "standard", "mod 0:"], {}),
    # refused before anything the size of the modulus or the power is built
    "skolem-modulus-above-rows": (["skolem", "standard", "mod 1000000: 0 -> 1"],
                                  {}),
    "skolem-power": (["skolem", "standard", "mod 1: 0 -> n^4000000"], {}),
    "corpus-e-text": (["realize", "corpus", "{tmp}"],
                      {"a.case": b"formula: 0 = 0\ne: zz\n"}),
    "corpus-e-negative": (["realize", "corpus", "{tmp}"],
                          {"a.case": b"formula: 0 = 0\ne: -7\n"}),
    "corpus-undecodable": (["realize", "corpus", "{tmp}"],
                           {"a.case": b"formula: 0 = 0\n\xff\xfe\n"}),
    "jdec-undecodable": (["jdec", "run", "{tmp}/t.dec", "--n", "1"],
                         {"t.dec": b"one \xff"}),
    "doctrine-laws-partial": (["doctrine", "laws", "{tmp}/p.doc"],
                              {"p.doc": PARTIAL_DOCTRINE}),
    "doctrine-uniformity-partial": (["doctrine", "uniformity", "{tmp}/p.doc"],
                                    {"p.doc": PARTIAL_DOCTRINE}),
    "doctrine-laws-oversize": (["doctrine", "laws", "{tmp}/big.doc"],
                               {"big.doc": OVERSIZE_DOCTRINE}),
    "build-false": (["realize", "build", "--formula", "0 = 1"], {}),
    "build-unbounded": (["realize", "build", "--formula", "forall x. x = x"],
                        {}),
    "corpus-no-realizer": (["realize", "corpus", "{tmp}"],
                           {"a.case": b"formula: forall x. x = x\n"}),
    "asm-product-wide": (["asm", "product", TWO, "{tmp}/w.asm"],
                         {"w.asm": WIDE_ASM}),
    # nesting past each parser's MAX_DEPTH, which used to end in RecursionError
    "deep-parens": (["realize", "check", "--formula",
                     "(" * 400 + "0 = 0" + ")" * 400, "--e", "0"], {}),
    "deep-conjunction": (["realize", "build", "--formula",
                          " /\\ ".join(["0 = 0"] * 3000)], {}),
    "deep-tree": (["jdec", "run", "{tmp}/t.dec", "--n", "1"],
                  {"t.dec": b"not " * 2000 + b"one 1\n"}),
    "deep-cert": (["jcert", "check", "--x", "0", "--set", "{0}",
                   "--cert", "{tmp}/c.cert"],
                  {"c.cert": b"(lift 0 (0 " * 2000 + b"(base 0)"
                   + b"))" * 2000 + b"\n"}),
    "negative-member": (["asm", "sub", "{tmp}/n.asm", "--points", "a"],
                        {"n.asm": b"point a realizers {-1}\n"}),
    # a digit outside ASCII, which str.isdigit takes and int() refuses
    "skolem-superscript": (["skolem", "standard", "\u00b2"], {}),
    "jcert-superscript": (["jcert", "check", "--x", "0", "--set", "single \u00b2",
                           "--cert", "tests/data/base.cert"], {}),
    # numerals that int() reads and the one numeral rule does not: ASCII
    # digits only, with no sign, underscore or base prefix
    **{f"jset-{name}": (["jcert", "check", "--x", "8", "--set", spec,
                         "--cert", "tests/data/base.cert"], {})
       for name, spec in [("underscore", "{1_0}"), ("plus", "{+3}"),
                          ("arabic-digit", "{\u0663}"),
                          ("cofinite-underscore", "cofinite{ 1_2 }")]},
    "doctrine-header-word": (["doctrine", "laws", "{tmp}/h.doc"],
                             {"h.doc": b"doctrinex 1\napp 0 0 = 0\npair 0 0 = 0\n"}),
    "doctrine-header-junk": (["doctrine", "laws", "{tmp}/h.doc"],
                             {"h.doc": b"doctrine 1 junk\napp 0 0 = 0\npair 0 0 = 0\n"}),
    "asm-label-colon": (["asm", "product", "{tmp}/l.asm", "{tmp}/l.asm"],
                        {"l.asm": b"point a:b realizers {1}\n"}),
    "asm-label-comma": (["asm", "product", "{tmp}/l.asm", "{tmp}/l.asm"],
                        {"l.asm": b"point a,b realizers {1}\n"}),
    "lfp-empty-member": (["doctrine", "lfp", "doctrines/d4.doc", "--set", "{1,,2}"],
                         {}),
    "lfp-binary-mask": (["doctrine", "lfp", "doctrines/d4.doc", "--set", "0b11"], {}),
    "tracker-hex": (["asm", "track", TWO, "--map", "p:p,q:q", "--tracker", "0x10"],
                    {}),
    "doctrine-cell-twice": (["doctrine", "laws", "{tmp}/t.doc"],
                            {"t.doc": TWICE_DOCTRINE}),
    # a key given twice, whose last value used to win
    "asm-map-twice": (["asm", "track", TWO, "--map", "p:q,p:p,q:q",
                       "--tracker", str(A_CODE)], {}),
    "eval-args-twice": (["skolem", "eval", "--formula", "x = 1",
                         "--args", "x=1 | x=2"], {}),
    "corpus-formula-twice": (["realize", "corpus", "{tmp}"],
                             {"a.case": b"formula: 0 = 1\nformula: 0 = 0\n"}),
    **{f"numeral-{flag.lstrip('-')}-{name}":
       ([text if a == "N" else a for a in argv], {})
       for flag, argv in NUMERAL_ARGV.items()
       for name, text in BAD_NUMERALS.items()},
}


def _in_tmp(argv, files, tmp_path) -> list[str]:
    for fname, data in files.items():
        (tmp_path / fname).write_bytes(data)
    return [a.replace("{tmp}", str(tmp_path)) for a in argv]


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_is_a_usage_error(name, tmp_path, capsysbinary):
    argv, files = BAD_INPUTS[name]
    _usage_error(_in_tmp(argv, files, tmp_path), capsysbinary)


def test_product_error_names_the_point(tmp_path, capsysbinary):
    argv, files = BAD_INPUTS["asm-product-wide"]
    err = _usage_error(_in_tmp(argv, files, tmp_path), capsysbinary)
    assert "('p', 'p')" in err and "upfrom 3" in err


def test_oversize_doctrine_names_its_size(tmp_path, capsysbinary):
    argv, files = BAD_INPUTS["doctrine-laws-oversize"]
    err = _usage_error(_in_tmp(argv, files, tmp_path), capsysbinary)
    assert "carrier size 11 out of range" in err


def test_no_argument_has_an_argparse_type():
    # every numeral stays text until cli._nat reads it, so argparse refuses
    # none of them with its own usage block
    def actions(parser):
        for action in parser._actions:
            yield action
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from actions(sub)

    found = list(actions(cli.build_parser()))
    assert {"fuel", "x", "n", "upto", "bound", "e", "steps", "i", "j"} <= {
        a.dest for a in found}
    assert [a.dest for a in found if a.type is not None] == []


@pytest.mark.parametrize("flag", sorted(NUMERAL_ARGV))
def test_bad_numeral_names_its_flag_and_position(flag, capsysbinary):
    argv = ["+2" if a == "N" else a for a in NUMERAL_ARGV[flag]]
    err = _usage_error(argv, capsysbinary)
    assert err == f"jreal: error: {flag}: unexpected character '+' at position 0\n"


PINNED_ERRORS = {
    "i: unexpected '_0' at position 1": ["skolem", "sign", "1_0", "+2"],
    "--seed: unexpected character '-' at position 0":
        ["skolem", "sign", "1", "2", "--seed", "-3"],
    "numeral of 5000 digits is too long at position 0":
        ["skolem", "standard", "1" * 5000],
}


@pytest.mark.parametrize("message", sorted(PINNED_ERRORS))
def test_bad_numeral_message(message, capsysbinary):
    err = _usage_error(PINNED_ERRORS[message], capsysbinary)
    assert err == f"jreal: error: {message}\n"


def test_doctrine_cell_given_twice_is_refused(tmp_path, capsysbinary):
    argv, files = BAD_INPUTS["doctrine-cell-twice"]
    err = _usage_error(_in_tmp(argv, files, tmp_path), capsysbinary)
    assert err.endswith("t.doc: app cell (0,0) given twice at position 23\n")


REPEATED_KEYS = {"asm-map-twice": "map gives point 'p' twice",
                 "eval-args-twice": "assignment gives 'x' twice",
                 "corpus-formula-twice": "a.case: field 'formula' given twice"}


@pytest.mark.parametrize("name", sorted(REPEATED_KEYS))
def test_a_key_given_twice_is_named(name, tmp_path, capsysbinary):
    argv, files = BAD_INPUTS[name]
    err = _usage_error(_in_tmp(argv, files, tmp_path), capsysbinary)
    assert err == f"jreal: error: {REPEATED_KEYS[name]}\n"


def test_only_input_errors_become_usage_errors(monkeypatch):
    # any other exception is a defect of the program, so it propagates
    def defect(*args):
        raise ValueError("a defect")

    monkeypatch.setattr(cli.skolem, "truth_qf", defect)
    with pytest.raises(ValueError, match="a defect"):
        cli.main(["skolem", "eval", "--formula", "0 = 0"])


def test_help_says_what_exit_2_means(capsysbinary):
    code, out, err = run(["--help"], capsysbinary)
    assert (code, err) == (0, "")
    text = " ".join(out.split())
    assert ("2 for one of two things: a usage error (stdout empty, stderr "
            "'jreal: error: ...') or unknown verdicts outnumbering decided "
            "ones (a report on stdout)") in text


@pytest.mark.parametrize("name", ["skolem-superscript", "jcert-superscript"])
def test_non_ascii_digit_gets_the_readers_message(name, capsysbinary):
    err = _usage_error(BAD_INPUTS[name][0], capsysbinary)
    assert "\u00b2" in err and "int()" not in err


# a branch that evaluation never reaches raises nothing, whatever it holds
LAZY_EVAL = {
    "0 = 1 /\\ forall z. z = z": "case eval False closed",
    "0 = 0 /\\ forall z. z = z": "quantifier-free formulas only",
    "0 = 1 /\\ P(x)": "case eval False closed",
    "0 = 0 /\\ P(x)": "relation P has no interpretation",
    "0 = 1 /\\ x = 0": "case eval False closed",
    "x = 0": "unassigned variable x",
}


@pytest.mark.parametrize("formula", sorted(LAZY_EVAL))
def test_skolem_eval_raises_only_where_it_reads(formula, capsysbinary):
    argv, want = ["skolem", "eval", "--formula", formula], LAZY_EVAL[formula]
    if want.startswith("case"):
        code, out, err = run(argv, capsysbinary)
        assert (code, err) == (0, "") and want in out.splitlines()
    else:
        assert want in _usage_error(argv, capsysbinary)


def test_huge_set_member_allocates_nothing(capsysbinary):
    # a member past the carrier is refused before 1 << member is built
    tracemalloc.start()
    try:
        err = _usage_error(["doctrine", "lfp", "doctrines/d4.doc",
                            "--set", "{100000000}"], capsysbinary)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "out of range for size 4" in err
    assert peak < 1 << 20


def test_skolem_extend_keeps_two_chain_states(capsysbinary):
    # state k holds a selector prefix of k + 1 entries, so keeping all N
    # states holds N (N + 1) / 2 tuple slots, 4 MB of pointers at N = 1,000
    # (10.6 MB peak measured); two states and the final prefix take about
    # a quarter of that
    steps = 1_000
    tracemalloc.start()
    try:
        code, out, _ = run(["skolem", "extend", "--steps", str(steps)],
                           capsysbinary)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "Nested" in out and "Increasing" in out
    assert peak < steps * (steps + 1) // 2 * 8


def test_skolem_step_table_grows_linearly(monkeypatch, capsysbinary):
    # one live set per step stays behind; whole states would keep the
    # N (N + 1) / 2 selector slots above, 4 MB of pointers at N = 1,000
    # (about 0.63 MB kept measured)
    steps = 1_000
    monkeypatch.setattr(skolem, "_steps", {})
    quasipoly.enumerate_qp(steps + 1)
    tracemalloc.start()
    try:
        code, _, _ = run(["skolem", "extend", "--steps", str(steps)],
                         capsysbinary)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert code == 0 and len(skolem._steps) == steps
    assert kept < steps * 1024


def test_oversize_element_error_is_short(capsysbinary):
    err = _usage_error(BAD_INPUTS["skolem-modulus-above-rows"][0], capsysbinary)
    assert "999999 of 1000000 residues, the first 1" in err
    assert len(err) < 120


WIDE = {"w.asm": WIDE_ASM}
HUGE = "9" * 3000
ONE = {"one.doc": ONE_POINT_DOCTRINE}
EMPTY_UNION = {"u.dec": b"union\n"}

# valid inputs at the edges of each family: infinite realizer shapes, a
# one-point doctrine and an empty union
SWEEP = {
    "asm-track": (["asm", "track", "{tmp}/w.asm", "--map", "p:p,q:q",
                   "--tracker", str(A_CODE)], WIDE),
    "asm-product": (["asm", "product", "{tmp}/w.asm", "{tmp}/w.asm"], WIDE),
    "asm-exp": (["asm", "exp", "{tmp}/w.asm", "{tmp}/w.asm", "--bound", "16",
                 "--fuel", "300"], WIDE),
    "asm-sub": (["asm", "sub", "{tmp}/w.asm", "--points", "p"], WIDE),
    "realize-all": (["realize", "check", "--asm", "{tmp}/w.asm", "--formula",
                     "forall x. x = x", "--e", "99071"], WIDE),
    "realize-imp": (["realize", "check", "--asm", "{tmp}/w.asm", "--formula",
                     "0 = 0 -> 0 = 0", "--e", "99071"], WIDE),
    "doctrine-laws": (["doctrine", "laws", "{tmp}/one.doc"], ONE),
    "doctrine-lfp": (["doctrine", "lfp", "{tmp}/one.doc", "--set", "1"], ONE),
    "doctrine-uniformity": (["doctrine", "uniformity", "{tmp}/one.doc"], ONE),
    "jdec-run": (["jdec", "run", "{tmp}/u.dec", "--n", "3"], EMPTY_UNION),
    "jdec-table": (["jdec", "table", "{tmp}/u.dec", "--upto", "2"],
                   EMPTY_UNION),
    # a product past 4,300 digits, which the Refuted note must still print
    "realize-huge-product": (["realize", "check", "--formula",
                              f"{HUGE} * {HUGE} = 0", "--e", "0"], {}),
    # a set whose text is not one line, which the report must not echo
    "jcert-set-newline": (["jcert", "check", "--x", "8", "--set", "{2\n}",
                           "--cert", "tests/data/base.cert"], {}),
}


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_edge_inputs_report_or_fail_cleanly(name, tmp_path, capsysbinary):
    # an uncaught exception fails the test; otherwise the run either prints
    # a report (exit 0, 1, or 2 when unknowns outnumber decided cases) or a
    # usage error (exit 2)
    argv, files = SWEEP[name]
    code, out, err = run(_in_tmp(argv, files, tmp_path), capsysbinary)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if out:
        assert err == "" and "\ncounts " in out
    else:
        assert code == 2 and err.startswith("jreal: error:")


def test_huge_value_is_printed_by_its_size(capsysbinary):
    code, out, err = run(SWEEP["realize-huge-product"][0], capsysbinary)
    assert (code, err) == (1, "")
    assert ("case check Refuted interpretation fails: <19932-bit number> = 0"
            in out.splitlines())


# one infinite realizer set, which every asm command checks on a sample
UPFROM = {"s.asm": b"point a realizers upfrom 3\npoint b realizers {2}\n",
          "u.asm": b"point a realizers upfrom 3\n",
          "p.asm": b"point p realizers upfrom 0\n"}
SAMPLED_SETS = {
    "track": ["asm", "track", "{tmp}/s.asm", "--map", "a:a,b:b",
              "--tracker", str(A_CODE)],
    "sub": ["asm", "sub", "{tmp}/s.asm", "--points", "a"],
    "exp": ["asm", "exp", "{tmp}/u.asm", "{tmp}/p.asm", "--bound", "64"],
}


@pytest.mark.parametrize("name", sorted(SAMPLED_SETS))
def test_sampled_realizer_sets_are_labelled(name, tmp_path, capsysbinary):
    code, out, err = run(_in_tmp(SAMPLED_SETS[name], UPFROM, tmp_path),
                         capsysbinary)
    assert (code, err) == (0, "")
    assert ([ln for ln in out.splitlines() if ln.startswith("APPROX")]
            == ["APPROX realizer sets sampled"])


def _approx(out: str) -> list[str]:
    return [ln for ln in out.splitlines() if ln.startswith("APPROX")]


# s.asm's carrier is checked in full; only point a's realizers are sampled
@pytest.mark.parametrize("name, checked", [("track", 17), ("sub", 16)])
def test_scope_note_says_what_was_sampled(name, checked, tmp_path,
                                          capsysbinary):
    _, out, _ = run(_in_tmp(SAMPLED_SETS[name], UPFROM, tmp_path), capsysbinary)
    assert (f"case tracking Verified checked {checked}; full carrier"
            in out.splitlines())


LIFT = "APPROX lift obligations checked on a finite window only"


def test_output_landing_by_a_lift_prints_the_lift_caveat(tmp_path,
                                                          capsysbinary):
    # the tracker is λr.<1, K<0,r>>: each output is 1-tagged, so it can only
    # land by the lift rule
    argv = ["asm", "track", "{tmp}/l.asm", "--map", "a:a,b:b", "--tracker",
            "689028913761567743885340915298517368550294808555240012479989353489"]
    files = {"l.asm": b"point a realizers {1}\npoint b realizers {2}\n"}
    code, out, err = run(_in_tmp(argv, files, tmp_path), capsysbinary)
    assert (code, err) == (0, "")
    assert "case tracking Verified checked 2; full carrier" in out.splitlines()
    assert _approx(out) == [LIFT]


# a union's answer is certified through a lift at every point; the table
# prints the caveat its four verdicts share once
@pytest.mark.parametrize("argv", [["jdec", "run", "{tmp}/u.dec", "--n", "2"],
                                  ["jdec", "table", "{tmp}/u.dec", "--upto", "3"]],
                         ids=["run", "table"])
def test_jdec_verdicts_resting_on_a_lift_say_so(argv, tmp_path, capsysbinary):
    files = {"u.dec": b"union (one 2) (not one 5)\n"}
    code, out, err = run(_in_tmp(argv, files, tmp_path), capsysbinary)
    assert (code, err) == (0, "")
    assert _approx(out) == [LIFT]


def test_a_lifted_jdec_run_reuses_remembered_subruns(monkeypatch,
                                                    capsysbinary):
    # the flatten mirror replays the stage tail at each window point, and
    # the machine answers its unquotes from the ones the decider ran; the
    # steps charged are those of running them all (101,890 in 9 runs)
    argv = ["jdec", "run", "tests/data/union.dec", "--n", "2"]
    assert run(argv, capsysbinary)[0] == 0  # builds what is cached for good
    machine.apply_cached.cache_clear()
    machine._subruns.clear()
    charged = []
    evaluate = machine.Machine.eval

    def counted(self, t):
        try:
            return evaluate(self, t)
        finally:
            charged.append(self.steps)

    monkeypatch.setattr(machine.Machine, "eval", counted)
    hits = machine.SUBRUN_HITS
    assert run(argv, capsysbinary)[0] == 0
    assert (sum(charged), len(charged)) == (101_890, 9)
    assert machine.SUBRUN_HITS > hits


# the unit tracker's run takes 10 steps on each realizer, so the second
# call must fail where the first passes; then the CI's asm exp, at a fuel
# that ends some of its runs and at one that ends more
FUEL_SEQUENCE = [
    ["asm", "track", TWO, "--map", "p:p,q:q", "--tracker", str(A_CODE),
     "--fuel", "10"],
    ["asm", "track", TWO, "--map", "p:p,q:q", "--tracker", str(A_CODE),
     "--fuel", "9"],
    ["asm", "exp", TWO, TWO, "--bound", "1024", "--fuel", "400"],
    ["asm", "exp", TWO, TWO, "--bound", "1024", "--fuel", "200"],
]


def test_no_verdict_leaks_across_fuels_in_a_warm_process(capsysbinary):
    # a run remembered at one fuel answers every later one, at any fuel:
    # each report must be the one a fresh process prints
    def cold(argv):
        machine.apply_cached.cache_clear()
        machine._subruns.clear()
        return run(argv, capsysbinary)

    want = [cold(argv) for argv in FUEL_SEQUENCE]
    assert "Verified" in want[0][1] and "Verified" not in want[1][1]
    machine.apply_cached.cache_clear()
    machine._subruns.clear()
    hits = machine.SUBRUN_HITS
    assert [run(argv, capsysbinary) for argv in FUEL_SEQUENCE] == want
    assert machine.SUBRUN_HITS > hits


# e = <evidence, prefix> for `exists x. x = x` on one point with realizers
# {3}: <1, K<0,3>> lands there only by the lift rule, and <0,3> by the base
@pytest.mark.parametrize("e", ["27492852863", "153119018646"],
                         ids=["evidence", "prefix"])
def test_a_realizer_landing_by_a_lift_prints_the_lift_caveat(e, tmp_path,
                                                             capsysbinary):
    argv = ["realize", "check", "--formula", "exists x. x = x", "--e", e,
            "--asm", "{tmp}/a.asm"]
    files = {"a.asm": b"point a realizers {3}\n"}
    code, out, err = run(_in_tmp(argv, files, tmp_path), capsysbinary)
    assert (code, err) == (0, "")
    assert "case check Realized prefix certified" in out.splitlines()
    assert _approx(out) == [LIFT]


def test_a_caveat_two_conjuncts_rest_on_is_printed_once(capsysbinary):
    code, out, err = run(["realize", "check", "--formula",
                          "(0 = 1 -> 0 = 0) /\\ (0 = 1 -> 0 = 0)",
                          "--e", "3539859374853"], capsysbinary)
    assert (code, err) == (0, "")
    assert "case check Realized implication map lands for 0 realizers" in out
    assert _approx(out) == ["APPROX antecedent realizers sampled below 64"]


def test_report_prints_each_caveat_once_in_first_seen_order():
    rep = Report("t", (case_pass("c", "ok", ""),), ("b", "a", "b", "a"))
    assert _approx(emit_report(rep).decode()) == ["APPROX b", "APPROX a"]
