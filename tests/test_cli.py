"""The command-line contract: golden reports, global flags, usage errors.

Every golden case runs once per report format and must reproduce the bytes
under ``tests/golden`` exactly, together with its exit code.  Paths are
relative to the repository root, because report titles echo them.
"""

import pathlib

import pytest

from jreal import cli
from jreal.kit import A_CODE

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
    "build-false": (["realize", "build", "--formula", "0 = 1"], {}),
    "build-unbounded": (["realize", "build", "--formula", "forall x. x = x"],
                        {}),
    "corpus-no-realizer": (["realize", "corpus", "{tmp}"],
                           {"a.case": b"formula: forall x. x = x\n"}),
    "asm-product-wide": (["asm", "product", TWO, "{tmp}/w.asm"],
                         {"w.asm": WIDE_ASM}),
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


WIDE = {"w.asm": WIDE_ASM}
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
