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
