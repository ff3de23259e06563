"""The shipped doctrines and corpora are what their generators write.

The golden reports and the benchmark read these files, so a hand edit or a
change to a generator's tables must show up here.
"""

import importlib.util
import pathlib

import pytest

from jreal.doctrine import show_doctrine, shipped_d4, shipped_d8

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _gen_corpora():
    spec = importlib.util.spec_from_file_location(
        "gen_corpora", ROOT / "scripts" / "gen_corpora.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


GEN = _gen_corpora()


@pytest.mark.parametrize("name, build", [("d4", shipped_d4), ("d8", shipped_d8)])
def test_shipped_doctrine_matches_generator(name, build):
    path = ROOT / "doctrines" / f"{name}.doc"
    assert path.read_text() == show_doctrine(build())


@pytest.mark.parametrize("dirname, cases", [
    ("realize", GEN.REALIZE_CASES), ("transfer", GEN.TRANSFER_CASES)])
def test_shipped_corpus_matches_generator(dirname, cases):
    root = ROOT / "corpus" / dirname
    assert sorted(p.stem for p in root.iterdir()) == sorted(cases)
    for name, body in cases.items():
        assert (root / f"{name}.case").read_text() == body


def test_shipped_assemblies_match_generator():
    root = ROOT / "corpus" / "asm"
    assert sorted(p.name for p in root.iterdir()) == ["pair.asm", "two.asm"]
    assert (root / "pair.asm").read_text() == GEN.PAIR_ASM
    assert (root / "two.asm").read_text() == GEN.TWO_ASM
