"""Every layer function the benchmark traces exists in its ``jreal`` module.

``perfbench/spans.py`` wraps the functions named in its ``LAYERS`` table
when a run is traced.  A name that no longer resolves breaks only traced
runs, so this test loads that table (without writing anything under
``perfbench/``) and resolves each name, ``Class.method`` included.  A
wrapper sees only calls made through a module binding, so the machine must
keep unquoting through ``decode_term_cached``.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

from jreal import machine
from jreal.terms import App, Num, S, K, ap, encode_term

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layers(monkeypatch) -> dict[str, tuple[str, ...]]:
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


def _resolves(layer: str, name: str) -> bool:
    home = importlib.import_module(f"jreal.{layer}")
    if "." in name:
        cls_name, meth = name.split(".")
        return meth in vars(getattr(home, cls_name, object))
    return callable(getattr(home, name, None))


def test_every_traced_name_resolves(monkeypatch):
    layers = _layers(monkeypatch)
    assert "Machine.eval" in layers["machine"] and "local_laws" in layers["doctrine"]
    missing = [f"{layer}:{name}" for layer, names in layers.items()
               for name in names if not _resolves(layer, name)]
    assert missing == []


@pytest.mark.parametrize("name", ["Table.arrow", "Doctrine.no_such_method",
                                  "no_such_function", "MAX_SIZE"])
def test_a_missing_name_is_noticed(name):
    assert not _resolves("doctrine", name)


def test_the_machine_unquotes_through_its_module_binding(monkeypatch):
    calls = []
    decode = machine.decode_term_cached

    def counted(code):
        calls.append(code)
        return decode(code)

    monkeypatch.setattr(machine, "decode_term_cached", counted)
    skk = encode_term(ap(S, K, K))
    assert machine.eval_term(App(Num(skk), Num(4)), 10) == (Num(4), 3)
    assert calls == [skk]
