"""Every layer function the benchmark traces exists in its ``jreal`` module.

``perfbench/spans.py`` wraps the functions named in its ``LAYERS`` table
when a run is traced.  A name that no longer resolves breaks only traced
runs, so this test loads that table (without writing anything under
``perfbench/``) and resolves each name, ``Class.method`` included.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

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
