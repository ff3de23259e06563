"""Checks on the package source itself: no module imports a name it never
uses, or a private name of another module, and the number of defaulted
parameters and of source lines stays where it is pinned."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "jreal"


def unused_imports(text: str) -> list[str]:
    """Names an import binds in the module that no expression reads."""
    tree = ast.parse(text)
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def private_imports(text: str) -> list[str]:
    """``_``-prefixed names imported from another module of the package."""
    return sorted(a.name for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").startswith("jreal"))
                  for a in node.names if a.name.startswith("_"))


def test_the_check_finds_an_unused_import():
    text = "import os\nimport os.path as osp\nfrom x import y, z\nprint(y, osp)\n"
    assert unused_imports(text) == ["os", "z"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_a_private_import():
    text = ("from __future__ import annotations\n"
            "from .certs import _tokenize, tokenize\n"
            "from jreal.prog import _v\nfrom os import _exit\n")
    assert private_imports(text) == ["_tokenize", "_v"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_private_name(path):
    assert private_imports(path.read_text()) == []


# defaults and keyword defaults over every def in src/jreal; a default is an
# option each caller may set, so a change that adds one says so here
DEFAULTED_PARAMS = 8


def defaulted_params(text: str) -> int:
    """Parameters with a default, over every ``def`` in the text."""
    return sum(len(node.args.defaults)
               + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(ast.parse(text))
               if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef))


def _source_texts() -> list[str]:
    return [path.read_text() for path in sorted(SRC.glob("*.py"))]


def test_one_more_default_breaks_the_pin():
    extra = "def f(a, *, b=None):\n    pass\n"
    assert sum(map(defaulted_params, _source_texts() + [extra])) != DEFAULTED_PARAMS


def test_defaulted_parameters_are_pinned():
    assert sum(map(defaulted_params, _source_texts())) == DEFAULTED_PARAMS


# newline characters over every module in src/jreal, as ``cat *.py | wc -l``
# counts them; a change that grows or shrinks the package re-pins this
SOURCE_LINES = 6530


def source_lines(texts: list[str]) -> int:
    return sum(text.count("\n") for text in texts)


def test_one_more_line_breaks_the_pin():
    assert source_lines(_source_texts() + ["x = 1\n"]) != SOURCE_LINES


def test_source_lines_are_pinned():
    assert source_lines(_source_texts()) == SOURCE_LINES
