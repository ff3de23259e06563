"""Checks on the package source itself: no module imports a name it never
uses, or a private name of another module."""

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
