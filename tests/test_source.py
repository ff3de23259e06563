"""Checks on the package source itself: no module imports a name it never uses."""

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


def test_the_check_finds_an_unused_import():
    text = "import os\nimport os.path as osp\nfrom x import y, z\nprint(y, osp)\n"
    assert unused_imports(text) == ["os", "z"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
