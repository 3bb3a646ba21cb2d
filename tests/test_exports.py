"""The package's export list matches what its __init__ binds."""

import ast
from pathlib import Path

import anyonjc


def bound_public_names() -> list[str]:
    """Names that anyonjc/__init__.py imports or assigns, minus private ones."""
    tree = ast.parse(Path(anyonjc.__file__).read_text())
    names = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def test_every_export_resolves():
    missing = [name for name in anyonjc.__all__ if not hasattr(anyonjc, name)]
    assert missing == []


def test_all_lists_exactly_the_bound_names():
    assert len(set(anyonjc.__all__)) == len(anyonjc.__all__)
    assert sorted(anyonjc.__all__) == sorted(bound_public_names())
