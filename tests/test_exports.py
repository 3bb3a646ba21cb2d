"""The package's export list matches what its __init__ binds, and
importing it stays light."""

import ast
import os
import subprocess
import sys
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


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg took most of the package's import time; nothing needs it
    code = "import sys, anyonjc, anyonjc.cli; print('scipy.linalg' in sys.modules)"
    src = str(Path(anyonjc.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert out.stdout.strip() == "False"
