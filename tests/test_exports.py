"""The package's export list matches what its __init__ binds, it runs
without scipy, the numerical routes do not import the closed forms,
every export and every exception class has a reader, and no process-wide
cache is unbounded in its arguments."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import anyonjc
from anyonjc import errors

ROOT = Path(__file__).resolve().parent.parent


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


def test_berry_imports_nothing_from_model():
    # the holonomy and adiabatic routes must stay independent of the
    # closed forms they are checked against
    tree = ast.parse((Path(anyonjc.__file__).parent / "berry.py").read_text())
    imported = []  # dotted names: "fock.SPIN_UP" for "from .fock import SPIN_UP"
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert [name for name in imported if "model" in name.split(".")] == []


def test_every_exception_class_has_a_reader():
    # a class earns its place by being caught by name in the package, by
    # being counted by the benchmark, or by the README's exit-code table;
    # input errors that nobody tells apart are plain ValueError
    classes = [
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type)
        and issubclass(obj, Exception)
        and not issubclass(obj, Warning)
        and obj.__module__ == errors.__name__
    ]
    caught = set()
    for path in (ROOT / "src" / "anyonjc").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= set(re.findall(r"\w+", ast.unparse(node.type)))
    for path in (ROOT / "perfbench").glob("*.py"):  # GUARDS names them as strings
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                caught.add(node.id)
            elif isinstance(node, ast.Attribute):
                caught.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                caught.add(node.value)
    caught |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    assert "SimulationError" in classes
    assert [name for name in classes if name not in caught] == []


def test_every_export_has_a_reader():
    # an export earns its place by being read in the package or by the
    # benchmark, not only by tests; a closed form of the model is exempt,
    # since it is the reference the routes are checked against
    closed_forms = {"entropy_vs_detuning"}
    paths = [p for p in (ROOT / "src" / "anyonjc").glob("*.py") if p.name != "__init__.py"]
    read = set()
    for path in paths + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert [name for name in anyonjc.__all__ if name not in read | closed_forms] == []
    assert {getattr(anyonjc, name).__module__ for name in closed_forms} == {"anyonjc.model"}


def is_unbounded_cache(decorator) -> bool:
    """functools.cache, or lru_cache with maxsize None, however imported."""
    if isinstance(decorator, ast.Call):
        sizes = decorator.args[:1] + [k.value for k in decorator.keywords if k.arg == "maxsize"]
        return ast.unparse(decorator.func).split(".")[-1] == "lru_cache" and any(
            isinstance(size, ast.Constant) and size.value is None for size in sizes
        )
    return ast.unparse(decorator).split(".")[-1] == "cache"


def test_unbounded_caches_take_no_arguments():
    # such a cache keeps one entry per distinct argument for the life of
    # the process; a builder without parameters keeps one in all
    cached, with_parameters = [], []
    for path in sorted((ROOT / "src" / "anyonjc").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                map(is_unbounded_cache, node.decorator_list)
            ):
                cached.append(f"{path.stem}.{node.name}")
                args = node.args
                if args.posonlyargs or args.args or args.vararg or args.kwonlyargs or args.kwarg:
                    with_parameters.append(cached[-1])
    assert "cli._parser" in cached
    assert with_parameters == []


def test_cache_detector_reads_every_spelling():
    spellings = {
        "functools.cache": True,
        "cache": True,
        "functools.lru_cache(maxsize=None)": True,
        "lru_cache(None)": True,
        "functools.lru_cache": False,
        "functools.lru_cache()": False,
        "functools.lru_cache(maxsize=32)": False,
        "functools.cached_property": False,
    }
    read = {text: is_unbounded_cache(ast.parse(text, mode="eval").body) for text in spellings}
    assert read == spellings


def test_runs_without_scipy(tmp_path):
    # the runtime depends on numpy alone: with scipy unimportable, a JSON
    # run succeeds and its provenance names only anyonjc and numpy
    out = tmp_path / "out.json"
    argv = ["transmute", "--format", "json", "--output", str(out)]
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        f"from anyonjc.cli import main; sys.exit(main({argv!r}))"
    )
    src = str(Path(anyonjc.__file__).parent.parent)
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    provenance = json.loads(out.read_text())["diagnostics"]["provenance"]
    assert set(provenance) == {"anyonjc", "numpy"}
