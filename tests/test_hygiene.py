"""Source hygiene: no module-level import goes unused, nothing imports
scipy, no file is written but through :func:`loadcast.files.replacing`,
every function the benchmark's tracer rebinds exists, with the parameters
it binds, and fires where it must in a tiny traced run of each workload.

A stdlib ``ast`` scan standing in for a linter.  Package ``__init__.py``
files are skipped, since their imports are re-exports; instead the package's
``__all__`` must list exactly the names it imports.
"""

import ast
import inspect
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import loadcast

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [p for p in (ROOT / "src" / "loadcast").glob("*.py")
     if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "demos").glob("*.py"))
    + list((ROOT / "tools").glob("*.py")))


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def imported_modules(path: Path) -> set:
    """Every module ``path`` imports, at any depth."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return ({alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names}
            | {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module})


def test_no_source_or_test_imports_scipy():
    # numpy is the program's one runtime dependency
    flagged = {str(path.relative_to(ROOT)): sorted(
        m for m in imported_modules(path) if m.partition(".")[0] == "scipy")
        for path in sorted((ROOT / "src").rglob("*.py"))
        + sorted((ROOT / "tests").rglob("*.py"))}
    assert {name: mods for name, mods in flagged.items() if mods} == {}


#: program starts, each run in a fresh interpreter before it reports
#: whether scipy got loaded
STARTS = {
    "import": "import loadcast",
    "help": ("import runpy\nsys.argv = ['loadcast', '--help']\ntry:\n"
             "    runpy.run_module('loadcast', run_name='__main__')\n"
             "except SystemExit:\n    pass"),
}


@pytest.mark.parametrize("start", sorted(STARTS))
def test_program_starts_without_scipy(start):
    run = subprocess.run(
        [sys.executable, "-c",
         f"import sys\n{STARTS[start]}\nprint('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60, check=True)
    assert run.stdout.splitlines()[-1] == "False", run.stdout


def _calls(node, name: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name)


def _opens_for_writing(node) -> bool:
    """An ``open(...)`` call whose mode writes, or is not a literal."""
    if not _calls(node, "open"):
        return False
    mode = node.args[1] if len(node.args) > 1 else next(
        (k.value for k in node.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    return (not isinstance(mode, ast.Constant)
            or bool(set(mode.value) & set("wax+")))


#: functions that only write temporaries their callers take from replacing
WRITES_TEMPORARIES = {("evaluation.py", "write_csv")}


def unguarded_writes(path: Path) -> list:
    """Lines of ``path`` that open a file for writing outside a ``with``
    holding a ``replacing(...)`` call, so a failed write could leave a
    half-written file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    guarded = set()
    for node in ast.walk(tree):
        if ((isinstance(node, ast.With) and any(
                _calls(item.context_expr, "replacing") for item in node.items))
                or (isinstance(node, ast.FunctionDef)
                    and (path.name, node.name) in WRITES_TEMPORARIES)):
            guarded.update(map(id, ast.walk(node)))
    return [node.lineno for node in ast.walk(tree)
            if _opens_for_writing(node) and id(node) not in guarded]


def test_src_writes_files_only_through_replacing():
    flagged = {path.name: unguarded_writes(path)
               for path in sorted((ROOT / "src" / "loadcast").glob("*.py"))}
    assert {name: lines for name, lines in flagged.items() if lines} == {}


#: modules whose per-step loops are dispatch-bound: there ``a[i] += b`` runs
#: a ``__setitem__`` that copies the view ``a[i]`` onto itself
HOT_MODULES = ("cells.py", "tape.py")


def subscript_augassigns(path: Path) -> list:
    """Lines of ``path`` with an in-place operator on a subscript."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Subscript)]


def test_hot_modules_update_views_not_subscripts():
    flagged = {name: subscript_augassigns(ROOT / "src" / "loadcast" / name)
               for name in HOT_MODULES}
    assert {name: lines for name, lines in flagged.items() if lines} == {}, (
        "write `view = a[idx]; view += x` in place of `a[idx] += x`")


def test_package_exports_exactly_its_imports():
    init = ROOT / "src" / "loadcast" / "__init__.py"
    tree = ast.parse(init.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(loadcast.__all__) == sorted(imported)
    assert len(loadcast.__all__) == len(set(loadcast.__all__))


def test_benchmark_tracer_finds_every_hook():
    # the tracer rebinds program functions by name; a renamed or dropped one
    # would otherwise show only as a failed check of a traced benchmark run
    tracing = runpy.run_path(str(ROOT / "benchmarks" / "tracing.py"))
    step = loadcast.cells.cell_step
    with tracing["Tracer"]() as tracer:
        assert loadcast.cells.cell_step is not step
    assert tracer.missing == []
    assert loadcast.cells.cell_step is step  # restored on exit


def test_forecast_range_keeps_the_signature_the_tracer_binds():
    # the tracer binds forecast_range's arguments by name to count the range
    # days; the benchmark's workloads call it positionally with one series
    params = inspect.signature(loadcast.training.forecast_range).parameters
    assert list(params)[:4] == ["ensemble", "series", "first_date",
                                "last_date"]
    kinds = [p.kind for p in params.values()]
    assert kinds[:4] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * 4
    assert set(kinds[4:]) <= {inspect.Parameter.KEYWORD_ONLY}


def test_cell_step_keeps_the_dilation_the_tracer_keys_layers_by():
    # the tracer names each cell step's layer by its 4th positional
    # argument, or by dilation= when passed by keyword
    params = inspect.signature(loadcast.cells.cell_step).parameters
    dilation = list(params.values())[3]
    assert dilation.name == "dilation"
    assert dilation.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


@pytest.mark.parametrize("workload", ["train-desk", "train-full", "evaluate"])
def test_tiny_traced_benchmark_run_is_correct(workload):
    # a hook that stops firing, or a failed output check, marks the run
    # incorrect; the last line of its output is the result object
    run = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0", "--trace", "1", "--tiny"],
        capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), run.stderr
