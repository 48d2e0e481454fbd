"""The package namespace: `syzcx.<name>` is the public function or class
`name` of the module that defines it, and every other name raises
AttributeError. `import syzcx` loads every module of the pipeline, and not
the command line."""

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import syzcx

from conftest import clear_caches, family_gen, perfbench_module, run_python

MODULES = ("algebra", "complexity", "curvature", "errors", "graph", "oracle",
           "polynomials", "spectra", "syzygy")


def public_definitions(modname: str) -> list[str]:
    """The public functions and classes defined at the top of a module's
    source, read off its syntax tree."""
    path = Path(syzcx.__file__).with_name(f"{modname}.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [n.name for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))
            and not n.name.startswith("_")]


@pytest.mark.parametrize("modname", MODULES)
def test_public_definitions_resolve_from_the_package(modname):
    module = import_module(f"syzcx.{modname}")
    names = public_definitions(modname)
    assert names
    star = {}
    exec("from syzcx import *", star)
    for name in names:
        obj = getattr(module, name)
        assert getattr(syzcx, name) is obj, name
        scope = {}
        exec(f"from syzcx import {name}", scope)
        assert scope[name] is obj and star[name] is obj, name


def test_a_rebinding_in_the_module_shows_through(monkeypatch):
    # perfbench's tracer wraps a function where its module binds it, and its
    # queries call through the package: they must reach the wrapper.
    def wrapper(*args):
        return None

    monkeypatch.setattr(syzcx.spectra, "char_poly", wrapper)
    assert syzcx.char_poly is wrapper


def _files_under(*dirs):
    return {p: p.stat().st_mtime_ns for d in dirs for p in d.rglob("*")}


@pytest.mark.parametrize("workload", ["classify", "realize", "oracle"])
def test_benchmark_tracer_reaches_every_predicted_span(workload, monkeypatch):
    # CI's span self-check, in process: perfbench/spans.py's tracer wraps
    # every binding of its spans, a seed-1 pass answers every query, and
    # each span the workload is predicted to reach is recorded, so a
    # deleted or unreached public function fails here too. The tracer's
    # setattr is monkeypatch's, so every rebinding is undone; no file
    # under perfbench/ or .perfbench/ is written.
    spans, queries = perfbench_module("spans"), perfbench_module("queries")
    root = Path(__file__).resolve().parents[1]
    written = _files_under(root / "perfbench", root / ".perfbench")
    modules = [m for n, m in sys.modules.items() if n.startswith("syzcx.")]
    bindings = [dict(vars(m)) for m in modules]
    clear_caches()
    monkeypatch.setattr(spans, "setattr", monkeypatch.setattr, raising=False)
    tracer = spans.Tracer()
    assert tracer.install(syzcx) > 0
    run = queries.run_pass(workload, family_gen().make_inputs(workload, 1),
                           syzcx, tracer, {})
    monkeypatch.undo()
    assert [q for q in run["queries"] if "error" in q] == []
    recorded = {s[0] for s in tracer.spans}
    assert [n for n in spans.PREDICTED[workload] if n not in recorded] == []
    assert [dict(vars(m)) for m in modules] == bindings
    assert _files_under(root / "perfbench", root / ".perfbench") == written


def test_other_names_do_not_resolve():
    defined = {n for m in MODULES for n in public_definitions(m)}
    others = {name for m in MODULES for name in vars(import_module(f"syzcx.{m}"))
              if name not in defined}
    assert {"np", "NamedTuple", "Fraction", "PRIMES", "_dim_cap"} <= others
    for name in sorted(others):
        if name in vars(syzcx):  # dunders such as __doc__, and the modules
            continue
        with pytest.raises(AttributeError):
            getattr(syzcx, name)


def test_import_loads_every_pipeline_module_but_not_the_cli():
    src = str(Path(syzcx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, syzcx\n"
         "print(' '.join(sorted(m for m in sys.modules if m.startswith('syzcx.'))))"],
        capture_output=True, text=True, env=env, check=True).stdout
    assert out.split() == [f"syzcx.{m}" for m in MODULES]


def test_import_generates_no_code():
    # Records are NamedTuples and plain classes: importing the command line
    # builds no dataclass, so `dataclasses` (and its exec'd methods) never loads.
    out = run_python("import sys, syzcx.cli\n"
                     "print('dataclasses' in sys.modules)")
    assert (out.returncode, out.stdout) == (0, "False\n"), out.stderr
