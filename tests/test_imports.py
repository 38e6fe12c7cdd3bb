"""Every module imports only names it reads, and no name is dead.

``votephase/__init__.py`` is left out of the import scan: it imports
names to re-export them. ``from __future__`` imports change the
compiler, not the namespace, and are left out too. The ``__all__`` of
``__init__.py`` must list exactly the names it imports and the names of
its lazy table, and export no module and no class or function defined
outside the package.

A private module-level name must be read by some module. A public one
in ``src/votephase`` must be read by some module there or be named in
README.md, and every function or constant the package exports must be
named in README.md: helpers only the tests use live in ``tests/``.

Threads are started in one place: only ``model.py`` names
``ThreadPoolExecutor``, and only ``model._thread_map`` counts the CPUs.
A vote block is multiplied by its transpose in one place too:
``diagnose._gram``. Only ``cli.py`` reads a config dict into a spec.
"""

import ast
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import votephase
from test_cli_golden import CASES, GOLDEN
from votephase.montecarlo import CorrelationSummary

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "votephase").glob("*.py"))
README = (ROOT / "README.md").read_text()
MODULES = sorted(
    path for path in [*PACKAGE, *(ROOT / "tests").glob("*.py")] if path.name != "__init__.py"
)


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport a.b\nfrom x import y as z\nz()\n"
    assert _unused_imports(source) == [(2, "os"), (3, "a")]


def _module_names(sources: dict) -> tuple:
    """(defined, read) over ``sources``, a dict of module -> source.

    ``defined`` lists (module, name) for each module-level function,
    class or assignment target. ``read`` holds every name that a name
    load or an attribute access reads, in any module.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return defined, read


def _dead_private_names(sources: dict) -> list:
    """(module, name) for each module-level ``_name`` no module reads.

    A name that starts with one underscore is private.
    """
    defined, read = _module_names(sources)
    return sorted(
        (module, name)
        for module, name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


def _named_in(text: str, name: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", text) is not None


def _unread_public_names(sources: dict, readme: str) -> list:
    """(module, name) for each public module-level name that no module
    reads and ``readme`` does not name."""
    defined, read = _module_names(sources)
    return sorted(
        (module, name)
        for module, name in defined
        if not name.startswith("_") and name not in read and not _named_in(readme, name)
    )


def test_no_dead_private_code():
    assert _dead_private_names({path.stem: path.read_text() for path in PACKAGE}) == []


def test_scan_finds_dead_private_code():
    sources = {
        "a": "_dead = 1\n_used: int = 2\ndef _f():\n    return _used\nclass _C:\n    pass\n",
        "b": "from a import _f\n_f()\n__all__ = []\n",
    }
    assert _dead_private_names(sources) == [("a", "_C"), ("a", "_dead")]


def test_every_public_name_is_read_or_documented():
    sources = {path.stem: path.read_text() for path in PACKAGE if path.name != "__init__.py"}
    assert _unread_public_names(sources, README) == []


def test_scan_finds_an_unread_public_name():
    sources = {
        "a": "def f():\n    return g()\ndef g():\n    pass\ndef h():\n    pass\nX = 1\n",
        "b": "import a\na.f()\n",
    }
    assert _unread_public_names(sources, "Call `h`.") == [("a", "X")]


def test_every_exported_function_and_constant_is_named_in_readme():
    exported = [name for name in votephase.__all__ if not isinstance(getattr(votephase, name), type)]
    assert [name for name in exported if not _named_in(README, name)] == []


def test_all_lists_exactly_the_imported_names():
    # The package imports ``diagnose`` eagerly and resolves every other
    # export on first access through its lazy table. Each export, eager
    # or lazy, is the object of the one module that defines it.
    tree = ast.parse((ROOT / "src" / "votephase" / "__init__.py").read_text())
    eager = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    lazy = votephase._LAZY
    assert len(votephase.__all__) == len(set(votephase.__all__))
    assert sorted(votephase.__all__) == sorted([*eager, *lazy])
    defined, _ = _module_names(
        {path.stem: path.read_text() for path in PACKAGE if path.name != "__init__.py"}
    )
    for name in votephase.__all__:
        [module] = [module for module, defined_name in defined if defined_name == name]
        assert lazy.get(name, module) == module, name
        value = getattr(votephase, name)
        assert value is getattr(importlib.import_module(f"votephase.{module}"), name), name
    namespace: dict = {}
    exec("from votephase import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(votephase.__all__)
    assert len(votephase.__all__) == 45
    assert set(votephase.__all__) <= set(dir(votephase))
    with pytest.raises(AttributeError, match="no_such_name"):
        votephase.no_such_name


def test_exports_are_package_objects_and_no_module():
    # __all__ is derived from the lazy table, so an entry that names a
    # submodule or a name a module imports from outside the package (say,
    # `Any` from typing) would otherwise be exported.
    exported = {name: getattr(votephase, name) for name in votephase.__all__}
    assert [name for name, value in exported.items() if isinstance(value, types.ModuleType)] == []
    assert [
        name
        for name, value in exported.items()
        if callable(value) and not value.__module__.startswith("votephase.")
    ] == []


def test_diagnose_stays_the_function_after_its_module_is_imported():
    # A package attribute named like a submodule is rebound to the
    # submodule when that submodule is first imported, so a re-export
    # resolved lazily would lose to `import votephase.diagnose`.
    code = (
        "import sys, votephase.diagnose, votephase\n"
        "assert votephase.diagnose is sys.modules['votephase.diagnose'].diagnose\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_closed_form_subcommands_start_without_numpy():
    # analytic and phase-grid compute with math alone, so neither they nor
    # the package and cli imports load numpy, the numpy-backed layers or
    # the thread pool; oracle and simulate load them on first use and
    # print what they did.
    code = """
import contextlib, io, json, sys
import votephase
import votephase.cli as cli
cli.build_parser()

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    return out.getvalue()

cases = json.loads(sys.argv[1])
printed = {name: run(cases[name]) for name in ("analytic-geometric-json", "grid-geometric-csv")}
loaded = sorted(set(sys.modules) & set(json.loads(sys.argv[2])))
printed.update((name, run(cases[name])) for name in ("oracle-geometric-json", "simulate-geometric-csv"))
print(json.dumps({"loaded": loaded, "printed": printed}))
"""
    heavy = ["numpy", "votephase.oracle", "votephase.montecarlo", "votephase.sampler",
             "concurrent.futures"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-c", code, json.dumps(CASES), json.dumps(heavy)]
    result = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["loaded"] == []
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert report["printed"] == {name: golden[name]["stdout"] for name in report["printed"]}


@pytest.mark.parametrize("name", ["analytic.py", "grid.py"])
def test_closed_form_modules_name_no_model_class(name):
    # Each model's closed forms live on its class in model.py; the
    # closed-form modules call them and never branch on the class.
    tree = ast.parse((ROOT / "src" / "votephase" / name).read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert names & {"Independent", "Geometric", "Equicorrelated"} == set()


def _imported_names(source: str) -> set:
    """Every dotted-name part an import in ``source`` names, at any depth:
    ``from .oracle import f`` and ``from . import oracle`` both give
    ``oracle``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
    return names - {""}


def _package_modules_loaded_by(name: str) -> set:
    """``name`` and every package module its imports reach."""
    stems = {path.stem for path in PACKAGE}
    seen, todo = set(), [name]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            source = (ROOT / "src" / "votephase" / f"{module}.py").read_text()
            todo += sorted(_imported_names(source) & stems)
    return seen


@pytest.mark.parametrize("name", ["montecarlo", "sampler"])
def test_monte_carlo_never_imports_the_oracle(name):
    # Monte Carlo is the oracle's independent check, so it shares no
    # code with it, directly or through another package module.
    loaded = _package_modules_loaded_by(name)
    assert name in loaded and "oracle" not in loaded


def test_scan_finds_an_oracle_import():
    for source in [
        "from .oracle import exact_error\n",
        "from . import oracle\n",
        "import votephase.oracle\n",
        "def f():\n    from votephase import oracle as o\n    return o\n",
    ]:
        assert "oracle" in _imported_names(source), source
    assert _imported_names("from .model import oracle_free, x\n") == {"model", "oracle_free", "x"}


def test_one_module_rejects_an_unknown_model():
    holders = [path.name for path in PACKAGE if "unknown correlation model" in path.read_text()]
    assert holders == ["model.py"]


def _thread_owners(sources: dict) -> tuple:
    """(modules that name ThreadPoolExecutor, ``module.function`` for
    each call of ``_cpus``, the innermost enclosing function or
    ``<module>``)."""
    pools, callers = set(), set()

    def names(node) -> set:
        return {getattr(node, key, None) for key in ("id", "attr", "name")}

    def visit(node, module: str, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if "ThreadPoolExecutor" in names(child):
                pools.add(module)
            if isinstance(child, ast.Call) and "_cpus" in names(child.func):
                callers.add(f"{module}.{where}")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, module, child.name if inner else where)

    for module, source in sources.items():
        visit(ast.parse(source), module, "<module>")
    return sorted(pools), sorted(callers)


def test_one_function_runs_threads():
    # model._thread_map owns the thread policy; its callers ask it for
    # workers and never count CPUs or build a pool themselves.
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert _thread_owners(sources) == (["model"], ["model._thread_map"])


def test_scan_finds_pools_and_cpu_counts_outside_the_runner():
    sources = {
        "a": "from concurrent.futures import ThreadPoolExecutor\n",
        "b": (
            "import concurrent.futures\n"
            "def f():\n"
            "    def g():\n"
            "        return model._cpus()\n"
            "    return concurrent.futures.ThreadPoolExecutor(g())\n"
        ),
        "c": "n = _cpus()\ndef _cpus():\n    return 1\n",
    }
    assert _thread_owners(sources) == (["a", "b"], ["b.g", "c.<module>"])


def _gram_products(sources: dict) -> list:
    """``module.function`` for each ``@`` of an expression with its own
    transpose (``x.T @ x`` or ``x @ x.T``), the innermost enclosing
    function or ``<module>``."""
    found = set()

    def transposed(a, b) -> bool:
        return isinstance(a, ast.Attribute) and a.attr == "T" and ast.dump(a.value) == ast.dump(b)

    def visit(node, module: str, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.MatMult):
                if transposed(child.left, child.right) or transposed(child.right, child.left):
                    found.add(f"{module}.{where}")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, module, child.name if inner else where)

    for module, source in sources.items():
        visit(ast.parse(source), module, "<module>")
    return sorted(found)


def test_one_function_forms_a_gram():
    # diagnose._gram forms every Gram, exactly, for diagnose and for
    # Monte Carlo alike; its callers pass it a 0/1 block.
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert _gram_products(sources) == ["diagnose._gram"]


def test_scan_finds_gram_products_outside_the_kernel():
    sources = {
        "a": "g = x.T @ x\n",
        "b": (
            "def f(v):\n"
            "    def g(w):\n"
            "        return (w.astype(int) @ w.astype(int).T).sum()\n"
            "    return v @ v, v.T @ w, g(v)\n"
        ),
        "c": "def h(rng, m):\n    votes = rng.random((m, 3))\n    return votes.T @ votes\n",
    }
    assert _gram_products(sources) == ["a.<module>", "b.g", "c.h"]


def _config_readers(sources: dict) -> tuple:
    """(``module.Class`` for each class that defines ``from_dict``, each
    module that calls ``model_from_dict``)."""
    classes, callers = set(), set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                names = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
                if "from_dict" in names:
                    classes.add(f"{module}.{node.name}")
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "model_from_dict":
                    callers.add(module)
    return sorted(classes), sorted(callers)


def test_the_cli_is_the_one_reader_of_config_dicts():
    # cli._ensemble and cli._grid turn every config dict into a spec; a
    # library caller builds the spec with its constructor.
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert _config_readers(sources) == ([], ["cli"])


def test_scan_finds_config_readers_outside_the_cli():
    sources = {
        "a": (
            "class A:\n"
            "    @classmethod\n"
            "    def from_dict(cls, data):\n"
            "        return cls(model_from_dict(data))\n"
        ),
        "b": "import model\nspec = model.model_from_dict({})\n",
        "c": "def from_dict(data):\n    return model_from_dict\n",
    }
    assert _config_readers(sources) == (["a.A"], ["a", "b"])


def test_result_types_hold_only_what_src_and_the_benchmark_read():
    # Members that only tests read live in tests/reference.py.
    pmf = votephase.exact_vote_pmf(votephase.Independent(), 3, 0.5)
    assert {name for name in dir(pmf) if not name.startswith("_")} == {
        "n", "mass", "cdf_at", "upper_tail"
    }
    fields = {field.name for field in dataclasses.fields(CorrelationSummary)}
    assert fields == {"correlation", "lag_means"}
