"""Every module imports only names it reads.

``votephase/__init__.py`` is left out: it imports names to re-export
them. ``from __future__`` imports change the compiler, not the
namespace, and are left out too.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path
    for path in [*(ROOT / "src" / "votephase").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
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
