"""Every imported name is used in its file. The package `__init__.py`
re-exports names it never uses itself, and `from __future__` imports are
directives, so both are exempt."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    files = [*(ROOT / "src" / "syzcx").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    assert len(files) > 10
    unused = [u for f in sorted(files) if f.name != "__init__.py"
              for u in unused_imports(f)]
    assert unused == []
