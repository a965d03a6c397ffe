"""Imported names a module never uses, found with the standard library's
``ast`` (no linter is installed)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "gridbox").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name bound by an import and never read; a name
    listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "import os\nimport sys as system\nfrom a.b import c, d\nprint(os, d)\n"
    assert unused_imports(source) == [(2, "system"), (3, "c")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in FILES for line, name in unused_imports(path.read_text())]
    assert found == []
