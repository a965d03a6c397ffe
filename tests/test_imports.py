"""Imported names a module never uses, found with the standard library's
``ast`` (no linter is installed), and modules a fresh process loads
although it never runs them."""

import ast
import os
import subprocess
import sys
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


def run_fresh(code: str) -> list[str]:
    """The words ``code`` prints when a new interpreter runs it, importing
    gridbox from this tree."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.split()


# SciPy, and the packages xml.sax.saxutils pulls in through urllib.request
NEVER_RUN = ("scipy", "xml.sax", "ssl", "http.client", "email", "urllib.request")


def test_a_node_process_loads_no_module_it_never_runs():
    loaded = run_fresh("import sys\n"
                       "import gridbox.node, gridbox.client, gridbox.run_node\n"
                       f"print(*[m for m in {NEVER_RUN!r} if m in sys.modules])\n")
    assert loaded == []


def test_the_oracles_load_no_module_a_node_never_runs():
    """The benchmark imports the oracles, so what they load is counted in its
    memory."""
    loaded = run_fresh(f"import sys\nsys.path.insert(0, {str(ROOT / 'tests')!r})\n"
                       "import oracles\n"
                       f"print(*[m for m in {NEVER_RUN!r} if m in sys.modules])\n")
    assert loaded == []


EVERY_OTHER_VERB = "fraction_above 5 emit f\nmean emit m\nmax emit x\nthreshold 5\nmean emit t"


def test_only_count_components_loads_scipy():
    """Every other verb runs without SciPy; the first count loads it."""
    printed = run_fresh(
        "import sys\n"
        "from types import SimpleNamespace\n"
        "import numpy as np\n"
        "from gridbox.algorithms import count_components, execute_on_image, parse_algorithm\n"
        "pixels = np.array([[9, 0, 9], [0, 0, 0], [9, 9, 0]], dtype=np.uint16)\n"
        f"program = parse_algorithm({EVERY_OTHER_VERB!r})\n"
        "execute_on_image(program, SimpleNamespace(pixels=pixels))\n"
        "print('scipy' in sys.modules)\n"
        "print(count_components(pixels >= 5), 'scipy' in sys.modules)\n"
        "print(count_components(pixels >= 10))\n")
    assert printed == ["False", "3", "True", "0"]
