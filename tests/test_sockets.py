"""Only ``wire.py`` opens sockets, so every request goes through its one
pooled request path; found with the standard library's ``ast``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OPENERS = {"create_connection", "socket"}


def socket_openings(source: str) -> list[tuple[int, str]]:
    """(line, call) of each ``socket.create_connection`` or ``socket.socket``
    call, under whatever name the module is imported, and of each import of
    those two names from ``socket``."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "socket"}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in OPENERS and isinstance(node.func.value, ast.Name)
                and node.func.value.id in modules):
            found.append((node.lineno, f"socket.{node.func.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "socket":
            found.extend((node.lineno, f"socket.{alias.name}")
                         for alias in node.names if alias.name in OPENERS)
    return sorted(found)


def test_socket_openings_are_found():
    source = ("import socket\nimport socket as s\nfrom socket import create_connection\n"
              "socket.socket()\ns.create_connection(a)\nsocket.socketpair()\n")
    assert socket_openings(source) == [(3, "socket.create_connection"),
                                       (4, "socket.socket"),
                                       (5, "socket.create_connection")]


def test_only_wire_opens_sockets():
    found = [f"{path.relative_to(ROOT)}:{line}: {call}"
             for path in sorted((ROOT / "src" / "gridbox").glob("*.py"))
             if path.name != "wire.py"
             for line, call in socket_openings(path.read_text())]
    assert found == []
    assert socket_openings((ROOT / "src" / "gridbox" / "wire.py").read_text())
