"""Guard: the package reads no environment variable but its cache paths.

Every layer has one production path, chosen from a run's inputs.  An
environment variable that picks between code paths would fork that
again behind the user's back, so this scan of ``src/repro`` allows only
the deployment paths of the on-disk cache (``repro.runner.cache``).
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

ALLOWED = {
    ("runner/cache.py", "REPRO_CACHE_DIR"),
    ("runner/cache.py", "XDG_CACHE_HOME"),
}


def _is_environ(node: ast.AST) -> bool:
    """``os.environ`` / ``os.environb``, or a bare imported ``environ``."""
    if isinstance(node, ast.Attribute):
        return (
            isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ("environ", "environb")
        )
    return isinstance(node, ast.Name) and node.id in ("environ", "environb")


def _is_getenv(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return (
            isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ("getenv", "getenvb")
        )
    return isinstance(node, ast.Name) and node.id in ("getenv", "getenvb")


def _key(node: ast.AST) -> str:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return f"<non-literal key at line {node.lineno}>"


def environment_reads(source: str):
    """The variable of every environment access in ``source``."""
    tree = ast.parse(source)
    # Accesses already attributed to a key, so the bare ``os.environ``
    # node inside them is not reported a second time.
    seen = set()
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if _is_getenv(func):
                reads.append(_key(node.args[0]) if node.args else "?")
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in ("get", "setdefault", "pop")
                and _is_environ(func.value)
            ):
                seen.add(id(func.value))
                reads.append(_key(node.args[0]) if node.args else "?")
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            seen.add(id(node.value))
            reads.append(_key(node.slice))
        elif isinstance(node, ast.Compare) and any(
            _is_environ(c) for c in node.comparators
        ):
            seen.update(id(c) for c in node.comparators)
            reads.append(_key(node.left))
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.Attribute, ast.Name))
            and _is_environ(node)
            and id(node) not in seen
            and not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store))
        ):
            reads.append(f"<whole environment at line {node.lineno}>")
    return reads


def test_only_cache_paths_are_read_from_the_environment():
    reads = {
        (path.relative_to(PACKAGE).as_posix(), key)
        for path in sorted(PACKAGE.rglob("*.py"))
        for key in environment_reads(path.read_text())
    }
    assert reads == ALLOWED


def test_scan_sees_every_form_of_read():
    """The scanner itself: each access form is reported with its key."""
    reads = environment_reads(
        "import os\n"
        "from os import environ, getenv\n"
        "a = os.environ.get('A')\n"
        "b = os.environ['B']\n"
        "c = 'C' in os.environ\n"
        "d = os.getenv('D')\n"
        "e = getenv('E')\n"
        "f = environ.get(name)\n"
        "g = dict(os.environ)\n"
    )
    assert sorted(reads) == [
        "<non-literal key at line 8>",
        "<whole environment at line 9>",
        "A", "B", "C", "D", "E",
    ]
