"""Guard: no module in ``src/repro`` imports a name it never uses.

No linter ships with the toolchain, so this AST scan holds the line on
module-level imports: every name a module binds by a top-level
``import``/``from ... import`` (including those under a top-level ``if``
or ``try``, such as ``if TYPE_CHECKING:``) must be read somewhere in the
module, in code or in an annotation, quoted or not.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

#: (module path, name) pairs that are imported on purpose and unread.
ALLOWED = {
    # e2ebench/test_e2e.py::test_uninstall_restores_every_patched_name
    # patches this module attribute by name and checks it is restored.
    ("evaluation/experiment.py", "simulate_program"),
}


def _module_imports(body):
    """``(bound name, line)`` of every import among ``body``'s statements,
    looking into ``if``/``try`` blocks but not into defs or classes."""
    for stmt in body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                name = alias.asname or alias.name.partition(".")[0]
                yield name, stmt.lineno
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module == "__future__":
                continue
            for alias in stmt.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, stmt.lineno
        elif isinstance(stmt, ast.If):
            yield from _module_imports(stmt.body)
            yield from _module_imports(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            for block in (stmt.body, stmt.orelse, stmt.finalbody):
                yield from _module_imports(block)
            for handler in stmt.handlers:
                yield from _module_imports(handler.body)


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
            yield from (arg.annotation for arg in every if arg.annotation)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(node):
    return {
        sub.id
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store)
    }


def _read_names(tree):
    """Every name the module reads, including inside quoted annotations
    and ``__all__``."""
    names = _names(tree)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _names(ast.parse(node.value, mode="eval"))
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            names |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return names


def unused_imports(source: str):
    """``(name, line)`` of every module-level import ``source`` never reads."""
    tree = ast.parse(source)
    read = _read_names(tree)
    return [(name, line) for name, line in _module_imports(tree.body) if name not in read]


def test_no_unused_module_level_imports():
    unused = {
        (path.relative_to(PACKAGE).as_posix(), name)
        for path in sorted(PACKAGE.rglob("*.py"))
        for name, _line in unused_imports(path.read_text())
    }
    assert unused == ALLOWED


def test_scan_sees_every_form_of_import_and_use():
    """The scanner itself: each import form is bound to the right name,
    and each form of use counts."""
    found = unused_imports(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import xml.dom\n"
        "from typing import TYPE_CHECKING, Dict, List, Optional\n"
        "from json import dumps as to_json, loads\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path, PurePath\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    import array\n"
        "__all__ = ['loads']\n"
        "def f(x: Dict[str, int]) -> 'Optional[Path]':\n"
        "    import sys\n"
        "    value: List[int] = []\n"
        "    return xml.dom, to_json(x)\n"
        "class C:\n"
        "    import shutil\n"
    )
    assert sorted(found) == [
        ("PurePath", 8),
        ("array", 12),
        ("numpy", 10),
        ("os", 2),
        ("osp", 3),
    ]
