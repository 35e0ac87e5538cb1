"""Guard: pass and machine registries do not depend on import order.

Each registry is filled by the module that defines it, at its own
import, never as a side effect of importing some package.  So a fresh
CLI process lists exactly what a process that has imported every
``repro`` module first lists.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

IMPORT_EVERYTHING = (
    "import importlib, pkgutil, repro\n"
    "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
    "    importlib.import_module(info.name)\n"
)


def _stdout(*args: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    return proc.stdout


@pytest.mark.parametrize(
    "module, argv",
    [
        ("repro.evaluation", ["--list-passes"]),
        ("repro.compiler", ["list", "--json"]),
        ("repro.machine", ["list"]),
    ],
)
def test_listing_matches_a_process_that_imported_everything(module, argv):
    fresh = _stdout("-m", module, *argv)
    everything = _stdout(
        "-c",
        IMPORT_EVERYTHING
        + f"from {module}.__main__ import main\n"
        + f"raise SystemExit(main({argv!r}))\n",
    )
    assert fresh
    assert fresh == everything
