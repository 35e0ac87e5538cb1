"""Guard: each CLI imports only what it runs.

Package ``__init__`` files import nothing, and the modules that hold
cached payload classes import the simulator only inside the functions
that run it.  So starting ``repro-eval`` or ``repro-explore`` loads no
interpreter, scheduler, predictor, trace exporter or workload builder,
and a warm ``repro-eval`` run, which only reads cached payloads, loads
none of them either.  Every check runs in a fresh interpreter, since
this test process has imported the whole package already.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"

#: Modules neither CLI's import may load.
HEAVY = (
    "repro.compiler.manager",
    "repro.compiler.passes",
    "repro.core.baseline",
    "repro.core.machine_sim",
    "repro.core.vliw_engine",
    "repro.ddg.builder",
    "repro.evaluation.paper_example",
    "repro.obs.cycles",
    "repro.obs.perfetto",
    "repro.obs.trace",
    "repro.predict.fcm",
    "repro.predict.hybrid",
    "repro.predict.stride",
    "repro.profiling.interpreter",
    "repro.regions.unroll",
    "repro.sched.list_scheduler",
    "repro.workloads.compress",
)

#: Modules a warm ``repro-eval all`` must not load: it runs no pipeline
#: stage and renders no worked example.
NOT_WARM = (
    "repro.compiler.manager",
    "repro.evaluation.paper_example",
    "repro.obs.perfetto",
    "repro.trace.capture",
)


def _python(code: str, timeout: float = 120) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def _loaded_after(statements: str) -> set:
    out = _python(f"import json, sys\n{statements}\nprint(json.dumps(sorted(sys.modules)))")
    return set(json.loads(out.splitlines()[-1]))


@pytest.mark.parametrize(
    "module, forbidden",
    [
        ("repro.evaluation.__main__", HEAVY + ("uuid",)),
        ("repro.explore.cli", HEAVY),
    ],
)
def test_cli_import_loads_no_heavy_module(module, forbidden):
    loaded = _loaded_after(f"import {module}")
    assert sorted(loaded & set(forbidden)) == []


def test_warm_regeneration_loads_no_pipeline_stage(tmp_path):
    argv = ["all", "--json", "--scale", "0.2", "--cache-dir", str(tmp_path / "cache")]
    run = (
        "import contextlib, io\n"
        "from repro.evaluation.__main__ import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(json.dumps(out.getvalue()))"
    )
    cold = _python(f"import json\n{run}", timeout=600).splitlines()[-1]
    warm = _python(f"import json, sys\n{run}\nprint(json.dumps(sorted(sys.modules)))")
    rows, modules = warm.splitlines()[-2:]
    assert rows == cold
    assert sorted(set(json.loads(modules)) & set(NOT_WARM)) == []


def _package_inits():
    return sorted(PACKAGE.rglob("__init__.py"))


@pytest.mark.parametrize(
    "path", _package_inits(), ids=lambda p: ".".join(p.parent.relative_to(SRC).parts)
)
def test_package_init_imports_nothing(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = [
        ast.unparse(node)
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
    ]
    assert imports == []


def test_only_batchsim_defines_a_module_getattr():
    owners = sorted(
        str(path.relative_to(PACKAGE))
        for path in PACKAGE.rglob("*.py")
        if any(
            isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
            for node in ast.parse(path.read_text(encoding="utf-8")).body
        )
    )
    assert owners == ["batchsim/__init__.py"]
