"""Golden files for every observability output of the dual engine.

Each golden under ``tests/obs/golden/`` is the exact text an
observability surface writes, so any change to how the engines report
(trace events, counters, histograms, Perfetto tracks, ``cpi:*`` counter
tracks) shows up as a byte difference:

* ``repro-trace example`` -- the Perfetto JSON and the ``--metrics``
  snapshot, for every worked-example scenario on both machines;
* ``repro-trace li --scale 0.25`` -- the same two files;
* the ``metrics`` section of ``repro-eval table2 --scale 0.25
  --benchmarks li --metrics`` (``run_id`` and ``runner`` differ by
  design between runs);
* ``ProgramCompilation.metrics_snapshot(best=True/False)`` for ``li``.

Regenerate after an *intentional* change with::

    PYTHONPATH=src python tests/obs/test_observability_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path
from typing import Dict


GOLDEN = Path(__file__).parent / "golden"

SCENARIOS = (
    "both correct",
    "r7 mispredicted",
    "r4 mispredicted",
    "both mispredicted",
)
MACHINES = ("4w", "8w")


def _dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _trace_files(args, stem: str, root: Path) -> Dict[str, str]:
    """Run ``repro-trace`` and return ``{golden name: file text}``."""
    from repro.obs.cli import main

    trace, metrics = root / "t.json", root / "m.json"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(list(args) + ["--out", str(trace), "--metrics", str(metrics)])
    assert rc == 0, args
    return {
        f"{stem}.trace.json": trace.read_text(),
        f"{stem}.metrics.json": metrics.read_text(),
    }


def example_outputs(root: Path) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for machine in MACHINES:
        for scenario in SCENARIOS:
            stem = f"example_{machine}_{scenario.replace(' ', '_')}"
            out.update(
                _trace_files(
                    ["--scenario", scenario, "--machine", machine], stem, root
                )
            )
    return out


def li_trace_outputs(root: Path) -> Dict[str, str]:
    return _trace_files(["li", "--scale", "0.25"], "li_scale025", root)


def table2_metrics_output(root: Path) -> Dict[str, str]:
    from repro.evaluation.__main__ import main

    path = root / "eval.metrics.json"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(
            [
                "table2", "--scale", "0.25", "--benchmarks", "li",
                "--no-cache", "--metrics", str(path),
            ]
        )
    assert rc == 0
    metrics = json.loads(path.read_text())["metrics"]
    return {"table2_li_scale025.metrics.json": _dump(metrics)}


def compilation_snapshot_outputs() -> Dict[str, str]:
    from repro.evaluation.experiment import Evaluation, EvaluationSettings
    from repro.machine.configs import PLAYDOH_4W

    settings = EvaluationSettings(scale=0.25).with_benchmarks(["li"])
    compilation = Evaluation(settings).compilation("li", PLAYDOH_4W)
    return {
        f"li_scale025_snapshot_{name}.json": _dump(
            compilation.metrics_snapshot(best=best).as_dict()
        )
        for name, best in (("best", True), ("worst", False))
    }


def _assert_golden(outputs: Dict[str, str]) -> None:
    for name, text in sorted(outputs.items()):
        assert text == (GOLDEN / name).read_text(), name


def test_example_traces_and_metrics(tmp_path):
    _assert_golden(example_outputs(tmp_path))


def test_li_trace_and_metrics(tmp_path):
    _assert_golden(li_trace_outputs(tmp_path))


def test_table2_metrics_section(tmp_path):
    _assert_golden(table2_metrics_output(tmp_path))


def test_compilation_metrics_snapshots():
    _assert_golden(compilation_snapshot_outputs())


def regenerate() -> None:
    from repro.core import compile_cache

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        outputs: Dict[str, str] = {}
        for build in (
            example_outputs,
            li_trace_outputs,
            table2_metrics_output,
        ):
            compile_cache.reset()
            outputs.update(build(root))
        compile_cache.reset()
        outputs.update(compilation_snapshot_outputs())
    for name, text in sorted(outputs.items()):
        (GOLDEN / name).write_text(text)
        print(f"wrote {GOLDEN / name}")


if __name__ == "__main__":
    regenerate()
