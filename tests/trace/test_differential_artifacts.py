"""End-to-end differential: every table/figure artifact is byte-identical
across {reference interpreter, specialized interpreter} x {batched
engine, scalar replay engine}.

This is the acceptance gate for the whole fast path: if any layer
perturbs a single predicted value or block count, a paper artifact
diverges and this suite catches it.  The reference mode captures every
value trace with the per-op dispatch loop the interpreter is specified
by; the scalar mode sends every simulation to the scalar replay engine
instead of the batched one.
"""

import dataclasses

import pytest

from repro.batchsim import engine
from repro.batchsim.context import reset_shared_state
from repro.evaluation import figure8, table2, table3, table4
from repro.evaluation.experiment import Evaluation, EvaluationSettings
from repro.profiling.interpreter import Interpreter
from tests.profiling.reference_interpreter import run_reference
from tests.trace.reference_runs import scalar_only

#: (mode name, capture with the reference loop, simulate by scalar replay)
MODES = [
    ("reference", True, True),
    ("specialized", False, True),
    ("batched", False, False),
]

SETTINGS = EvaluationSettings(scale=0.25)

EXPERIMENTS = {
    "table2": table2.compute,
    "table3": table3.compute,
    "table4": table4.compute,
    "figure8": figure8.compute,
}


def _rows_as_data(rows):
    return [
        dataclasses.asdict(row) if dataclasses.is_dataclass(row) else row
        for row in rows
    ]


def _reference_run(self, program, observers=None):
    return run_reference(
        program,
        observers=observers,
        max_operations=self.max_operations,
        strict_registers=self.strict_registers,
    )


def _evaluation(monkeypatch, reference, scalar):
    """A fresh evaluation in one mode, sharing no product with another."""
    monkeypatch.undo()
    if reference:
        monkeypatch.setattr(Interpreter, "run", _reference_run)
    if scalar:
        monkeypatch.setattr(engine, "unsupported_reason", scalar_only)
    reset_shared_state()
    return Evaluation(SETTINGS)


def _compute_all(monkeypatch, reference, scalar):
    evaluation = _evaluation(monkeypatch, reference, scalar)
    out = {}
    for name, compute in EXPERIMENTS.items():
        out[name] = _rows_as_data(compute(evaluation))
    return out


def test_all_artifacts_identical_across_modes(monkeypatch):
    baseline_mode, *other_modes = MODES
    baseline = _compute_all(monkeypatch, *baseline_mode[1:])
    for mode, reference, scalar in other_modes:
        candidate = _compute_all(monkeypatch, reference, scalar)
        for experiment in EXPERIMENTS:
            assert candidate[experiment] == baseline[experiment], (
                f"{experiment} diverged under mode {mode!r}"
            )


def test_rendered_tables_identical_across_modes(monkeypatch):
    """The human-facing renderings (what the CLI prints and the docs
    quote) are byte-identical too."""
    rendered = []
    for _mode, reference, scalar in MODES:
        evaluation = _evaluation(monkeypatch, reference, scalar)
        rendered.append(
            "\n\n".join(
                [
                    table2.render(table2.compute(evaluation)),
                    table4.render(table4.compute(evaluation)),
                    figure8.render(figure8.compute(evaluation)),
                ]
            )
        )
    assert rendered[0] == rendered[1] == rendered[2]
