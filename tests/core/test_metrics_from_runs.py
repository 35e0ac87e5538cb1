"""Block metrics are read from the pattern runs: asking for them never
simulates a block again.

Each dual-engine run folds its metrics from its own event log, so
``BlockCompilation.metrics_for(p)`` is a pure function of
``run_for(p)`` and a metrics-collecting program simulation runs exactly
the block simulations a plain one runs.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import machine_sim
from repro.compiler.manager import compile_program
from repro.core.program_sim import simulate_program
from repro.machine.configs import PLAYDOH_4W
from repro.profiling.profile_run import profile_program
from repro.trace.capture import capture_trace
from repro.workloads.suite import load_benchmark


@pytest.fixture(scope="module")
def li():
    program = load_benchmark("li", scale=0.2)
    trace = capture_trace(program)
    compilation = compile_program(program, PLAYDOH_4W, profile_program(program, trace))
    return compilation, trace


@pytest.fixture
def simulations(monkeypatch):
    """Every ``simulate_block`` call made while the test runs."""
    calls = []
    original = machine_sim.simulate_block

    def counting(*args, **kwargs):
        calls.append(args[0].label)
        return original(*args, **kwargs)

    monkeypatch.setattr(machine_sim, "simulate_block", counting)
    return calls


def _fresh(compilation):
    """An equal compilation holding no run: pickling drops the per-block
    pattern memos, and the copy's blocks key new shared memos."""
    return pickle.loads(pickle.dumps(compilation))


def test_metrics_for_after_run_for_simulates_nothing(li, simulations):
    compilation = _fresh(li[0])
    comp = compilation.block(compilation.speculated_labels[0])
    pattern = (False,) * len(comp.predicted_load_ids)
    run = comp.run_for(pattern)
    assert len(simulations) == 1
    metrics = comp.metrics_for(pattern)
    assert len(simulations) == 1
    assert metrics.counter("cce.flush") + metrics.counter("cce.reexec") == (
        run.flushed + run.executed
    )


def test_collecting_metrics_adds_no_simulation(li, simulations):
    compilation, trace = li
    counts = []
    for collect in (False, True):
        simulations.clear()
        simulate_program(_fresh(compilation), trace, collect_metrics=collect)
        counts.append(len(simulations))
    plain, metered = counts
    assert plain > 0
    assert metered == plain
