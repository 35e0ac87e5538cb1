"""One engine: every ``simulate_program`` call takes its counts from
:func:`repro.batchsim.engine.batch_counts` — plain runs, icache runs and
runs on a finite value-prediction table alike.
"""

from __future__ import annotations

from repro.batchsim import engine
from repro.compiler.manager import compile_program
from repro.core.program_sim import simulate_program
from repro.machine.configs import PLAYDOH_4W, PLAYDOH_4W_SPEC
from repro.machine.predictor import PredictorSpec
from repro.profiling.profile_run import profile_program
from repro.trace.capture import capture_trace
from repro.workloads.suite import load_suite

SUITE = load_suite(scale=0.25)

TABLE_MACHINE = PLAYDOH_4W_SPEC.override(
    name="playdoh-4w-vpt256", predictor=PredictorSpec(table_entries=256)
).build()


def test_every_simulation_reaches_batch_counts(monkeypatch):
    calls = []
    real = engine.batch_counts

    def recording(compilation, trace, context, max_operations, model_icache):
        calls.append((compilation.machine.name, model_icache))
        return real(compilation, trace, context, max_operations, model_icache)

    monkeypatch.setattr(engine, "batch_counts", recording)
    program = SUITE["compress"]
    trace = capture_trace(program)
    profile = profile_program(program, trace)
    points = [
        (machine, model_icache)
        for machine in (PLAYDOH_4W, TABLE_MACHINE)
        for model_icache in (False, True)
    ]
    for machine, model_icache in points:
        compilation = compile_program(program, machine, profile)
        simulate_program(compilation, trace, model_icache=model_icache)
    assert calls == [(machine.name, icache) for machine, icache in points]
