"""Engine selection: which points the batched engine simulates.

``simulate_program`` runs the batched engine unless the machine has a
finite value-prediction table or the run models the instruction cache;
those points replay the trace through the scalar observer.
"""

from __future__ import annotations

from repro.batchsim import engine
from repro.batchsim.engine import unsupported_reason
from repro.core.metrics import compile_program
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


class TestUnsupportedReasons:
    def test_common_path_is_supported(self):
        assert unsupported_reason(PLAYDOH_4W) is None

    def test_each_off_path_feature_is_named(self):
        assert "table" in unsupported_reason(TABLE_MACHINE)
        assert "icache" in unsupported_reason(PLAYDOH_4W, model_icache=True)

    def test_off_path_points_replay_the_trace(self, monkeypatch):
        """Only common-path points reach the batched engine."""
        calls = []
        real = engine.batch_counts
        monkeypatch.setattr(
            engine,
            "batch_counts",
            lambda *args: calls.append(args[0].machine.name) or real(*args),
        )
        program = SUITE["compress"]
        trace = capture_trace(program)
        profile = profile_program(program, trace)
        for machine, model_icache in (
            (PLAYDOH_4W, False),
            (PLAYDOH_4W, True),
            (TABLE_MACHINE, False),
        ):
            compilation = compile_program(program, machine, profile)
            simulate_program(compilation, trace, model_icache=model_icache)
        assert calls == [PLAYDOH_4W.name]

