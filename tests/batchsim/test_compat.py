"""Off-path fallback and the batch_simulate runner stage's parity with
scalar simulate jobs.

The batched engine must never be load-bearing for correctness: on
off-path points every public entry point silently produces the scalar
engine's byte-identical answer.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.batchsim.engine import unsupported_reason
from repro.core.metrics import compile_program
from repro.core.program_sim import simulate_program
from repro.machine.configs import PLAYDOH_4W, PLAYDOH_8W
from repro.profiling.profile_run import profile_program
from repro.trace.capture import capture_trace
from repro.workloads.suite import load_suite

SUITE = load_suite(scale=0.25)


@pytest.fixture
def compiled():
    program = SUITE["compress"]
    profile = profile_program(program)
    compilation = compile_program(program, PLAYDOH_4W, profile)
    return compilation, capture_trace(program)


class TestUnsupportedReasons:
    def test_common_path_is_supported(self):
        assert unsupported_reason(trace=object()) is None

    def test_each_off_path_feature_is_named(self):
        assert "trace" in unsupported_reason(trace=None)
        assert "predictor" in unsupported_reason(
            trace=object(), predictor=object()
        )
        assert "table" in unsupported_reason(trace=object(), table=object())
        assert "confidence" in unsupported_reason(
            trace=object(), confidence=object()
        )
        assert "icache" in unsupported_reason(
            trace=object(), model_icache=True
        )

    def test_off_path_batch_true_falls_back_identically(self, compiled):
        compilation, trace = compiled
        scalar = simulate_program(compilation, trace=trace, model_icache=True)
        forced = simulate_program(
            compilation, trace=trace, model_icache=True, batch=True
        )
        assert dataclasses.asdict(scalar) == dataclasses.asdict(forced)


class TestBatchSimulateJob:
    def test_job_results_match_scalar_simulate_jobs(self):
        """One batch_simulate job == N scalar simulate jobs, per entry."""
        from repro.runner.executor import Runner
        from repro.runner.jobs import batch_simulate_job, simulate_job

        machines = [PLAYDOH_4W, PLAYDOH_8W]
        batch = batch_simulate_job(
            "compress", machines, scale=0.25, collect_metrics=True
        )
        scalars = [
            simulate_job("compress", m, scale=0.25, collect_metrics=True)
            for m in machines
        ]
        results = Runner(cache=None).run([batch] + scalars)
        batched = results[batch.key()]
        assert set(batched) == {m.fingerprint() for m in machines}
        for machine, job in zip(machines, scalars):
            assert dataclasses.asdict(
                batched[machine.fingerprint()]
            ) == dataclasses.asdict(results[job.key()])
