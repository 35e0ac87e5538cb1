"""Differential suite: batched engine vs scalar engine, byte for byte.

The batched struct-of-arrays engine promises *byte identity* with the
scalar replay engine across the whole machine space — wide and narrow
issue, bounded CCBs, every speculation threshold.  These tests are the
contract: the golden suite runs both engines on a machine x threshold
grid, and hypothesis drives random synthetic programs through the same
comparison.  ``simulate_program`` picks the batched engine for all of
these points, so the scalar side is forced through
:func:`tests.trace.reference_runs.scalar_simulation`.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batchsim.context import BatchContext, default_context
from repro.batchsim.engine import batch_counts
from repro.core.metrics import compile_program
from repro.core.program_sim import simulate_program
from repro.core.speculation import SpeculationConfig
from repro.machine.configs import PLAYDOH_4W, PLAYDOH_8W, PLAYDOH_4W_SPEC
from repro.machine.predictor import PredictorSpec
from repro.profiling.profile_run import profile_program
from repro.trace.capture import capture_trace
from repro.workloads.suite import load_suite
from repro.workloads.synthetic import random_program
from tests.trace.reference_runs import scalar_simulation

#: The ISSUE's machine grid: the paper's 4-wide, the Table 4 8-wide,
#: and a tight-CCB variant so compensation back-pressure (the one
#: machine feature that couples block instances) is on the grid too.
TIGHT_CCB = PLAYDOH_4W_SPEC.override(
    name="playdoh-4w-tightccb", ccb_capacity=8, ovb_capacity=64
).build()

MACHINES = (PLAYDOH_4W, PLAYDOH_8W, TIGHT_CCB)
THRESHOLDS = (0.5, 0.8)

SUITE = load_suite(scale=0.25)
TRACES = {name: capture_trace(program) for name, program in SUITE.items()}
PROFILES = {
    name: profile_program(program, TRACES[name]) for name, program in SUITE.items()
}


def assert_results_identical(scalar, batched):
    assert dataclasses.asdict(scalar) == dataclasses.asdict(batched)


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("workload", sorted(SUITE))
class TestGoldenSuiteParity:
    def test_batched_equals_scalar(self, workload, machine, threshold):
        compilation = compile_program(
            SUITE[workload],
            machine,
            PROFILES[workload],
            config=SpeculationConfig(threshold=threshold),
        )
        trace = TRACES[workload]
        scalar = scalar_simulation(compilation, trace)
        batched = simulate_program(compilation, trace)
        assert_results_identical(scalar, batched)


class TestMetricsAndContexts:
    def test_metrics_snapshots_match(self):
        """collect_metrics parity: counters, not just cycle totals."""
        compilation = compile_program(
            SUITE["compress"], PLAYDOH_4W, PROFILES["compress"]
        )
        trace = TRACES["compress"]
        scalar = scalar_simulation(compilation, trace, collect_metrics=True)
        batched = simulate_program(compilation, trace, collect_metrics=True)
        assert_results_identical(scalar, batched)

    def test_cycle_stacks_match(self):
        compilation = compile_program(
            SUITE["swim"], PLAYDOH_8W, PROFILES["swim"]
        )
        trace = TRACES["swim"]
        scalar = scalar_simulation(compilation, trace, collect_cycles=True)
        batched = simulate_program(compilation, trace, collect_cycles=True)
        assert_results_identical(scalar, batched)

    def test_explicit_context_equals_default(self):
        """A caller-owned BatchContext gives the same counts as the
        process-wide one, and reusing it across points is harmless."""
        compilation = compile_program(
            SUITE["compress"], PLAYDOH_4W, PROFILES["compress"]
        )
        trace = TRACES["compress"]
        context = BatchContext()
        first = batch_counts(compilation, trace, context, None)
        second = batch_counts(compilation, trace, context, None)
        via_default = batch_counts(compilation, trace, default_context(), None)
        assert first == second == via_default
        assert context.stats()["arrays.hits"] > 0  # second run shared the decode

    def test_off_path_points_fall_back_identically(self):
        """A finite value-prediction table leaves the batched fast path;
        with a table too large to conflict, the scalar replay must agree
        with the batched run field for field."""
        machine = PLAYDOH_4W_SPEC.override(
            name="playdoh-4w-vpt64k",
            predictor=PredictorSpec(table_entries=1 << 16),
        ).build()
        compilations = [
            compile_program(SUITE[name], m, PROFILES[name])
            for name in ("ijpeg", "m88ksim")
            for m in (PLAYDOH_4W, machine)
        ]
        for unbounded, tabled in zip(compilations[::2], compilations[1::2]):
            trace = TRACES[unbounded.program.name]
            batched = simulate_program(unbounded, trace, collect_cycles=True)
            scalar = simulate_program(tabled, trace, collect_cycles=True)
            assert scalar.table_tag_misses == 0
            assert batched.predictions > 0
            assert dataclasses.replace(
                scalar, machine_name=batched.machine_name
            ) == batched


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    machine_idx=st.integers(min_value=0, max_value=len(MACHINES) - 1),
    threshold=st.sampled_from((0.5, 0.65, 0.8)),
)
def test_random_programs_batched_equals_scalar(seed, machine_idx, threshold):
    program = random_program(seed)
    machine = MACHINES[machine_idx]
    trace = capture_trace(program)
    profile = profile_program(program, trace)
    compilation = compile_program(
        program, machine, profile, config=SpeculationConfig(threshold=threshold)
    )
    scalar = scalar_simulation(compilation, trace)
    batched = simulate_program(compilation, trace)
    assert_results_identical(scalar, batched)
