"""Differential suite: the column engine vs the scalar reference, byte
for byte.

``simulate_program`` takes its counts from the column engine
(:func:`repro.batchsim.engine.batch_counts`) for every run.  These tests
are its contract across the whole machine space — wide and narrow
issue, bounded CCBs, every speculation threshold, finite value
prediction tables that conflict, and instruction-cache modelling: the
golden suite compares every result field with the scalar reference
replay (:func:`tests.trace.reference_runs.scalar_simulation`) on a
machine x threshold x icache grid, and hypothesis drives random
synthetic programs through the same comparison.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batchsim.context import BatchContext, default_context
from repro.batchsim.engine import batch_counts
from repro.compiler.manager import compile_program
from repro.core.program_sim import simulate_program
from repro.core.speculation import SpeculationConfig
from repro.machine.configs import PLAYDOH_4W, PLAYDOH_8W, PLAYDOH_4W_SPEC
from repro.machine.predictor import PredictorSpec
from repro.profiling.profile_run import profile_program
from repro.trace.capture import capture_trace
from repro.workloads.suite import load_suite
from repro.workloads.synthetic import random_program
from tests.trace.reference_runs import scalar_simulation

#: The paper's 4-wide, the Table 4 8-wide, and a tight-CCB variant so
#: compensation back-pressure (the one machine feature that couples
#: block instances) is on the grid too.
TIGHT_CCB = PLAYDOH_4W_SPEC.override(
    name="playdoh-4w-tightccb", ccb_capacity=8, ovb_capacity=64
).build()


def _table_machine(entries):
    return PLAYDOH_4W_SPEC.override(
        name=f"playdoh-4w-vpt{entries}",
        predictor=PredictorSpec(table_entries=entries),
    ).build()


#: Finite value-prediction tables: one slot (every pair of predicted ops
#: conflicts), four slots, and one large enough never to conflict.
TABLE_MACHINES = tuple(_table_machine(entries) for entries in (1, 4, 1 << 16))

MACHINES = (PLAYDOH_4W, PLAYDOH_8W, TIGHT_CCB) + TABLE_MACHINES
THRESHOLDS = (0.5, 0.8)

SUITE = load_suite(scale=0.25)
TRACES = {name: capture_trace(program) for name, program in SUITE.items()}
PROFILES = {
    name: profile_program(program, TRACES[name]) for name, program in SUITE.items()
}


def assert_results_identical(scalar, batched):
    assert dataclasses.asdict(scalar) == dataclasses.asdict(batched)


def predicted_ops_run(compilation, trace):
    """How many distinct predicted ops the run executes."""
    executed = {trace.labels[i] for i in set(trace.block_seq)}
    return sum(
        len(comp.predicted_load_ids)
        for label, comp in compilation.blocks.items()
        if comp.speculated and label in executed
    )


def assert_points_exercised(result, compilation, trace, model_icache):
    """The features under test really acted on this point.

    A one-slot table steals an entry as soon as two predicted ops run
    (on the golden suite: ijpeg at 0.5, li at both thresholds); with one
    predicted op there is nothing to conflict with.  Every icache run
    misses at least on its cold fetches.
    """
    if compilation.machine.predictor.table_entries == 1:
        if predicted_ops_run(compilation, trace) >= 2:
            assert result.table_tag_misses > 0
    if model_icache:
        assert result.proposed_icache_cycles > 0
        assert result.baseline_icache_cycles >= result.proposed_icache_cycles
    else:
        assert result.proposed_icache_cycles == result.baseline_icache_cycles == 0


@pytest.mark.parametrize("model_icache", (False, True), ids=("plain", "icache"))
@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("workload", sorted(SUITE))
class TestGoldenSuiteParity:
    def test_batched_equals_scalar(self, workload, machine, threshold, model_icache):
        compilation = compile_program(
            SUITE[workload],
            machine,
            PROFILES[workload],
            config=SpeculationConfig(threshold=threshold),
        )
        trace = TRACES[workload]
        scalar = scalar_simulation(compilation, trace, model_icache=model_icache)
        batched = simulate_program(compilation, trace, model_icache=model_icache)
        assert_results_identical(scalar, batched)
        assert_points_exercised(batched, compilation, trace, model_icache)


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

    @pytest.mark.parametrize(
        "machine", (PLAYDOH_4W,) + TABLE_MACHINES[:2], ids=lambda m: m.name
    )
    def test_icache_and_table_observability_matches(self, machine):
        """Metrics snapshots (``icache.*`` and ``predict.*`` counters
        included) and cycle stacks (``icache_miss`` included) of icache
        runs, on unbounded and conflicting tables."""
        compilation = compile_program(SUITE["ijpeg"], machine, PROFILES["ijpeg"])
        trace = TRACES["ijpeg"]
        options = dict(model_icache=True, collect_metrics=True, collect_cycles=True)
        scalar = scalar_simulation(compilation, trace, **options)
        batched = simulate_program(compilation, trace, **options)
        assert_results_identical(scalar, batched)
        assert batched.metrics.counters["icache.miss{baseline}"] > 0
        assert batched.cycle_stacks["baseline"]["icache_miss"] > 0

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
        """A finite value-prediction table too large to conflict must
        agree with the unbounded table field for field."""
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
            plain = simulate_program(unbounded, trace, collect_cycles=True)
            table = simulate_program(tabled, trace, collect_cycles=True)
            assert table.table_tag_misses == 0
            assert plain.predictions > 0
            assert dataclasses.replace(
                table, machine_name=plain.machine_name
            ) == plain


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    machine_idx=st.integers(min_value=0, max_value=len(MACHINES) - 1),
    threshold=st.sampled_from((0.5, 0.65, 0.8)),
    model_icache=st.booleans(),
)
def test_random_programs_batched_equals_scalar(
    seed, machine_idx, threshold, model_icache
):
    program = random_program(seed)
    machine = MACHINES[machine_idx]
    trace = capture_trace(program)
    profile = profile_program(program, trace)
    compilation = compile_program(
        program, machine, profile, config=SpeculationConfig(threshold=threshold)
    )
    scalar = scalar_simulation(compilation, trace, model_icache=model_icache)
    batched = simulate_program(compilation, trace, model_icache=model_icache)
    assert_results_identical(scalar, batched)
    assert_points_exercised(batched, compilation, trace, model_icache)
