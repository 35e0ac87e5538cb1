"""Tests for whole-program compilation and dynamic simulation accounting."""

import pytest

from repro.compiler.manager import compile_program

from repro.core.metrics import OutcomeClass, classify_outcome
from repro.core.program_sim import simulate_program
from repro.profiling.profile_run import profile_program
from repro.trace.capture import capture_trace


class TestClassifyOutcome:
    def test_classes(self):
        assert classify_outcome(0, 0) is OutcomeClass.NOT_SPECULATED
        assert classify_outcome(3, 0) is OutcomeClass.ALL_CORRECT
        assert classify_outcome(3, 3) is OutcomeClass.ALL_INCORRECT
        assert classify_outcome(3, 1) is OutcomeClass.MIXED

    def test_more_mispredictions_than_predictions_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            classify_outcome(2, 3)
        with pytest.raises(ValueError, match="exceed"):
            classify_outcome(0, 1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            classify_outcome(-1, 0)
        with pytest.raises(ValueError, match="negative"):
            classify_outcome(3, -1)


@pytest.fixture(scope="module")
def compiled(request):
    from repro.machine.configs import PLAYDOH_4W
    from repro.workloads.suite import load_benchmark

    program = load_benchmark("compress", scale=0.3)
    profile = profile_program(program, capture_trace(program))
    return compile_program(program, PLAYDOH_4W, profile)


@pytest.fixture(scope="module")
def trace(compiled):
    return capture_trace(compiled.program)


class TestCompileProgram:
    def test_every_block_compiled(self, compiled):
        labels = {b.label for b in compiled.program.main}
        assert set(compiled.blocks) == labels

    def test_original_lengths_positive(self, compiled):
        for comp in compiled.blocks.values():
            assert comp.original_length > 0

    def test_speculated_blocks_have_schedules_and_baselines(self, compiled):
        assert compiled.speculated_labels
        for label in compiled.speculated_labels:
            comp = compiled.block(label)
            assert comp.spec_schedule is not None
            assert comp.baseline is not None
            assert comp.predicted_load_ids

    def test_predicted_load_ids_refer_to_original_loads(self, compiled):
        for label in compiled.speculated_labels:
            comp = compiled.block(label)
            block = compiled.program.main.block(label)
            load_ids = {op.op_id for op in block.loads()}
            assert set(comp.predicted_load_ids) <= load_ids

    def test_run_for_is_memoised(self, compiled):
        label = compiled.speculated_labels[0]
        comp = compiled.block(label)
        n = len(comp.predicted_load_ids)
        first = comp.run_for((True,) * n)
        second = comp.run_for((True,) * n)
        assert first is second

    def test_run_for_pattern_length_checked(self, compiled):
        comp = compiled.block(compiled.speculated_labels[0])
        with pytest.raises(ValueError, match="pattern"):
            comp.run_for((True,) * 7)

    def test_run_for_unspeculated_block_rejected(self, compiled):
        plain = next(
            c for c in compiled.blocks.values() if not c.speculated
        )
        with pytest.raises(RuntimeError, match="not speculated"):
            plain.run_for(())

    def test_weighted_fraction_bounds(self, compiled):
        best = compiled.weighted_length_fraction(best=True)
        worst = compiled.weighted_length_fraction(best=False)
        assert 0 < best < 1
        assert best <= worst


class TestDynamicSimulation:
    @pytest.fixture(scope="class")
    def result(self, compiled, trace):
        return simulate_program(compiled, trace)

    def test_class_cycles_partition_total(self, result):
        assert sum(result.cycles_by_class.values()) == result.cycles_proposed

    def test_class_instances_partition_blocks(self, result):
        assert sum(result.instances_by_class.values()) == result.dynamic_blocks

    def test_nopred_equals_sum_of_original_lengths(self, result, compiled):
        expected = sum(
            compiled.block(label).original_length * count
            for label, count in result_blocks(result, compiled).items()
        )
        assert result.cycles_nopred == expected

    def test_proposed_not_slower_than_nopred(self, result):
        assert result.cycles_proposed <= result.cycles_nopred
        assert result.speedup_proposed >= 1.0

    def test_proposed_beats_baseline(self, result):
        assert result.cycles_proposed <= result.cycles_baseline

    def test_prediction_accounting(self, result):
        assert 0 <= result.mispredictions <= result.predictions
        assert 0.0 <= result.prediction_accuracy <= 1.0

    def test_histogram_covers_speculated_instances(self, result):
        speculated_instances = sum(
            count
            for outcome, count in result.instances_by_class.items()
            if outcome is not OutcomeClass.NOT_SPECULATED
        )
        assert sum(result.length_delta_histogram.values()) == speculated_instances

    def test_time_fractions_sum_to_one(self, result):
        total = sum(result.time_fraction(c) for c in OutcomeClass)
        assert total == pytest.approx(1.0)

    def test_icache_modelling_only_adds_cycles(self, compiled, trace):
        plain = simulate_program(compiled, trace)
        cached = simulate_program(compiled, trace, model_icache=True)
        assert cached.cycles_proposed >= plain.cycles_proposed
        assert cached.cycles_baseline >= plain.cycles_baseline
        assert cached.baseline_icache_cycles >= cached.proposed_icache_cycles


def result_blocks(result, compiled):
    """Reconstruct dynamic block counts from the profile (the simulation
    executes the same deterministic program as the profiling run)."""
    return {
        label: compiled.profile.blocks.count(label) for label in compiled.blocks
    }
