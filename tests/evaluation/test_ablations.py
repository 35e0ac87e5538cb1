"""Ablations of the design choices DESIGN.md and EXPERIMENTS.md discuss.

Each test pins the shape of one ablation (which choice wins, by about
how much) on the shared scale-0.4 evaluation from ``conftest.py``:

* the Compensation Code Engine: the check-compare cost and the smallest
  Compensation Code Buffer (CCB) that never overflows;
* static memory disambiguation against value prediction;
* the run-time value predictor, the profile threshold, and predicting
  ALU results on top of loads.
"""

from dataclasses import replace

import pytest

from repro.core.ccb import CCBFull
from repro.core.machine_sim import (
    simulate_best_case,
    simulate_block,
    simulate_worst_case,
)
from repro.core.metrics import compile_program
from repro.core.program_sim import simulate_program
from repro.core.specsched import schedule_speculative
from repro.core.speculation import SpeculationConfig, transform_block
from repro.ddg.builder import build_ddg
from repro.evaluation.experiment import Evaluation, arithmetic_mean
from repro.evaluation.paper_example import EXAMPLE_LIVE_OUT, build_example_block
from repro.ir.builder import FunctionBuilder
from repro.machine.configs import PLAYDOH_4W
from repro.machine.predictor import PredictorSpec
from repro.profiling.profile_run import profile_program
from repro.sched.list_scheduler import ListScheduler, schedule_block
from repro.trace.capture import capture_trace
from repro.workloads.suite import load_benchmark


class TestCompensationCodeEngine:
    def test_check_compare_cost_feeds_recovery_latency(self):
        """Worst-case length of the paper's example as the check's
        compare stage gets more expensive."""
        lengths = []
        for compare_cost in (0, 1, 2):
            machine = replace(PLAYDOH_4W, check_compare_cost=compare_cost)
            function, load_r4, load_r7 = build_example_block()
            block = function.block("entry")
            original = schedule_block(block, machine).length
            spec = transform_block(
                block, machine, [load_r4, load_r7], live_out=EXAMPLE_LIVE_OUT
            )
            sched = schedule_speculative(spec, machine, original_length=original)
            lengths.append(simulate_worst_case(sched).effective_length)
        assert lengths == sorted(lengths)
        assert lengths[-1] > lengths[0]

    @staticmethod
    def _capacity_suffices(sched, capacity):
        outcomes = {op_id: False for op_id in sched.spec.ldpred_ids}
        try:
            simulate_block(sched, outcomes, ccb_capacity=capacity)
        except CCBFull:
            return False
        return True

    def test_small_ccb_suffices_and_the_bound_is_tight(self, evaluation):
        """The smallest CCB that survives every speculated block of the
        suite with every prediction wrong is small (the paper's "simple
        engine"), and some block overflows one entry less."""
        schedules = []
        for name in evaluation.benchmarks:
            comp = evaluation.compilation(name, evaluation.machine_4w)
            schedules += [comp.block(l).spec_schedule for l in comp.speculated_labels]
        needed = 1
        for sched in schedules:
            capacity = max(1, len(sched.spec.speculated_ops))
            while capacity > 1 and self._capacity_suffices(sched, capacity - 1):
                capacity -= 1
            needed = max(needed, capacity)
        assert 1 <= needed <= 16
        if needed > 1:
            assert any(
                not self._capacity_suffices(sched, needed - 1) for sched in schedules
            )


def _microkernel_fractions(machine):
    """A block where both techniques have something to do: an early
    store conservatively blocks a later, provably disjoint load that
    heads a long dependent chain."""
    fb = FunctionBuilder("micro")
    fb.block("entry")
    fb.mov("p", 1000)
    fb.store("acc", "p", offset=0)
    load = fb.load("a", "p", offset=8)
    fb.add("b", "a", 1)
    fb.mul("c", "b", "b")
    fb.add("d", "c", 7)
    fb.store("d", "p", offset=16)
    fb.halt()
    block = fb.build().block("entry")
    scheduler = ListScheduler(machine)
    conservative = scheduler.schedule_block(block).length
    disambiguated = scheduler.schedule_graph(
        "micro", build_ddg(block, machine, disambiguate=True)
    ).length
    spec = transform_block(block, machine, [load])
    sched = schedule_speculative(spec, machine, original_length=conservative)
    speculative = simulate_best_case(sched).effective_length
    return disambiguated / conservative, speculative / conservative


def test_disambiguation_recovers_less_than_prediction(evaluation):
    """Static disambiguation never beats prediction's best case:
    prediction breaks true dependences no alias proof can remove.
    Fractions are frequency-weighted speculated-block lengths."""
    machine = evaluation.machine_4w
    scheduler = ListScheduler(machine)
    rows = []
    for name in evaluation.benchmarks:
        comp = evaluation.compilation(name, machine)
        profile = evaluation.profile(name)
        conservative = disambiguated = speculative = 0.0
        for label in comp.speculated_labels:
            weight = profile.blocks.count(label)
            block_comp = comp.block(label)
            block = comp.program.main.block(label)
            precise = build_ddg(block, machine, disambiguate=True)
            conservative += weight * block_comp.original_length
            disambiguated += weight * scheduler.schedule_graph(label, precise).length
            speculative += weight * block_comp.best_case().effective_length
        rows.append((disambiguated / conservative, speculative / conservative))
    micro = _microkernel_fractions(machine)
    rows.append(micro)
    assert len(rows) == 9
    for disambiguation, prediction in rows:
        assert disambiguation <= 1.0 + 1e-9
        assert prediction <= disambiguation + 1e-9
    assert sum(p for _, p in rows) < sum(d for d, _ in rows)
    # The microkernel shows the full hierarchy.
    assert micro[1] < micro[0] < 1.0


def test_hybrid_predictor_needs_both_components(evaluation):
    """The compiler selects loads by best-of(stride, FCM) profile rates;
    swapping the run-time predictor shows why the hybrid is the default."""
    base = evaluation.machine_4w
    accuracy = {}
    speedup = {}
    for kind in ("last-value", "stride", "fcm", "hybrid"):
        machine = replace(
            base, name=f"{base.name}-{kind}", predictor=PredictorSpec(kind=kind)
        )
        predictions = correct = proposed = nopred = 0
        for name in evaluation.benchmarks:
            sim = evaluation.simulation(name, machine)
            predictions += sim.predictions
            correct += sim.predictions - sim.mispredictions
            proposed += sim.cycles_proposed
            nopred += sim.cycles_nopred
        accuracy[kind] = correct / predictions if predictions else 0.0
        speedup[kind] = nopred / proposed
    # The hybrid never loses materially to either component, and neither
    # component dominates the other by a wide margin.
    assert accuracy["hybrid"] >= accuracy["stride"] - 0.03
    assert accuracy["hybrid"] >= accuracy["fcm"] - 0.03
    assert abs(accuracy["stride"] - accuracy["fcm"]) < 0.45
    # Selection was gated on profiled predictability, so every predictor
    # still wins overall.
    for label, value in speedup.items():
        assert value > 0.95, label


THRESHOLDS = (0.5, 0.65, 0.8, 0.95)


@pytest.fixture(scope="module")
def threshold_rows(evaluation):
    """(eligible loads, dynamic predictions, accuracy, mean speedup) per
    threshold; the paper's 0.65 reuses the shared evaluation."""
    rows = []
    for threshold in THRESHOLDS:
        run = (
            evaluation
            if threshold == evaluation.settings.spec_config.threshold
            else Evaluation(evaluation.settings.with_threshold(threshold))
        )
        eligible = predictions = correct = 0
        speedups = []
        for name in run.benchmarks:
            eligible += len(run.profile(name).values.predictable_loads(threshold))
            sim = run.simulation(name, run.machine_4w)
            predictions += sim.predictions
            correct += sim.predictions - sim.mispredictions
            speedups.append(sim.speedup_proposed)
        accuracy = correct / predictions if predictions else 1.0
        rows.append((eligible, predictions, accuracy, arithmetic_mean(speedups)))
    return rows


class TestThresholdSweep:
    def test_stricter_threshold_selects_fewer_loads(self, threshold_rows):
        eligible = [row[0] for row in threshold_rows]
        assert eligible == sorted(eligible, reverse=True)
        # Greedy selection can pick slightly different sets, so dynamic
        # counts are compared only end to end.
        assert threshold_rows[-1][1] <= threshold_rows[0][1]

    def test_strictest_threshold_is_most_accurate(self, threshold_rows):
        accuracies = [row[2] for row in threshold_rows if row[1]]
        assert accuracies[-1] == max(accuracies)

    def test_paper_operating_point_speculates(self, threshold_rows):
        _, predictions, _, mean_speedup = threshold_rows[THRESHOLDS.index(0.65)]
        assert predictions > 0
        assert mean_speedup > 1.0


def test_alu_prediction_adds_to_load_prediction(evaluation):
    """Predicting long-latency ALU results (profiled like loads) on top
    of loads: at least as many predictions, never a material slowdown."""
    configs = {
        "loads": SpeculationConfig(),
        "loads+alu": SpeculationConfig(predict_alu=True),
    }
    predictions = dict.fromkeys(configs, 0)
    speedups = {label: [] for label in configs}
    for name in evaluation.benchmarks:
        program = load_benchmark(name, scale=evaluation.settings.scale)
        trace = capture_trace(program)
        profile = profile_program(program, trace, profile_alu=True)
        for label, config in configs.items():
            compilation = compile_program(program, PLAYDOH_4W, profile, config=config)
            predictions[label] += sum(
                len(compilation.block(l).predicted_load_ids)
                for l in compilation.speculated_labels
            )
            speedups[label].append(
                simulate_program(compilation, trace).speedup_proposed
            )
    assert predictions["loads+alu"] >= predictions["loads"]
    # Selection only accepts improvements, but run-time accuracy can
    # differ slightly.
    mean_loads = arithmetic_mean(speedups["loads"])
    assert arithmetic_mean(speedups["loads+alu"]) >= mean_loads - 0.01
