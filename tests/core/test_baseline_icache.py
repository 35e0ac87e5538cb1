"""Tests for the statically-recovered baseline ([4]) and the i-cache."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baseline import build_baseline_block, simulate_baseline_block
from repro.core.icache import CodeLayout, ICacheConfig, count_misses
from repro.core.machine_sim import simulate_best_case, simulate_worst_case
from repro.compiler.manager import compile_program
from repro.core.program_sim import simulate_program
from repro.core.specsched import schedule_speculative
from repro.core.speculation import transform_block
from repro.ir.builder import FunctionBuilder
from repro.machine.configs import PLAYDOH_4W
from repro.profiling.profile_run import profile_program
from repro.sched.list_scheduler import schedule_block
from repro.trace.capture import capture_trace
from repro.workloads.suite import load_suite
from tests.trace.reference_runs import InstructionCache


def _baseline(spec, machine, original_length):
    return build_baseline_block(
        schedule_speculative(spec, machine, original_length=original_length),
        machine,
    )


@pytest.fixture
def spec_and_machine(m4):
    fb = FunctionBuilder("f")
    fb.block("entry")
    fb.mov("p", 100)
    load = fb.load("a", "p")
    fb.add("b", "a", 1)
    fb.mul("c", "b", "b")
    fb.store("c", "p", offset=10)
    fb.halt()
    block = fb.build().block("entry")
    spec = transform_block(block, m4, [load])
    return spec, m4, schedule_block(block, m4).length


class TestCompensationBlocks:
    def test_one_block_per_prediction(self, spec_and_machine):
        spec, m4, orig = spec_and_machine
        baseline = _baseline(spec, m4, orig)
        assert set(baseline.compensation) == set(spec.ldpred_ids)

    def test_compensation_contains_the_speculated_ops(self, spec_and_machine):
        spec, m4, orig = spec_and_machine
        baseline = _baseline(spec, m4, orig)
        comp = baseline.compensation[spec.ldpred_ids[0]]
        assert comp.op_count == 2  # add and mul
        # dependent ops schedule serially: add(1) then mul(3)
        assert comp.length == 4
        assert sum(c.op_count for c in baseline.compensation.values()) == 2

    def test_code_growth_reported(self, spec_and_machine):
        spec, m4, orig = spec_and_machine
        baseline = _baseline(spec, m4, orig)
        assert sum(c.op_count for c in baseline.compensation.values()) > 0


class TestBaselineTiming:
    def test_correct_prediction_costs_main_schedule_only(self, spec_and_machine):
        spec, m4, orig = spec_and_machine
        baseline = _baseline(spec, m4, orig)
        run = simulate_baseline_block(
            baseline, {spec.ldpred_ids[0]: True}, m4
        )
        assert run.effective_length == baseline.main_length
        assert run.compensation_cycles == 0
        assert run.branch_cycles == 0

    def test_misprediction_pays_serial_recovery_and_branches(self, spec_and_machine):
        spec, m4, orig = spec_and_machine
        baseline = _baseline(spec, m4, orig)
        run = simulate_baseline_block(
            baseline, {spec.ldpred_ids[0]: False}, m4
        )
        comp = baseline.compensation[spec.ldpred_ids[0]]
        assert run.compensation_cycles == comp.length
        assert run.branch_cycles == 2 * m4.branch_penalty
        assert run.effective_length == (
            baseline.main_length + comp.length + 2 * m4.branch_penalty
        )

    def test_proposed_beats_baseline_on_mispredict(self, spec_and_machine):
        """The paper's headline comparison: parallel recovery beats the
        serial statically scheduled recovery."""
        spec, m4, orig = spec_and_machine
        baseline = _baseline(spec, m4, orig)
        spec_schedule = schedule_speculative(spec, m4, original_length=orig)
        proposed = simulate_worst_case(spec_schedule)
        static = simulate_baseline_block(
            baseline, {l: False for l in spec.ldpred_ids}, m4
        )
        assert proposed.effective_length < static.effective_length

    def test_equal_on_all_correct(self, spec_and_machine):
        spec, m4, orig = spec_and_machine
        baseline = _baseline(spec, m4, orig)
        spec_schedule = schedule_speculative(spec, m4, original_length=orig)
        proposed = simulate_best_case(spec_schedule)
        static = simulate_baseline_block(
            baseline, {l: True for l in spec.ldpred_ids}, m4
        )
        assert proposed.effective_length == static.effective_length

    def test_missing_outcomes_rejected(self, spec_and_machine):
        spec, m4, orig = spec_and_machine
        baseline = _baseline(spec, m4, orig)
        with pytest.raises(ValueError, match="missing outcomes"):
            simulate_baseline_block(baseline, {}, m4)


class TestInstructionCache:
    def test_cold_misses(self):
        cache = InstructionCache(ICacheConfig(lines=4, miss_penalty=5))
        assert cache.access_range(0, 2) == 10
        assert cache.misses == 2

    def test_hits_after_warmup(self):
        cache = InstructionCache(ICacheConfig(lines=4, miss_penalty=5))
        cache.access_range(0, 2)
        assert cache.access_range(0, 2) == 0
        assert cache.miss_rate == pytest.approx(0.5)

    def test_conflict_eviction(self):
        cache = InstructionCache(ICacheConfig(lines=2, miss_penalty=1))
        cache.access_range(0, 1)     # line 0 -> index 0
        cache.access_range(2, 1)     # line 2 -> index 0: evicts line 0
        assert cache.access_range(0, 1) == 1  # miss again

    def test_invalid_access(self):
        cache = InstructionCache()
        with pytest.raises(ValueError):
            cache.access_range(0, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ICacheConfig(lines=0)

    def test_lines_for(self):
        config = ICacheConfig(ops_per_line=4)
        assert config.lines_for(1) == 1
        assert config.lines_for(4) == 1
        assert config.lines_for(5) == 2

    def test_reset(self):
        cache = InstructionCache()
        cache.access_range(0, 3)
        cache.reset()
        assert cache.accesses == 0 and cache.misses == 0


@settings(max_examples=60, deadline=None)
@given(
    lines=st.lists(st.integers(min_value=0, max_value=40), max_size=60),
    sets=st.integers(min_value=1, max_value=8),
)
def test_stream_fold_equals_cache_walk(lines, sets):
    """``count_misses`` over a whole fetch stream counts exactly the misses
    of the stateful cache fetching it line by line."""
    config = ICacheConfig(lines=sets)
    cache = InstructionCache(config)
    for line in lines:
        cache.access_range(line, 1)
    assert count_misses(config, np.array(lines, dtype=np.int64)) == cache.misses


class TestCodeLayout:
    def test_contiguous_placement(self):
        layout = CodeLayout(ICacheConfig(ops_per_line=4))
        first = layout.place("a", 8)   # 2 lines
        second = layout.place("b", 1)  # 1 line
        assert first == (0, 2)
        assert second == (2, 1)
        assert layout.total_lines == 3

    def test_duplicate_placement_rejected(self):
        layout = CodeLayout()
        layout.place("a", 1)
        with pytest.raises(ValueError, match="already placed"):
            layout.place("a", 1)

    def test_missing_block(self):
        with pytest.raises(KeyError, match="never placed"):
            CodeLayout().range_of("ghost")

    def test_fetch_through_cache(self):
        config = ICacheConfig(lines=8, miss_penalty=3)
        layout = CodeLayout(config)
        cache = InstructionCache(config)
        layout.place("main", 4)
        assert cache.fetch(layout, "main") == 3
        assert cache.fetch(layout, "main") == 0

    def test_pollution_scenario(self):
        """Compensation blocks evict main code: the paper's cache story."""
        config = ICacheConfig(lines=2, ops_per_line=4, miss_penalty=1)
        layout = CodeLayout(config)
        polluted = InstructionCache(config)
        clean = InstructionCache(config)
        layout.place("main", 8)   # 2 lines: fills the cache
        layout.place("comp", 8)   # 2 lines: aliases main's lines
        # Clean machine: main stays resident.
        clean.fetch(layout, "main")
        assert clean.fetch(layout, "main") == 0
        # Polluted machine: recovery evicts main every time.
        polluted.fetch(layout, "main")
        polluted.fetch(layout, "comp")
        assert polluted.fetch(layout, "main") == 2


# -- whole-program icache runs -------------------------------------------------

SUITE = load_suite(scale=0.25)

#: Result fields an icache run changes; every other field must match the
#: same run without the cache model.
ICACHE_FIELDS = {
    "cycles_nopred",
    "cycles_proposed",
    "cycles_squash",
    "cycles_baseline",
    "proposed_icache_cycles",
    "baseline_icache_cycles",
    "cycle_stacks",
    "metrics",
}


@pytest.fixture(scope="module")
def compiled_suite():
    """One compilation and one trace per suite benchmark, on PLAYDOH_4W."""
    out = {}
    for name, program in SUITE.items():
        trace = capture_trace(program)
        profile = profile_program(program, trace)
        out[name] = (compile_program(program, PLAYDOH_4W, profile), trace)
    return out


def _pair(compilation, trace):
    plain, icache = (
        simulate_program(
            compilation,
            trace,
            model_icache=model_icache,
            collect_cycles=True,
            collect_metrics=True,
        )
        for model_icache in (False, True)
    )
    return plain, icache


@pytest.mark.parametrize("name", sorted(SUITE))
def test_icache_adds_only_fetch_penalties(compiled_suite, name):
    """Modelling the icache adds its miss penalties on top of a run and
    changes nothing else: no class, histogram, counter or cause moves."""
    plain, icache = _pair(*compiled_suite[name])
    proposed = icache.proposed_icache_cycles
    baseline = icache.baseline_icache_cycles
    assert proposed > 0 and baseline > 0
    assert plain.proposed_icache_cycles == plain.baseline_icache_cycles == 0
    for attr in ("cycles_nopred", "cycles_proposed", "cycles_squash"):
        assert getattr(icache, attr) - getattr(plain, attr) == proposed
    assert icache.cycles_baseline - plain.cycles_baseline == baseline

    plain_fields, icache_fields = (
        {k: v for k, v in dataclasses.asdict(r).items() if k not in ICACHE_FIELDS}
        for r in (plain, icache)
    )
    assert icache_fields == plain_fields

    for model, penalty in (
        ("nopred", proposed),
        ("proposed", proposed),
        ("baseline", baseline),
    ):
        stack = dict(icache.cycle_stacks[model])
        assert stack.pop("icache_miss") == penalty
        assert stack == plain.cycle_stacks[model]

    assert icache.metrics.gauges == plain.metrics.gauges
    icache_counters = {
        k: v
        for k, v in icache.metrics.counters.items()
        if not k.startswith("icache.") and "cause=icache_miss" not in k
    }
    assert icache_counters == plain.metrics.counters


@pytest.mark.parametrize("name", sorted(SUITE))
def test_icache_runs_fold_dual_engine_histograms_by_frequency(
    compiled_suite, name
):
    """Icache runs fold per-pattern metrics like every other run: each
    pattern's histogram samples enter once, weighted by its count."""
    plain, icache = _pair(*compiled_suite[name])
    assert icache.metrics.histograms == plain.metrics.histograms
