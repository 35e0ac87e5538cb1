"""Property test: CPI stacks sum exactly to simulated cycles.

Random programs from the synthetic fuzzer go through the full pipeline
(profile, compile, simulate) on several machine specs — including a
bounded-CCB/OVB variant that exercises the ``ccb_pressure`` path — and
at several speculation thresholds.  On every one, the cycle-accounting
invariant must hold at both granularities:

* **block level**: ``sum(BlockRun.cycle_stack) == effective_length``
  for both the all-correct and all-wrong prediction patterns (the VLIW
  engine and the CC engine both contribute cycles);
* **program level**: each of the three machine models' stacks sums
  exactly to its simulated cycle total.
"""

from __future__ import annotations

import pytest

from repro.core.metrics import compile_program
from repro.core.program_sim import simulate_program
from repro.core.speculation import SpeculationConfig
from repro.machine.configs import PLAYDOH_4W, PLAYDOH_8W, PLAYDOH_4W_SPEC
from repro.obs.cycles import CAUSES
from repro.profiling.profile_run import profile_program
from repro.trace.capture import capture_trace
from repro.workloads.synthetic import random_program

#: Tight CCB so the fuzz actually visits ``ccb_pressure`` back-pressure
#: (a full CCB stalls issue; a full OVB is a hard error, so its bound
#: stays above what the fuzzer's speculation can fill).
TIGHT_4W = PLAYDOH_4W_SPEC.override(
    name="playdoh-4w-tight", ccb_capacity=2, ovb_capacity=16
).build()

MACHINES = (PLAYDOH_4W, PLAYDOH_8W, TIGHT_4W)
SEEDS = list(range(8))


def _assert_block_invariants(compilation):
    from repro.core.machine_sim import simulate_block

    for label in compilation.speculated_labels:
        spec_schedule = compilation.block(label).spec_schedule
        ldpreds = spec_schedule.spec.ldpred_ids
        for correct in (True, False):
            run = simulate_block(
                spec_schedule,
                {op: correct for op in ldpreds},
                collect_cycles=True,
            )
            stack = dict(run.cycle_stack)
            assert sum(stack.values()) == run.effective_length, (
                label,
                correct,
                stack,
            )
            assert all(cycles > 0 for cycles in stack.values())


def _assert_program_invariants(result):
    assert result.cycle_stacks is not None
    totals = {
        "nopred": result.cycles_nopred,
        "proposed": result.cycles_proposed,
        "baseline": result.cycles_baseline,
    }
    assert set(result.cycle_stacks) == set(totals)
    for model, stack in result.cycle_stacks.items():
        assert sum(stack.values()) == totals[model], (model, stack)
        assert all(cycles > 0 for cycles in stack.values())
        assert set(stack) <= set(CAUSES)


@pytest.mark.parametrize("seed", SEEDS)
def test_cycle_stacks_sum_on_random_programs(seed):
    program = random_program(seed)
    trace = capture_trace(program)
    profile = profile_program(program, trace)
    for machine in MACHINES:
        compilation = compile_program(program, machine, profile)
        _assert_block_invariants(compilation)
        result = simulate_program(compilation, trace, collect_cycles=True)
        _assert_program_invariants(result)


@pytest.mark.parametrize("threshold", (0.5, 0.65, 0.9))
def test_cycle_stacks_sum_across_thresholds(threshold):
    """The invariant is threshold-independent: sweeping speculation
    aggressiveness changes *what* is charged, never the totals."""
    config = SpeculationConfig(threshold=threshold)
    for seed in (1, 4):
        program = random_program(seed)
        trace = capture_trace(program)
        profile = profile_program(program, trace)
        for machine in (PLAYDOH_4W, TIGHT_4W):
            compilation = compile_program(program, machine, profile, config)
            result = simulate_program(compilation, trace, collect_cycles=True)
            _assert_program_invariants(result)


def test_tight_ccb_charges_ccb_pressure():
    """The bounded-CCB machine must actually visit the back-pressure
    path somewhere in the seed set, or the fuzz proves nothing about
    the ``ccb_pressure`` cause."""
    pressure = 0
    for seed in SEEDS:
        program = random_program(seed)
        trace = capture_trace(program)
        profile = profile_program(program, trace)
        compilation = compile_program(program, TIGHT_4W, profile)
        result = simulate_program(compilation, trace, collect_cycles=True)
        pressure += result.cycle_stacks["proposed"].get("ccb_pressure", 0)
    assert pressure > 0


def test_disabled_collection_leaves_no_stacks():
    program = random_program(0)
    trace = capture_trace(program)
    profile = profile_program(program, trace)
    compilation = compile_program(program, PLAYDOH_4W, profile)
    result = simulate_program(compilation, trace)
    assert result.cycle_stacks is None
