"""The static safety checker agrees with simulating every outcome.

:func:`repro.core.specsched.check_schedule` proves a speculative
schedule safe from its static facts; :func:`simulate_all_outcomes` is
the oracle it replaced.  On every schedule the compiler can build (the
greedy trial sets of the suite at three thresholds on both paper
machines, under the default pass config and with ALU prediction and
live-out speculation, random blocks, each both as the plain list
schedule and as repaired by ``schedule_speculative``) and under bounded
CCBs and OVBs,
the checker accepts exactly when no outcome pattern deadlocks, and
raises ``CCBFull``/``OVBFull`` exactly when a pattern does, with the
same message.  Mutated schedules (one SYNC edge dropped, a live bit
reused, the CCB-order repair skipped) are rejected.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import speculation
from repro.core.cc_engine import SimulationDeadlock
from repro.core.ccb import CCBFull
from repro.core.isa_ext import OpForm
from repro.core.machine_sim import simulate_all_outcomes
from repro.compiler.manager import compile_program
from repro.core.ovb import OVBFull
from repro.core.specsched import (
    annotate,
    ccb_order_conflicts,
    check_schedule,
    schedule_speculative,
)
from repro.core.speculation import SpeculationConfig
from repro.ddg.graph import DepKind, DependenceGraph
from repro.evaluation.experiment import Evaluation, EvaluationSettings
from repro.ir.opcodes import Opcode
from repro.machine.configs import PLAYDOH_4W, PLAYDOH_8W
from repro.profiling.profile_run import profile_program
from repro.sched.list_scheduler import ListScheduler
from repro.trace.capture import capture_trace
from repro.workloads.suite import load_benchmark
from tests.core.test_speculation_properties import _ops_strategy, build_random_block

#: (ccb_capacity, ovb_capacity) variants every schedule is checked under.
CAPACITIES = ((None, None), (1, None), (2, None), (4, None), (None, 3), (2, 3))


def _oracle(spec_schedule):
    """What simulating every outcome pattern ends in."""
    try:
        simulate_all_outcomes(spec_schedule)
    except SimulationDeadlock:
        return "deadlock"
    except (CCBFull, OVBFull) as exc:
        return type(exc), str(exc)
    return None


def _static(spec_schedule):
    """The same verdict, from the checker."""
    try:
        check = check_schedule(spec_schedule)
    except (CCBFull, OVBFull) as exc:
        return type(exc), str(exc)
    return None if check.violation is None else "deadlock"


def _bounded(spec_schedule, ccb, ovb):
    """``spec_schedule`` on its machine with the given buffer bounds."""
    machine = (
        spec_schedule.schedule.machine.spec()
        .override(ccb_capacity=ccb, ovb_capacity=ovb)
        .build()
    )
    return dataclasses.replace(
        spec_schedule, schedule=spec_schedule.schedule.rebound(machine)
    )


def _plain_and_repaired(spec, machine):
    """The transform's plain list schedule and the repaired one."""
    plain = ListScheduler(machine).schedule_graph(spec.label, spec.graph)
    return (
        annotate(spec, plain, 0),
        schedule_speculative(spec, machine, original_length=0, schedule=plain),
    )


def _assert_agree(spec_schedule):
    for ccb, ovb in CAPACITIES:
        bounded = _bounded(spec_schedule, ccb, ovb)
        assert _static(bounded) == _oracle(bounded), (spec_schedule, ccb, ovb)


THRESHOLDS = (0.5, 0.65, 0.8)

#: Pass configs beyond the default, selected over an ALU-tracking profile.
VARIANTS = {
    "alu": SpeculationConfig(predict_alu=True),
    "liveout": SpeculationConfig(speculate_liveout=True),
    "alu+liveout": SpeculationConfig(predict_alu=True, speculate_liveout=True),
}


@pytest.fixture(scope="module")
def recorded_trials():
    """Every trial transform greedy selection builds for the suite at
    scale 1.0 and thresholds 0.5/0.65/0.8, under the default pass config
    and each of :data:`VARIANTS`: ``(config label, spec, live_out)``."""
    trials = []
    original = speculation.transform_block

    def recording(block, machine, predicted, live_out=frozenset(), config=None, *rest):
        spec = original(block, machine, predicted, live_out, config, *rest)
        trials.append((label, spec, live_out))
        return spec

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(speculation, "transform_block", recording)
        label = "default"
        for threshold in THRESHOLDS:
            evaluation = Evaluation(EvaluationSettings(scale=1.0).with_threshold(threshold))
            for name in evaluation.benchmarks:
                for machine in (evaluation.machine_4w, evaluation.machine_8w):
                    evaluation.compilation(name, machine)
        for name in evaluation.benchmarks:
            program = load_benchmark(name, scale=1.0)
            profile = profile_program(program, capture_trace(program), profile_alu=True)
            for label, variant in VARIANTS.items():
                for threshold in THRESHOLDS:
                    config = dataclasses.replace(variant, threshold=threshold)
                    for machine in (PLAYDOH_4W, PLAYDOH_8W):
                        compile_program(program, machine, profile, config=config)
    return trials


@pytest.fixture(scope="module")
def suite_trials(recorded_trials):
    """Each recorded trial paired with each paper machine (the two share
    transforms: they have one latency table)."""
    return [
        (spec, machine)
        for _, spec, _ in recorded_trials
        for machine in (PLAYDOH_4W, PLAYDOH_8W)
    ]


@pytest.fixture(scope="module")
def suite_schedules(suite_trials):
    """``(plain, repaired)`` speculative schedules of every suite trial."""
    return [_plain_and_repaired(spec, machine) for spec, machine in suite_trials]


def test_the_suite_builds_multi_prediction_and_repaired_trials(suite_schedules):
    assert len(suite_schedules) > 100
    assert any(p.spec.num_predictions > 2 for p, _ in suite_schedules)
    assert any(r.ccb_order_edges for _, r in suite_schedules)


def test_the_variants_predict_alu_ops_and_speculate_live_outs(recorded_trials):
    """The variant configs reach transforms the default never builds: an
    ALU result predicted (its check is the op itself, not ``CHKPRED``),
    and a speculated op whose result is live out of the block."""

    def predicts_alu(spec):
        return any(
            spec.info[op.op_id].form is OpForm.CHECK and op.opcode is not Opcode.CHKPRED
            for op in spec.operations
        )

    def speculates_live_out(spec, live_out):
        return any(
            spec.info[op.op_id].form is OpForm.SPECULATIVE and op.dest in live_out
            for op in spec.operations
        )

    by_label = {}
    for label, spec, live_out in recorded_trials:
        by_label.setdefault(label, []).append((spec, live_out))
    assert set(by_label) == {"default", *VARIANTS}
    for label, trials in by_label.items():
        alu = any(predicts_alu(spec) for spec, _ in trials)
        liveout = any(speculates_live_out(*trial) for trial in trials)
        assert (alu, liveout) == ("alu" in label, "liveout" in label), label


def test_checker_matches_the_oracle_on_the_suite(suite_schedules):
    verdicts = set()
    for plain, repaired in suite_schedules:
        _assert_agree(plain)
        _assert_agree(repaired)
        verdicts.add(_static(_bounded(repaired, 1, None)))
    # Small CCBs overflow some trials, and some fit.
    assert None in verdicts and any(isinstance(v, tuple) for v in verdicts)


def test_repaired_suite_schedules_are_safe(suite_schedules):
    for _, repaired in suite_schedules:
        assert check_schedule(repaired).violation is None


@settings(max_examples=120, deadline=None)
@given(
    ops=_ops_strategy(),
    picks=st.lists(st.integers(min_value=0, max_value=15), max_size=4, unique=True),
    wide=st.booleans(),
    alu=st.booleans(),
    liveout=st.booleans(),
)
def test_checker_matches_the_oracle_on_random_blocks(ops, picks, wide, alu, liveout):
    """With ``alu`` long-latency ALU results are predicted too; every
    register the block defines is live out, and is pinned unless
    ``liveout`` lets the pass speculate it."""
    machine = PLAYDOH_8W if wide else PLAYDOH_4W
    block, loads = build_random_block(ops)
    candidates = loads + [
        op
        for op in block.operations
        if alu and not op.is_load and op.dest is not None and machine.latency(op.opcode) >= 3
    ]
    if not candidates:
        return
    chosen = list(dict.fromkeys(candidates[i % len(candidates)] for i in picks))
    live_out = frozenset(op.dest for op in block.operations if op.dest is not None)
    config = SpeculationConfig(predict_alu=alu, speculate_liveout=liveout)
    spec = speculation.transform_block(block, machine, chosen, live_out, config)
    for spec_schedule in _plain_and_repaired(spec, machine):
        _assert_agree(spec_schedule)


def test_ccb_occupancy_bound_is_the_peak_over_every_pattern(suite_schedules):
    for _, repaired in suite_schedules:
        check = check_schedule(repaired)
        if not check.ccb_occupancy:
            continue
        # The bound is the smallest CCB that admits the schedule.
        runs = simulate_all_outcomes(_bounded(repaired, check.ccb_occupancy, None))
        peak = max(max(run.tally.ccb_occupancy) for run in runs.values())
        assert peak == check.ccb_occupancy


# -- mutations ---------------------------------------------------------------


def _without(graph: DependenceGraph, dropped) -> DependenceGraph:
    operations = graph.operations
    preds = {op.op_id: [e for e in graph.pred_edges(op.op_id) if e != dropped] for op in operations}
    succs = {op.op_id: [e for e in graph.succ_edges(op.op_id) if e != dropped] for op in operations}
    return DependenceGraph.from_edge_lists(operations, preds, succs)


def test_dropping_a_sync_edge(suite_trials):
    """Each mutant is the plain list schedule of the trial's graph less
    one SYNC edge.  Both sides agree on every mutant, and both reject
    those that move a waiting instruction ahead of a check it needs."""
    rejected = 0
    for spec, machine in suite_trials:
        for edge in spec.graph.edges():
            if edge.kind is not DepKind.SYNC:
                continue
            graph = _without(spec.graph, edge)
            schedule = ListScheduler(machine).schedule_graph(spec.label, graph)
            mutant = annotate(spec, schedule, 0)
            verdict = _static(mutant)
            assert verdict == _oracle(mutant)
            rejected += verdict == "deadlock"
    assert rejected > 10


def _reusing(spec_schedule, owner: int, producer: int):
    """``spec_schedule`` with ``producer`` setting ``owner``'s bit."""
    info = dict(spec_schedule.spec.info)
    bit, old = info[owner].sync_bit, info[producer].sync_bit
    for op_id, op_info in info.items():
        if old in op_info.wait_bits:
            info[op_id] = dataclasses.replace(
                op_info, wait_bits=op_info.wait_bits - {old} | {bit}
            )
    info[producer] = dataclasses.replace(info[producer], sync_bit=bit)
    spec = dataclasses.replace(spec_schedule.spec, info=info)
    return annotate(spec, spec_schedule.schedule, 0)


def test_reusing_a_live_bit(suite_schedules):
    """A producer that issues while a waiter of an earlier bit owner is
    still to issue takes over that owner's bit.  The checker rejects
    every such mutant; the oracle rejects those where the waiter then
    stalls on the new owner forever, and all of those are among them."""
    mutants = oracle_rejected = 0
    for _, repaired in suite_schedules:
        spec = repaired.spec
        cycle = repaired.schedule.issue_cycle
        producers = [o for o, i in spec.info.items() if i.sync_bit is not None]
        waits = {}
        for op_id, op_info in spec.info.items():
            for bit in op_info.wait_bits:
                waits[bit] = max(waits.get(bit, -1), cycle(op_id))
        for owner in producers:
            last_wait = waits.get(spec.info[owner].sync_bit, -1)
            for producer in producers:
                if producer != owner and cycle(owner) <= cycle(producer) < last_wait:
                    mutant = _reusing(repaired, owner, producer)
                    mutants += 1
                    assert "reassigns bit" in check_schedule(mutant).violation
                    oracle_rejected += _oracle(mutant) == "deadlock"
    assert mutants > 10 and oracle_rejected > 0


def test_skipping_the_ccb_order_repair(suite_schedules):
    """The plain schedule of every trial the repair reorders is rejected
    by both sides, and so are those of random blocks (the property
    test's examples)."""
    skipped = [
        plain for plain, repaired in suite_schedules if repaired.ccb_order_edges
    ]
    assert skipped
    for plain in skipped:
        assert ccb_order_conflicts(plain.spec, plain.schedule)
        assert _oracle(plain) == "deadlock"
        assert "behind CCB entry" in check_schedule(plain).violation


def test_dropping_a_wait_bit_is_caught_statically(suite_schedules):
    """An instruction that forgets a guarding bit reads an unverified
    value.  The timing engines cannot see that (they model only when a
    value is ready); the checker rejects it."""
    mutants = 0
    for _, repaired in suite_schedules:
        for cycle, bits in repaired.wait_bits_by_cycle.items():
            for bit in bits:
                waits = dict(repaired.wait_bits_by_cycle)
                waits[cycle] = bits - {bit}
                mutant = dataclasses.replace(repaired, wait_bits_by_cycle=waits)
                assert "does not wait on bits" in check_schedule(mutant).violation
                mutants += 1
    assert mutants > 10
