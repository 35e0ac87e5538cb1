"""Dual-engine block simulation: VLIW Engine + Compensation Code Engine.

:func:`simulate_block` runs one dynamic instance of a speculative block
under a given map of prediction outcomes and returns the *effective
schedule length*: the cycle at which both the VLIW instructions and every
required recomputation have completed.  In the all-correct case the
Compensation Code Engine only flushes, so the effective length equals the
static speculative schedule length; with mispredictions the recovery runs
in parallel and only extends the block when a non-speculative consumer
(or a recomputation tail) outlasts the VLIW stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.obs.cycles import CycleLedger, NULL_CYCLES
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.obs.trace import TraceEvent, TraceSink
from repro.core.cc_engine import CCEngineStats, CompensationEngine
from repro.core.ccb import CompensationCodeBuffer
from repro.core.ovb import OperandValueBuffer
from repro.core.specsched import SpeculativeSchedule
from repro.core.sync_register import SyncRegisterState
from repro.core.vliw_engine import VLIWEngineSim, VLIWRunStats


@dataclass(frozen=True)
class BlockRun:
    """Result of simulating one dynamic block instance."""

    label: str
    effective_length: int
    vliw_length: int
    cc_tail: int
    stall_cycles: int
    predictions: int
    mispredictions: int
    flushed: int
    executed: int
    #: Typed structured trace events (see :mod:`repro.obs.trace`), sorted
    #: by cycle; populated when collect_trace is set.
    trace: Tuple[TraceEvent, ...] = ()
    #: (op id, issue cycle) pairs; populated when collect_trace is set.
    issue_times: Tuple[Tuple[int, int], ...] = ()
    #: (slot cycle, "flush"|"execute", op id, completion) CCE activity;
    #: populated when collect_trace is set.
    cc_events: Tuple[Tuple[int, str, int, int], ...] = ()
    #: Per-cause cycle attribution, sorted by cause; populated when
    #: collect_cycles is set.  Sums exactly to ``effective_length``.
    cycle_stack: Tuple[Tuple[str, int], ...] = ()
    #: (cycle, cause, cycles) charge events for Perfetto counter tracks;
    #: populated when both collect_cycles and collect_trace are set.
    cycle_events: Tuple[Tuple[int, str, int], ...] = ()

    @property
    def all_correct(self) -> bool:
        return self.predictions > 0 and self.mispredictions == 0

    @property
    def all_incorrect(self) -> bool:
        return self.predictions > 0 and self.mispredictions == self.predictions

    def __str__(self) -> str:
        return (
            f"{self.label}: {self.effective_length} cycles "
            f"({self.mispredictions}/{self.predictions} mispredicted, "
            f"{self.stall_cycles} stall, CC {self.executed} exec/{self.flushed} flush)"
        )


def simulate_block(
    spec_schedule: SpeculativeSchedule,
    outcomes: Mapping[int, bool],
    collect_trace: bool = False,
    ccb_capacity: Optional[int] = None,
    metrics: MetricsRegistry = NULL_METRICS,
    collect_cycles: bool = False,
) -> BlockRun:
    """Simulate one dynamic instance of a speculative block.

    Args:
        spec_schedule: the statically scheduled transformed block.
        outcomes: per-``LdPred`` op id, whether the prediction was correct.
        collect_trace: record typed trace events (used by the worked
            example, the timeline renderer and the Perfetto exporter).
        ccb_capacity: bound the Compensation Code Buffer; ``None`` falls
            back to the machine spec's ``ccb_capacity`` (itself ``None``
            — unbounded — on the paper's machines).
        metrics: registry receiving the run's counters and histograms
            (``vliw.stall_cycles``, ``cce.flush``, ``cce.reexec``,
            ``ovb.state_transitions{...}``, ...); the default disabled
            registry costs one branch per site.
        collect_cycles: attribute every cycle of the run to one cause
            (see :mod:`repro.obs.cycles`) into ``BlockRun.cycle_stack``;
            debug runs assert the stack sums to ``effective_length``.
            Timing results are identical either way.

    The OVB capacity and Synchronization-register width are read from the
    machine description (``MachineSpec.ovb_capacity`` / ``sync_width``);
    the width is grown if the schedule allocated more sync bits than the
    hardware declares, which keeps pre-spec schedules simulating.
    """
    sink: Optional[TraceSink] = TraceSink() if collect_trace else None
    machine = spec_schedule.schedule.machine

    ovb = OperandValueBuffer(
        trace=sink, metrics=metrics, capacity=machine.ovb_capacity
    )
    sync = SyncRegisterState(
        width=max(machine.sync_width, spec_schedule.spec.sync_bits_used),
        trace=sink,
        metrics=metrics,
    )
    if ccb_capacity is None:
        ccb_capacity = machine.ccb_capacity
    cc = CompensationEngine(
        machine=machine,
        ovb=ovb,
        sync=sync,
        buffer=CompensationCodeBuffer(capacity=ccb_capacity),
        trace=sink,
        metrics=metrics,
    )
    ledger = (
        CycleLedger(record_events=collect_trace)
        if collect_cycles
        else NULL_CYCLES
    )
    vliw = VLIWEngineSim(
        spec_schedule,
        outcomes,
        ovb=ovb,
        sync=sync,
        cc=cc,
        trace=sink,
        metrics=metrics,
        cycles=ledger,
    )

    stats: VLIWRunStats = vliw.run()
    cc.drain()
    cc_stats: CCEngineStats = cc.stats

    # The block is architecturally complete when the VLIW stream is: all
    # side effects (stores, branches) and all live-out values execute in
    # non-speculative form on the VLIW Engine, so whatever the
    # Compensation Code Engine is still recomputing is a dead block-local
    # temporary whose only remaining job is clearing its Synchronization
    # bit.  That tail overlaps the next block and is reported as
    # ``cc_tail`` rather than charged to this block's length.
    effective = stats.completion
    if collect_cycles:
        # The hard cycle-accounting invariant: every cycle of the block
        # is attributed to exactly one cause.
        assert ledger.total() == effective, (
            f"block {spec_schedule.label!r}: cycle stack sums to "
            f"{ledger.total()}, simulated {effective} cycles"
        )
    return BlockRun(
        label=spec_schedule.label,
        effective_length=effective,
        vliw_length=stats.completion,
        cc_tail=max(0, cc_stats.last_exec_completion - stats.completion),
        stall_cycles=stats.stall_cycles,
        predictions=stats.predictions,
        mispredictions=stats.mispredictions,
        flushed=cc_stats.flushed,
        executed=cc_stats.executed,
        trace=tuple(sink.sorted()) if sink is not None else (),
        issue_times=(
            tuple(sorted(stats.issue_times.items())) if collect_trace else ()
        ),
        cc_events=tuple(cc_stats.events) if collect_trace else (),
        cycle_stack=(
            tuple(sorted(ledger.counts.items())) if collect_cycles else ()
        ),
        cycle_events=tuple(ledger.events),
    )


def simulate_best_case(spec_schedule: SpeculativeSchedule) -> BlockRun:
    """All predictions correct (the paper's Table 2/3 'best case')."""
    return simulate_block(
        spec_schedule, {l: True for l in spec_schedule.spec.ldpred_ids}
    )


def simulate_worst_case(spec_schedule: SpeculativeSchedule) -> BlockRun:
    """All predictions incorrect (the paper's 'worst case')."""
    return simulate_block(
        spec_schedule, {l: False for l in spec_schedule.spec.ldpred_ids}
    )


def simulate_all_outcomes(
    spec_schedule: SpeculativeSchedule,
) -> Dict[Tuple[bool, ...], BlockRun]:
    """Simulate every outcome pattern (2^n for n predictions), each run
    carrying its cycle stack.

    The dynamic program simulation memoises block timings and cycle
    stacks per pattern through this map; blocks predict at most a
    handful of loads so the pattern space stays tiny.
    """
    ldpreds = spec_schedule.spec.ldpred_ids
    results: Dict[Tuple[bool, ...], BlockRun] = {}
    for mask in range(1 << len(ldpreds)):
        pattern = tuple(bool(mask & (1 << i)) for i in range(len(ldpreds)))
        outcomes = dict(zip(ldpreds, pattern))
        results[pattern] = simulate_block(
            spec_schedule, outcomes, collect_cycles=True
        )
    return results
