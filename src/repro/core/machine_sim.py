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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Mapping, Optional, Tuple

from repro.obs.metrics import MetricsSnapshot
from repro.obs.trace import BlockLog, Tally
from repro.core.cc_engine import CompensationEngine
from repro.core.ccb import CompensationCodeBuffer
from repro.core.ovb import OperandValueBuffer
from repro.core.specsched import SpeculativeSchedule
from repro.core.sync_register import SyncRegisterState
from repro.core.vliw_engine import VLIWEngineSim


@dataclass(frozen=True)
class BlockRun:
    """Result of simulating one dynamic block instance.

    The cycle stack and the metrics tally are folded from the run's
    event log; the log itself is returned only by :func:`trace_block`.
    """

    label: str
    effective_length: int
    vliw_length: int
    cc_tail: int
    stall_cycles: int
    predictions: int
    mispredictions: int
    flushed: int
    executed: int
    #: Per-cause cycle attribution, sorted by cause.  Sums exactly to
    #: ``effective_length``.
    cycle_stack: Tuple[Tuple[str, int], ...] = ()
    #: The run's counters, OVB peak and CCB occupancy samples (see
    #: :meth:`repro.obs.trace.BlockLog.fold`).
    tally: Tally = field(default=Tally((), (), 0, ()), hash=False)

    @cached_property
    def metrics(self) -> MetricsSnapshot:
        """The run's metrics snapshot, built from its tally."""
        return self.tally.snapshot()

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


def trace_block(
    spec_schedule: SpeculativeSchedule,
    outcomes: Mapping[int, bool],
    ccb_capacity: Optional[int] = None,
) -> Tuple[BlockRun, BlockLog]:
    """Simulate one dynamic instance of a speculative block and return
    the run with its event log.

    The log is what the timeline, the Perfetto exporter and the worked
    example render; :func:`simulate_block` drops it.  Arguments as for
    :func:`simulate_block`.
    """
    log = BlockLog()
    machine = spec_schedule.schedule.machine

    ovb = OperandValueBuffer(capacity=machine.ovb_capacity, log=log)
    sync = SyncRegisterState(
        width=max(machine.sync_width, spec_schedule.spec.sync_bits_used), log=log
    )
    if ccb_capacity is None:
        ccb_capacity = machine.ccb_capacity
    cc = CompensationEngine(
        machine=machine,
        ovb=ovb,
        sync=sync,
        buffer=CompensationCodeBuffer(capacity=ccb_capacity),
        log=log,
    )
    stats = VLIWEngineSim(spec_schedule, outcomes, ovb, sync, cc, log).run()
    cc.drain()

    # The block is architecturally complete when the VLIW stream is: all
    # side effects (stores, branches) and all live-out values execute in
    # non-speculative form on the VLIW Engine, so whatever the
    # Compensation Code Engine is still recomputing is a dead block-local
    # temporary whose only remaining job is clearing its Synchronization
    # bit.  That tail overlaps the next block and is reported as
    # ``cc_tail`` rather than charged to this block's length.
    effective = stats.completion
    stack, tally = log.fold()
    # The hard cycle-accounting invariant: every cycle of the block is
    # attributed to exactly one cause.
    assert sum(stack.values()) == effective, (
        f"block {spec_schedule.label!r}: cycle stack sums to "
        f"{sum(stack.values())}, simulated {effective} cycles"
    )
    run = BlockRun(
        label=spec_schedule.label,
        effective_length=effective,
        vliw_length=stats.completion,
        cc_tail=max(0, cc.stats.last_exec_completion - stats.completion),
        stall_cycles=stats.stall_cycles,
        predictions=stats.predictions,
        mispredictions=stats.mispredictions,
        flushed=cc.stats.flushed,
        executed=cc.stats.executed,
        cycle_stack=tuple(sorted(stack.items())),
        tally=tally,
    )
    return run, log


def simulate_block(
    spec_schedule: SpeculativeSchedule,
    outcomes: Mapping[int, bool],
    ccb_capacity: Optional[int] = None,
) -> BlockRun:
    """Simulate one dynamic instance of a speculative block.

    Args:
        spec_schedule: the statically scheduled transformed block.
        outcomes: per-``LdPred`` op id, whether the prediction was correct.
        ccb_capacity: bound the Compensation Code Buffer; ``None`` falls
            back to the machine spec's ``ccb_capacity`` (itself ``None``
            — unbounded — on the paper's machines).

    The run carries its cycle stack (every cycle attributed to one
    cause, see :mod:`repro.obs.cycles`; the stack is asserted to sum to
    ``effective_length``) and its metrics snapshot
    (``vliw.stall_cycles``, ``cce.flush``, ``cce.reexec``,
    ``ovb.state_transitions{...}``, ...), both folded from the run's
    event log, which is then dropped.

    The OVB capacity and Synchronization-register width are read from the
    machine description (``MachineSpec.ovb_capacity`` / ``sync_width``);
    the width is grown if the schedule allocated more sync bits than the
    hardware declares, which keeps pre-spec schedules simulating.
    """
    return trace_block(spec_schedule, outcomes, ccb_capacity)[0]


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
    """Simulate every outcome pattern (2^n for n predictions), all-wrong
    first.

    The oracle :func:`repro.core.specsched.check_schedule` is held to in
    the tests: the checker accepts a schedule iff this finishes without
    :class:`SimulationDeadlock`, and raises ``CCBFull``/``OVBFull``
    with the same message iff this does.  The compiler and the program
    simulation never sweep patterns; they simulate one pattern when
    they first read it (``compile_cache.pattern_run``).
    """
    ldpreds = spec_schedule.spec.ldpred_ids
    results: Dict[Tuple[bool, ...], BlockRun] = {}
    for mask in range(1 << len(ldpreds)):
        pattern = tuple(bool(mask & (1 << i)) for i in range(len(ldpreds)))
        outcomes = dict(zip(ldpreds, pattern))
        results[pattern] = simulate_block(spec_schedule, outcomes)
    return results
