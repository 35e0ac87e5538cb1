"""The statically-scheduled recovery baseline (the paper's reference [4]).

The prior approach to value speculation in VLIW machines schedules, for
each predicted operation, a *compensation code block* alongside the main
code.  When a check detects a misprediction, control branches to the
corresponding compensation block, re-executes every operation that was
speculated using the incorrect value, and branches back.  While the
compensation block runs, the main code makes no progress; each recovery
also pays two branch redirects and fetches the compensation block through
the instruction cache, evicting useful lines.

This module rebuilds that scheme on top of the same speculation transform
so the two architectures differ only in *recovery* — exactly the paper's
experimental set-up ("we implemented a recovery scheme, based on the one
proposed in [4]").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.core.isa_ext import OpForm

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.ir.operation import Operation
    from repro.machine.description import MachineDescription
    from repro.core.isa_ext import SpeculativeBlock
    from repro.core.specsched import SpeculativeSchedule


@dataclass(frozen=True)
class CompensationBlock:
    """One statically scheduled recovery block for one predicted load."""

    ldpred_id: int
    op_ids: Tuple[int, ...]
    op_count: int
    length: int  # schedule length in cycles

    @property
    def code_id(self) -> str:
        return f"comp:{self.ldpred_id}"


@dataclass
class BaselineBlock:
    """A block compiled for the statically-recovered baseline machine.

    ``schedule`` is the main code: the compilation's own speculative
    schedule, since the two schemes differ only in recovery.
    """

    schedule: SpeculativeSchedule
    compensation: Dict[int, CompensationBlock]

    @property
    def spec(self) -> SpeculativeBlock:
        return self.schedule.spec

    @property
    def label(self) -> str:
        return self.spec.label

    @property
    def main_length(self) -> int:
        return self.schedule.length


def _compensation_graph(
    spec: SpeculativeBlock, ldpred_id: int, machine: MachineDescription
) -> Optional[DependenceGraph]:
    """Dependence graph of the ops speculated from one prediction."""
    from repro.ddg.graph import DepKind, DependenceGraph

    members: List[Operation] = [
        op
        for op in spec.operations
        if spec.info[op.op_id].form is OpForm.SPECULATIVE
        and ldpred_id in spec.info[op.op_id].origins
    ]
    if not members:
        return None
    member_ids = {op.op_id for op in members}
    graph = DependenceGraph(members)
    # Flow dependences among members via static def-use chains.
    last_def: Dict[str, Operation] = {}
    for op in spec.operations:
        if op.op_id in member_ids:
            for reg in op.uses():
                producer = last_def.get(reg.name)
                if producer is not None and producer.op_id in member_ids:
                    graph.add_edge(
                        producer, op, DepKind.FLOW, machine.latency(producer.opcode)
                    )
        for reg in op.defs():
            last_def[reg.name] = op
    return graph


def build_baseline_block(
    spec_schedule: SpeculativeSchedule, machine: MachineDescription
) -> BaselineBlock:
    """Compile a scheduled transform for the baseline recovery scheme:
    its main code *is* ``spec_schedule``, so only the compensation
    blocks are scheduled here."""
    from repro.sched.list_scheduler import ListScheduler

    spec = spec_schedule.spec
    scheduler = ListScheduler(machine)
    compensation: Dict[int, CompensationBlock] = {}
    for ldpred_id in spec.ldpred_ids:
        graph = _compensation_graph(spec, ldpred_id, machine)
        if graph is None:
            compensation[ldpred_id] = CompensationBlock(ldpred_id, (), 0, 0)
            continue
        comp_schedule = scheduler.schedule_graph(f"comp:{ldpred_id}", graph)
        compensation[ldpred_id] = CompensationBlock(
            ldpred_id=ldpred_id,
            op_ids=tuple(op.op_id for op in graph.operations),
            op_count=len(graph),
            length=comp_schedule.length,
        )
    return BaselineBlock(schedule=spec_schedule, compensation=compensation)


@dataclass(frozen=True)
class SquashRun:
    """Cycle accounting of one block instance under squash recovery."""

    label: str
    effective_length: int
    detected_at: int
    squashed: bool
    predictions: int
    mispredictions: int


def simulate_squash_block(
    spec_schedule,
    outcomes: Mapping[int, bool],
    machine: MachineDescription,
) -> SquashRun:
    """Superscalar-style recovery: on *any* misprediction, squash the
    block and re-execute it conservatively (no prediction).

    This is the recovery model value-prediction work assumed on
    out-of-order machines; the comparison shows why a VLIW cannot afford
    it — the whole statically scheduled block restarts.  Detection time
    is the earliest failing check's completion; the restart pays one
    branch redirect plus the original (unspeculated) schedule.
    """
    spec = spec_schedule.spec
    missing = set(spec.ldpred_ids) - set(outcomes)
    if missing:
        raise ValueError(f"missing outcomes for LdPred ops {sorted(missing)}")
    mispredicted = [l for l in spec.ldpred_ids if not outcomes[l]]
    if not mispredicted:
        return SquashRun(
            label=spec.label,
            effective_length=spec_schedule.length,
            detected_at=0,
            squashed=False,
            predictions=len(spec.ldpred_ids),
            mispredictions=0,
        )
    detected = min(
        spec_schedule.schedule.completion_cycle(spec.check_of[l])
        for l in mispredicted
    )
    effective = detected + machine.branch_penalty + spec_schedule.original_length
    return SquashRun(
        label=spec.label,
        effective_length=effective,
        detected_at=detected,
        squashed=True,
        predictions=len(spec.ldpred_ids),
        mispredictions=len(mispredicted),
    )


@dataclass(frozen=True)
class BaselineRun:
    """Cycle breakdown of one dynamic block instance on the baseline."""

    label: str
    effective_length: int
    main_cycles: int
    compensation_cycles: int
    branch_cycles: int
    predictions: int
    mispredictions: int


def simulate_baseline_block(
    baseline: BaselineBlock,
    outcomes: Mapping[int, bool],
    machine: MachineDescription,
) -> BaselineRun:
    """One dynamic instance: main schedule + serial recovery excursions.

    Purely compute-time: the instruction-cache pollution of the executed
    compensation blocks depends on the dynamic fetch sequence, so
    :func:`repro.core.program_sim.simulate_program` charges it per run.
    """
    spec = baseline.spec
    missing = set(spec.ldpred_ids) - set(outcomes)
    if missing:
        raise ValueError(f"missing outcomes for LdPred ops {sorted(missing)}")

    main = baseline.main_length
    comp_cycles = 0
    branch_cycles = 0
    mispredictions = 0

    for ldpred_id in spec.ldpred_ids:
        if outcomes[ldpred_id]:
            continue
        mispredictions += 1
        comp = baseline.compensation[ldpred_id]
        # Branch to the compensation block and back: the recovery
        # branches cannot be removed because recovery happens only after
        # verification (paper section 1).
        branch_cycles += 2 * machine.branch_penalty
        comp_cycles += comp.length

    total = main + comp_cycles + branch_cycles
    return BaselineRun(
        label=baseline.label,
        effective_length=total,
        main_cycles=main,
        compensation_cycles=comp_cycles,
        branch_cycles=branch_cycles,
        predictions=len(spec.ldpred_ids),
        mispredictions=mispredictions,
    )
