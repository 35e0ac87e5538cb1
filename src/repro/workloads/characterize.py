"""Workload characterisation: the numbers behind the SPEC95 substitution.

The synthetic benchmarks replace SPEC95 (see DESIGN.md); this module
computes the properties the substitution is supposed to preserve, so the
claim is checkable rather than rhetorical:

* dynamic operation mix (ALU / memory / branch shares);
* load density (loads per dynamic operation);
* average dependence height and width (height / ops) of the hot blocks —
  the "chain shape" the scheduler sees;
* per-load value predictability under stride and FCM.

`python -m repro.workloads.characterize` prints the suite table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.ddg.builder import build_ddg
from repro.ddg.critical_path import analyze
from repro.ir.opcodes import is_alu
from repro.ir.printer import format_table
from repro.machine.configs import PLAYDOH_4W
from repro.machine.description import MachineDescription
from repro.profiling.block_profile import BlockProfile
from repro.profiling.profile_run import ProfileData, profile_program
from repro.trace.capture import capture_trace
from repro.ir.program import Program


@dataclass(frozen=True)
class WorkloadProfile:
    """Quantitative character of one workload."""

    name: str
    dynamic_operations: int
    alu_share: float
    memory_share: float
    branch_share: float
    load_density: float
    hot_block_height: float     # weighted mean dependence height
    hot_block_ilp: float        # weighted mean ops / height
    predictable_load_share: float  # loads (dynamic) with best rate >= 0.65
    mean_best_rate: float       # dynamic-weighted mean best prediction rate


@dataclass(frozen=True)
class OperationMix:
    """Dynamic operation counts of one run, by operation class."""

    total: int
    alu: int
    memory: int
    branch: int
    loads: int


def operation_mix(program: Program, blocks: BlockProfile) -> OperationMix:
    """The dynamic mix of ``program``: every operation of a block counts
    once per entry of that block (the interpreter runs blocks whole)."""
    alu = memory = branch = loads = total = 0
    for block in program.main:
        count = blocks.count(block.label)
        for op in block.operations:
            total += count
            if is_alu(op.opcode):
                alu += count
            elif op.is_memory:
                memory += count
                if op.is_load:
                    loads += count
            elif op.is_branch:
                branch += count
    return OperationMix(total, alu, memory, branch, loads)


def characterize(
    program: Program,
    machine: MachineDescription = PLAYDOH_4W,
    profile: ProfileData | None = None,
) -> WorkloadProfile:
    """Measure one program's workload character."""
    if profile is None:
        profile = profile_program(program, capture_trace(program))
    mix = operation_mix(program, profile.blocks)

    # Hot-block chain shape, weighted by execution count.
    weighted_height = 0.0
    weighted_ilp = 0.0
    weight_total = 0
    for block in program.main:
        count = profile.blocks.count(block.label)
        if count == 0 or len(block) < 2:
            continue
        analysis = analyze(build_ddg(block, machine), machine)
        weighted_height += count * analysis.length
        weighted_ilp += count * (len(block) / max(1, analysis.length))
        weight_total += count

    # Predictability, weighted by dynamic executions.
    executions = 0
    predictable = 0
    rate_sum = 0.0
    for stats in profile.values.loads.values():
        executions += stats.executions
        rate_sum += stats.best_rate * stats.executions
        if stats.best_rate >= 0.65:
            predictable += stats.executions

    total = max(1, mix.total)
    return WorkloadProfile(
        name=program.name,
        dynamic_operations=mix.total,
        alu_share=mix.alu / total,
        memory_share=mix.memory / total,
        branch_share=mix.branch / total,
        load_density=mix.loads / total,
        hot_block_height=weighted_height / weight_total if weight_total else 0.0,
        hot_block_ilp=weighted_ilp / weight_total if weight_total else 0.0,
        predictable_load_share=predictable / executions if executions else 0.0,
        mean_best_rate=rate_sum / executions if executions else 0.0,
    )


def characterize_suite(scale: float = 1.0) -> List[WorkloadProfile]:
    from repro.workloads.suite import load_suite

    return [
        characterize(program) for program in load_suite(scale=scale).values()
    ]


def render(profiles: List[WorkloadProfile]) -> str:
    rows = [
        (
            p.name,
            str(p.dynamic_operations),
            f"{p.alu_share:.2f}",
            f"{p.memory_share:.2f}",
            f"{p.branch_share:.2f}",
            f"{p.load_density:.2f}",
            f"{p.hot_block_height:.1f}",
            f"{p.hot_block_ilp:.2f}",
            f"{p.predictable_load_share:.2f}",
            f"{p.mean_best_rate:.2f}",
        )
        for p in profiles
    ]
    return format_table(
        [
            "workload",
            "dyn ops",
            "ALU",
            "mem",
            "br",
            "load density",
            "hot height",
            "ops/cycle bound",
            "predictable loads",
            "mean best rate",
        ],
        rows,
    )


if __name__ == "__main__":
    print(render(characterize_suite()))
