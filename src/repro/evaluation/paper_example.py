"""The paper's worked example (Figures 2, 3 and 7).

Builds an 11-operation block with the dependence structure the paper
describes — two 3-cycle loads (operations 4 and 7), consumers 5/6/8/9
speculated, 10/11 non-speculative — schedules it without and with value
prediction, and simulates the four outcome scenarios of Figure 3.  The
operations carry the paper's numbers (``op1``..``op11``) in every run:

* (b) both predictions correct,
* (c) r7 mispredicted,
* (d) r4 mispredicted,
* (e) both mispredicted.

The paper's qualitative observations are checked by the test suite:
speculation shortens the schedule; the r4-mispredict and both-mispredict
cases produce identical behaviour (the compensation code is the same);
and the r7 case costs no more than the r4 case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.ir.block import BasicBlock
from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.operation import Operation, Reg
from repro.machine.configs import PLAYDOH_4W
from repro.machine.description import MachineDescription
from repro.sched.list_scheduler import schedule_block
from repro.sched.schedule import Schedule
from repro.obs.trace import BlockLog
from repro.core.machine_sim import BlockRun, trace_block
from repro.core.specsched import SpeculativeSchedule, schedule_speculative
from repro.core.speculation import transform_block


@dataclass
class PaperExample:
    """Everything derived from the worked example."""

    function: Function
    block: BasicBlock
    load_r4: Operation
    load_r7: Operation
    original_schedule: Schedule
    spec_schedule: SpeculativeSchedule
    scenarios: Dict[str, BlockRun]
    #: Each scenario's event log (what the timelines render).
    logs: Dict[str, BlockLog]

    @property
    def ldpred_r4(self) -> int:
        return self.spec_schedule.spec.ldpred_ids[0]

    @property
    def ldpred_r7(self) -> int:
        return self.spec_schedule.spec.ldpred_ids[1]


def build_example_block() -> Tuple[Function, Operation, Operation]:
    """The 11-op dependence graph of the paper's Figure 2.

    Operations 4 and 7 are the loads; 5 and 6 consume r4; 8 and 9 consume
    both chains (so mispredicting r4 — or both — recovers the same, larger,
    compensation code, while mispredicting only r7 recovers a subset);
    10 and 11 produce the block's live-out results and stay
    non-speculative.
    """
    fb = FunctionBuilder("paper_example")
    fb.block("entry")
    fb.mov("r1", 100)                       # op 1
    fb.add("r2", "r1", 8)                   # op 2
    fb.add("r3", "r2", 4)                   # op 3
    load_r4 = fb.load("r4", "r3")           # op 4 (latency 3)
    fb.add("r5", "r4", 1)                   # op 5
    fb.mov("r6", "r4")                      # op 6
    load_r7 = fb.load("r7", "r1")           # op 7 (latency 3)
    fb.add("r8", "r5", "r7")                # op 8
    fb.mul("r9", "r6", "r7")                # op 9
    fb.add("r10", "r8", "r9")               # op 10 (non-speculative)
    fb.mov("r11", "r5")                     # op 11 (non-speculative)
    fb.halt()
    return fb.build(), load_r4, load_r7


#: Registers live out of the example block (the block's results).
EXAMPLE_LIVE_OUT = frozenset({Reg("r10"), Reg("r11")})


def run_example(machine: MachineDescription = PLAYDOH_4W) -> PaperExample:
    """Build, transform, schedule and simulate all four scenarios."""
    function, load_r4, load_r7 = build_example_block()
    block = function.block("entry")
    original = schedule_block(block, machine)
    spec = transform_block(
        block, machine, [load_r4, load_r7], live_out=EXAMPLE_LIVE_OUT
    )
    spec_schedule = schedule_speculative(
        spec, machine, original_length=original.length
    )
    l4, l7 = spec.ldpred_ids
    scenarios = {
        "both correct": {l4: True, l7: True},
        "r7 mispredicted": {l4: True, l7: False},
        "r4 mispredicted": {l4: False, l7: True},
        "both mispredicted": {l4: False, l7: False},
    }
    traced = {
        name: trace_block(spec_schedule, outcomes)
        for name, outcomes in scenarios.items()
    }
    return PaperExample(
        function=function,
        block=block,
        load_r4=load_r4,
        load_r7=load_r7,
        original_schedule=original,
        spec_schedule=spec_schedule,
        scenarios={name: run for name, (run, _) in traced.items()},
        logs={name: log for name, (_, log) in traced.items()},
    )


def render(example: PaperExample) -> str:
    from repro.core.timeline import render_timeline

    lines: List[str] = []
    lines.append("The paper's worked example (Figures 2/3)")
    lines.append("")
    lines.append("Original schedule (no prediction):")
    lines.append(str(example.original_schedule))
    lines.append("")
    lines.append("Speculative schedule (r4 and r7 predicted):")
    lines.append(str(example.spec_schedule.schedule))
    lines.append("")
    for name, run in example.scenarios.items():
        lines.append(f"--- Scenario: {name} ---")
        lines.append(
            render_timeline(example.spec_schedule, run, example.logs[name])
        )
        lines.append("")
    return "\n".join(lines)


def run(evaluation=None) -> str:  # signature matches the other experiments
    return render(run_example())
