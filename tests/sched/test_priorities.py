"""The list scheduler's priority: dependence height, earlier op on a tie.

A one-wide machine issues one operation per cycle, so the issue order of
two ready operations is exactly the order the priority puts them in.
"""

import dataclasses

from repro.ddg.builder import build_ddg
from repro.ddg.critical_path import analyze
from repro.ir.builder import FunctionBuilder
from repro.machine.configs import PLAYDOH_4W
from repro.sched.list_scheduler import schedule_block

ONE_WIDE = dataclasses.replace(PLAYDOH_4W, name="one-wide", issue_width=1)


def block_of(emit):
    fb = FunctionBuilder("f")
    fb.block("entry")
    ops = emit(fb)
    fb.halt()
    return fb.build().block("entry"), ops


class TestHeightPriority:
    def test_deeper_op_wins(self):
        block, (shallow, load, dep) = block_of(lambda fb: (
            fb.mov("z", 5),          # independent, height 1, first in order
            fb.load("a", "p"),       # heads the long chain
            fb.add("b", "a", 1),
        ))
        analysis = analyze(build_ddg(block, ONE_WIDE), ONE_WIDE)
        assert analysis.height[load.op_id] > analysis.height[shallow.op_id]
        schedule = schedule_block(block, ONE_WIDE)
        # Source order would issue the mov first; height issues the load.
        assert schedule.issue_cycle(load.op_id) < schedule.issue_cycle(shallow.op_id)
        assert schedule.issue_cycle(load.op_id) == 0

    def test_tie_break_prefers_earlier_op(self):
        block, (first, second) = block_of(lambda fb: (
            fb.mov("x", 1),
            fb.mov("y", 2),
        ))
        analysis = analyze(build_ddg(block, ONE_WIDE), ONE_WIDE)
        assert analysis.height[first.op_id] == analysis.height[second.op_id]
        schedule = schedule_block(block, ONE_WIDE)
        assert schedule.issue_cycle(first.op_id) < schedule.issue_cycle(second.op_id)
