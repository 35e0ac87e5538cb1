"""Unit tests for critical-path analysis and the loads selection reads
off the critical path."""

import pytest

from repro.core.speculation import SpeculationConfig, candidate_loads
from repro.ddg.builder import build_ddg
from repro.ddg.critical_path import analyze
from repro.ir.builder import FunctionBuilder
from repro.profiling.value_profile import LoadValueStats, ValueProfile


def critical_path_loads(block, machine):
    """The loads speculation may select when every load always predicts
    correctly: the loads on the critical path, deepest first."""
    always = LoadValueStats(executions=100, stride_correct=100, fcm_correct=0)
    profile = ValueProfile({op.op_id: always for op in block.loads()})
    return candidate_loads(block, machine, profile, SpeculationConfig())


def loop_block(emit):
    fb = FunctionBuilder("f")
    fb.block("entry")
    emit(fb)
    fb.halt()
    return fb.build().block("entry")


class TestAnalyze:
    def test_chain_length(self, m4):
        # load(3) -> add(1) -> mul(3): length 7 (+ halt at weight 0).
        block = loop_block(lambda fb: (
            fb.load("a", "p"),
            fb.add("b", "a", 1),
            fb.mul("c", "b", "b"),
        ))
        g = build_ddg(block, m4)
        analysis = analyze(g, m4)
        assert analysis.length == 7

    def test_earliest_start_respects_latency(self, m4):
        block = loop_block(lambda fb: (
            fb.load("a", "p"),
            fb.add("b", "a", 1),
        ))
        g = build_ddg(block, m4)
        analysis = analyze(g, m4)
        load, add = block.operations[0], block.operations[1]
        assert analysis.earliest_start[load.op_id] == 0
        assert analysis.earliest_start[add.op_id] == 3

    def test_height_of_leaf_is_latency(self, m4):
        block = loop_block(lambda fb: fb.load("a", "p"))
        g = build_ddg(block, m4)
        analysis = analyze(g, m4)
        load = block.operations[0]
        # The load's height includes only itself (the halt hangs off a
        # zero-weight control edge).
        assert analysis.height[load.op_id] >= 3

    def test_slack_zero_on_critical_path(self, m4):
        block = loop_block(lambda fb: (
            fb.load("a", "p"),     # critical
            fb.add("b", "a", 1),   # critical
            fb.mov("c", 5),        # plenty of slack
        ))
        g = build_ddg(block, m4)
        analysis = analyze(g, m4)
        load, add, mov = block.operations[:3]
        assert load.op_id in analysis.critical_ops
        assert add.op_id in analysis.critical_ops
        assert mov.op_id not in analysis.critical_ops
        slack = analysis.length - (
            analysis.earliest_start[mov.op_id] + analysis.height[mov.op_id]
        )
        assert slack > 0

    def test_parallel_chains_critical_is_longest(self, m4):
        block = loop_block(lambda fb: (
            fb.load("a", "p"),      # chain 1: 3 + 1
            fb.add("b", "a", 1),
            fb.mov("x", 1),         # chain 2: 1 + 1
            fb.add("y", "x", 1),
        ))
        g = build_ddg(block, m4)
        analysis = analyze(g, m4)
        load = block.operations[0]
        mov = block.operations[2]
        assert load.op_id in analysis.critical_ops
        assert mov.op_id not in analysis.critical_ops

    def test_empty_graph(self, m4):
        from repro.ddg.graph import DependenceGraph

        analysis = analyze(DependenceGraph([]), m4)
        assert analysis.length == 0
        assert analysis.critical_ops == []


class TestCriticalPathLoads:
    def test_load_on_critical_path_found(self, m4):
        block = loop_block(lambda fb: (
            fb.load("a", "p"),
            fb.add("b", "a", 1),
            fb.mul("c", "b", 3),
        ))
        loads = critical_path_loads(block, m4)
        assert [l.op_id for l in loads] == [block.operations[0].op_id]

    def test_off_path_load_excluded(self, m4):
        block = loop_block(lambda fb: (
            fb.load("a", "p"),     # heads a long chain
            fb.add("b", "a", 1),
            fb.mul("c", "b", "b"),
            fb.mul("d", "c", "c"),
            fb.load("x", "q"),     # isolated short chain
        ))
        loads = critical_path_loads(block, m4)
        assert [l.op_id for l in loads] == [block.operations[0].op_id]

    def test_deepest_load_first(self, m4):
        # Two loads on one serial chain: the first has greater height.
        fb = FunctionBuilder("f")
        fb.block("entry")
        first = fb.load("a", "p")
        second = fb.load("b", "a")
        fb.add("c", "b", 1)
        fb.halt()
        block = fb.build().block("entry")
        loads = critical_path_loads(block, m4)
        assert [l.op_id for l in loads] == [first.op_id, second.op_id]
