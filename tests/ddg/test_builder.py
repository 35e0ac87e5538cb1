"""Unit tests for dependence-graph construction from blocks."""

import pytest

from repro.ddg.builder import build_ddg
from repro.ddg.graph import DepKind
from repro.ir.block import BasicBlock
from repro.ir.builder import FunctionBuilder
from repro.machine.configs import PLAYDOH_4W


def build_block(emit):
    fb = FunctionBuilder("f")
    fb.block("entry")
    ops = emit(fb)
    fb.halt()
    fb.build()
    return fb._function.block("entry"), ops


def edge_between(graph, src, dst, kind):
    return [
        e for e in graph.successors(src.op_id)
        if e.dst == dst.op_id and e.kind is kind
    ]


class TestRegisterDependences:
    def test_flow_edge_weighted_by_producer_latency(self, m4):
        def emit(fb):
            load = fb.load("a", "p")
            use = fb.add("b", "a", 1)
            return load, use

        block, (load, use) = build_block(emit)
        g = build_ddg(block, m4)
        edges = edge_between(g, load, use, DepKind.FLOW)
        assert len(edges) == 1
        assert edges[0].weight == m4.latency(load.opcode) == 3

    def test_anti_edge_zero_weight(self, m4):
        def emit(fb):
            use = fb.add("b", "a", 1)
            redef = fb.mov("a", 5)
            return use, redef

        block, (use, redef) = build_block(emit)
        g = build_ddg(block, m4)
        edges = edge_between(g, use, redef, DepKind.ANTI)
        assert len(edges) == 1
        assert edges[0].weight == 0

    def test_output_edge(self, m4):
        def emit(fb):
            first = fb.mov("a", 1)
            second = fb.mov("a", 2)
            return first, second

        block, (first, second) = build_block(emit)
        g = build_ddg(block, m4)
        edges = edge_between(g, first, second, DepKind.OUTPUT)
        assert len(edges) == 1
        assert edges[0].weight == 1

    def test_use_after_redefinition_reads_latest(self, m4):
        def emit(fb):
            first = fb.mov("a", 1)
            second = fb.mov("a", 2)
            use = fb.add("b", "a", 1)
            return first, second, use

        block, (first, second, use) = build_block(emit)
        g = build_ddg(block, m4)
        assert edge_between(g, second, use, DepKind.FLOW)
        assert not edge_between(g, first, use, DepKind.FLOW)


class TestMemoryDependences:
    def test_store_orders_later_load(self, m4):
        def emit(fb):
            store = fb.store(1, "p")
            load = fb.load("a", "q")
            return store, load

        block, (store, load) = build_block(emit)
        g = build_ddg(block, m4)
        assert edge_between(g, store, load, DepKind.MEM)

    def test_store_orders_later_store(self, m4):
        def emit(fb):
            s1 = fb.store(1, "p")
            s2 = fb.store(2, "q")
            return s1, s2

        block, (s1, s2) = build_block(emit)
        g = build_ddg(block, m4)
        assert edge_between(g, s1, s2, DepKind.MEM)

    def test_load_orders_later_store(self, m4):
        def emit(fb):
            load = fb.load("a", "p")
            store = fb.store(1, "q")
            return load, store

        block, (load, store) = build_block(emit)
        g = build_ddg(block, m4)
        assert edge_between(g, load, store, DepKind.MEM)

    def test_loads_reorder_freely(self, m4):
        def emit(fb):
            l1 = fb.load("a", "p")
            l2 = fb.load("b", "q")
            return l1, l2

        block, (l1, l2) = build_block(emit)
        g = build_ddg(block, m4)
        assert not edge_between(g, l1, l2, DepKind.MEM)

    def test_loads_after_store_do_not_order_each_other(self, m4):
        def emit(fb):
            s = fb.store(1, "p")
            l1 = fb.load("a", "q")
            l2 = fb.load("b", "r")
            return s, l1, l2

        block, (s, l1, l2) = build_block(emit)
        g = build_ddg(block, m4)
        assert edge_between(g, s, l1, DepKind.MEM)
        assert edge_between(g, s, l2, DepKind.MEM)
        assert not edge_between(g, l1, l2, DepKind.MEM)


class TestControlDependences:
    def test_all_ops_precede_terminator(self, m4):
        def emit(fb):
            a = fb.mov("a", 1)
            b = fb.mov("b", 2)
            return a, b

        block, (a, b) = build_block(emit)
        g = build_ddg(block, m4)
        assert len(g) == len(block.operations)
        term = block.terminator
        assert edge_between(g, a, term, DepKind.CONTROL)
        assert edge_between(g, b, term, DepKind.CONTROL)

    def test_branch_condition_is_flow(self, m4):
        fb = FunctionBuilder("f")
        fb.block("entry")
        cond = fb.cmplt("c", "x", 5)
        fb.brcond("c", "entry", "exit")
        fb.block("exit")
        fb.halt()
        f = fb.build()
        block = f.block("entry")
        g = build_ddg(block, m4)
        term = block.terminator
        assert edge_between(g, cond, term, DepKind.FLOW)
