"""Unit tests for the dependence-graph data structure."""

import itertools

import pytest

from repro.ddg.graph import DepKind, DependenceGraph
from repro.ir.opcodes import Opcode
from repro.ir.operation import Operation, Reg


_ids = itertools.count(1)


def mov(dst, src):
    return Operation(
        opcode=Opcode.MOV, dest=Reg(dst), srcs=(Reg(src),), op_id=next(_ids)
    )


@pytest.fixture
def three_ops():
    return [mov("b", "a"), mov("c", "b"), mov("d", "c")]


class TestDependenceGraph:
    def test_edges_and_queries(self, three_ops):
        a, b, c = three_ops
        g = DependenceGraph(three_ops)
        g.add_edge(a, b, DepKind.FLOW, 1)
        g.add_edge(b, c, DepKind.FLOW, 1)
        assert [e.dst for e in g.successors(a.op_id)] == [b.op_id]
        assert [e.src for e in g.predecessors(c.op_id)] == [b.op_id]
        assert g.flow_predecessors(b.op_id) == [a.op_id]
        assert g.flow_successors(b.op_id) == [c.op_id]
        assert len(list(g.edges())) == 2

    def test_self_edge_rejected(self, three_ops):
        g = DependenceGraph(three_ops)
        with pytest.raises(ValueError):
            g.add_edge(three_ops[0], three_ops[0], DepKind.FLOW, 1)

    def test_foreign_op_rejected(self, three_ops):
        g = DependenceGraph(three_ops)
        with pytest.raises(KeyError):
            g.add_edge(three_ops[0], mov("z", "y"), DepKind.FLOW, 1)

    def test_equal_id_op_of_another_build_rejected(self, three_ops):
        a, b, _ = three_ops
        g = DependenceGraph(three_ops)
        twin = Operation(
            opcode=Opcode.MOV, dest=Reg("c"), srcs=(Reg("b"),), op_id=b.op_id
        )
        with pytest.raises(KeyError):
            g.add_edge(a, twin, DepKind.FLOW, 1)

    def test_duplicate_edge_keeps_strongest(self, three_ops):
        a, b, _ = three_ops
        g = DependenceGraph(three_ops)
        g.add_edge(a, b, DepKind.FLOW, 1)
        g.add_edge(a, b, DepKind.FLOW, 3)
        g.add_edge(a, b, DepKind.FLOW, 2)  # weaker: ignored
        edges = [e for e in g.successors(a.op_id) if e.kind is DepKind.FLOW]
        assert len(edges) == 1
        assert edges[0].weight == 3
        # predecessors stay consistent with successors
        assert len(g.predecessors(b.op_id)) == 1

    def test_different_kinds_coexist(self, three_ops):
        a, b, _ = three_ops
        g = DependenceGraph(three_ops)
        g.add_edge(a, b, DepKind.FLOW, 1)
        g.add_edge(a, b, DepKind.ANTI, 0)
        assert len(g.successors(a.op_id)) == 2

    def test_roots(self, three_ops):
        a, b, c = three_ops
        g = DependenceGraph(three_ops)
        g.add_edge(a, b, DepKind.FLOW, 1)
        assert {op.op_id for op in g.roots()} == {a.op_id, c.op_id}

    def test_flow_reachable_from(self, three_ops):
        a, b, c = three_ops
        g = DependenceGraph(three_ops)
        g.add_edge(a, b, DepKind.FLOW, 1)
        g.add_edge(b, c, DepKind.FLOW, 1)
        assert g.flow_reachable_from([a.op_id]) == {b.op_id, c.op_id}
        assert g.flow_reachable_from([c.op_id]) == set()

    def test_flow_reachable_ignores_non_flow(self, three_ops):
        a, b, _ = three_ops
        g = DependenceGraph(three_ops)
        g.add_edge(a, b, DepKind.ANTI, 0)
        assert g.flow_reachable_from([a.op_id]) == set()

    def test_contains_and_len(self, three_ops):
        g = DependenceGraph(three_ops)
        assert len(g) == 3
        assert three_ops[0].op_id in g
        assert 10**9 not in g

    def test_topological_order_is_program_order(self, three_ops):
        g = DependenceGraph(three_ops)
        assert g.topological_order() == three_ops
