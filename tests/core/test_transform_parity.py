"""The speculation transform equals its reference rebuild on every trial.

:func:`repro.core.speculation.transform_block` reads a per-block kit,
classifies only the flow cone of the predictions and carries untouched
edges over verbatim; ``reference_transform`` rebuilds the whole graph
through ``add_edge``.  Both must give the same operations, the same
annotations (in the same order), the same per-node edge multisets and
the same pickled bytes — on every trial set the greedy search builds for
the suite at scale 1.0 and for the region study's unrolled variants, and
on random blocks.  Only the per-node edge *order* may differ, which the
scheduler and the critical-path analysis never read (checked here on
permuted graphs).
"""

from __future__ import annotations

import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import speculation
from repro.core.speculation import SpeculationConfig, transform_block
from repro.ddg.builder import build_ddg
from repro.ddg.critical_path import analyze
from repro.ddg.graph import DependenceGraph
from repro.evaluation import regions_exp
from repro.evaluation.experiment import Evaluation, EvaluationSettings
from repro.ir.builder import FunctionBuilder
from repro.ir.operation import Reg
from repro.machine.configs import PLAYDOH_4W, PLAYDOH_8W
from repro.sched.list_scheduler import ListScheduler
from repro.workloads.suite import BENCHMARKS
from tests.core.reference_transform import reference_transform


def _edge_multisets(graph: DependenceGraph):
    return {
        op.op_id: (Counter(graph.pred_edges(op.op_id)), Counter(graph.succ_edges(op.op_id)))
        for op in graph.operations
    }


def _run(transform, args):
    """``(block, None)``, or ``(None, (type, message))`` if it raised."""
    try:
        return transform(*args), None
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return None, (type(exc), str(exc))


def assert_same_transform(args) -> None:
    (new, new_error), (ref, ref_error) = _run(transform_block, args), _run(
        reference_transform, args
    )
    assert new_error == ref_error
    if ref is None:
        return
    assert [repr(op) for op in new.operations] == [repr(op) for op in ref.operations]
    # Untouched operations are the block's own objects in both.
    originals = {id(op) for op in args[0].operations}
    assert [op for op in new.operations if id(op) in originals] == [
        op for op in ref.operations if id(op) in originals
    ]
    assert list(new.info.items()) == list(ref.info.items())
    assert _edge_multisets(new.graph) == _edge_multisets(ref.graph)
    assert (new.ldpred_ids, new.check_of, new.predicted_load_of) == (
        ref.ldpred_ids, ref.check_of, ref.predicted_load_of
    )
    assert pickle.dumps(new) == pickle.dumps(ref)


@pytest.fixture(scope="module")
def greedy_trials():
    """Every transform the greedy search asks for, by source: each suite
    benchmark compiled for both paper machines, and the region study's
    2x/4x unrolled variants."""
    trials = {}
    calls = []
    original = speculation.transform_block

    def recording(*args):
        calls.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(speculation, "transform_block", recording)
        # A fresh evaluation builds fresh programs, so no memoised
        # transform of an earlier test hides a trial.
        evaluation = Evaluation(EvaluationSettings(scale=1.0))
        for name in evaluation.benchmarks:
            for machine in (evaluation.machine_4w, evaluation.machine_8w):
                evaluation.compilation(name, machine)
            trials[name], calls = calls, []
        regions_exp.compute(evaluation)
        trials["regions"] = calls
    return trials


def test_the_searches_build_trials(greedy_trials):
    assert sum(len(t) for t in greedy_trials.values()) > 150
    assert greedy_trials["regions"]
    # Multi-prediction trials (the chained-check and ordering edges) occur.
    assert any(len(args[2]) > 1 for t in greedy_trials.values() for args in t)


@pytest.mark.parametrize("source", sorted(BENCHMARKS) + ["regions"])
def test_greedy_trials_match_the_reference(greedy_trials, source):
    for args in greedy_trials[source]:
        assert_same_transform(args)


# -- random blocks -------------------------------------------------------------

REGS = [f"r{i}" for i in range(5)]


def _random_block(ops):
    fb = FunctionBuilder("f")
    fb.block("entry")
    fb.mov("r0", 100)
    for kind, dst, a, b in ops:
        if kind == "load":
            fb.load(dst, a)
        elif kind == "alu":
            fb.add(dst, a, b)
        elif kind == "mul":
            fb.mul(dst, a, b)
        else:
            fb.store(a, b, offset=7)
    fb.brcond("r1", "entry", "exit")
    fb.block("exit")
    fb.halt()
    return fb.build().block("entry")


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["load", "alu", "mul", "store"]),
        st.sampled_from(REGS),
        st.sampled_from(REGS),
        st.sampled_from(REGS),
    ),
    min_size=2,
    max_size=18,
)


@settings(max_examples=150, deadline=None)
@given(
    ops=_OPS,
    picks=st.lists(st.integers(min_value=0, max_value=40), max_size=5, unique=True),
    live_out=st.sets(st.sampled_from(REGS)),
    sync_width=st.integers(min_value=1, max_value=8),
    speculate_liveout=st.booleans(),
    wide=st.booleans(),
)
def test_random_blocks_match_the_reference(
    ops, picks, live_out, sync_width, speculate_liveout, wide
):
    block = _random_block(ops)
    machine = PLAYDOH_8W if wide else PLAYDOH_4W
    predictable = [op for op in block.operations if speculation._predictable(op)]
    chosen = list(dict.fromkeys(predictable[i % len(predictable)] for i in picks))
    config = SpeculationConfig(sync_width=sync_width, speculate_liveout=speculate_liveout)
    live = frozenset(Reg(name) for name in live_out)
    assert_same_transform((block, machine, chosen, live, config, None))


# -- per-node edge order is free -------------------------------------------------


def _permuted(graph: DependenceGraph, rng) -> DependenceGraph:
    """The same graph with every node's pred and succ lists shuffled."""
    preds, succs = {}, {}
    for op in graph.operations:
        preds[op.op_id] = rng.sample(list(graph.pred_edges(op.op_id)), len(graph.pred_edges(op.op_id)))
        succs[op.op_id] = rng.sample(list(graph.succ_edges(op.op_id)), len(graph.succ_edges(op.op_id)))
    return DependenceGraph.from_edge_lists(graph.operations, preds, succs)


@settings(max_examples=100, deadline=None)
@given(
    ops=_OPS,
    picks=st.lists(st.integers(min_value=0, max_value=40), max_size=4, unique=True),
    rng=st.randoms(use_true_random=False),
    wide=st.booleans(),
)
def test_schedule_and_analysis_ignore_edge_order(ops, picks, rng, wide):
    block = _random_block(ops)
    machine = PLAYDOH_8W if wide else PLAYDOH_4W
    predictable = [op for op in block.operations if speculation._predictable(op)]
    chosen = list(dict.fromkeys(predictable[i % len(predictable)] for i in picks))
    graphs = [build_ddg(block, machine), transform_block(block, machine, chosen).graph]
    for graph in graphs:
        shuffled = _permuted(graph, rng)
        assert analyze(shuffled, machine) == analyze(graph, machine)
        scheduler = ListScheduler(machine)
        assert pickle.dumps(scheduler.schedule_graph("b", shuffled)) == pickle.dumps(
            scheduler.schedule_graph("b", graph)
        )
