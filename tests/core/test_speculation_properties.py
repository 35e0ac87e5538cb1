"""Property-based tests of the full speculation + simulation stack.

Random straight-line blocks with random prediction subsets are pushed
through transform -> schedule -> all-outcome simulation, and structural
invariants are checked on each stage.  This is the widest net for
interaction bugs between the compiler pass and the dual-engine model.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.isa_ext import OpForm
from repro.core.machine_sim import simulate_all_outcomes
from repro.core.specsched import schedule_speculative
from repro.core.speculation import transform_block
from repro.ir.builder import FunctionBuilder
from repro.machine.configs import PLAYDOH_4W, PLAYDOH_8W
from repro.sched.list_scheduler import schedule_block


def build_random_block(ops):
    fb = FunctionBuilder("f")
    fb.block("entry")
    fb.mov("r0", 100)
    loads = []
    for kind, dst, a, b in ops:
        if kind == "load":
            loads.append(fb.load(dst, a))
        elif kind == "alu":
            fb.add(dst, a, b)
        elif kind == "mul":
            fb.mul(dst, a, b)
        else:
            fb.store(a, b, offset=7)
    fb.halt()
    return fb.build().block("entry"), loads


def _ops_strategy():
    regs = st.sampled_from([f"r{i}" for i in range(5)])
    return st.lists(
        st.one_of(
            st.tuples(st.just("load"), regs, regs, regs),
            st.tuples(st.just("alu"), regs, regs, regs),
            st.tuples(st.just("mul"), regs, regs, regs),
            st.tuples(st.just("store"), regs, regs, regs),
        ),
        min_size=2,
        max_size=16,
    )


# Draws that deadlocked the FIFO CCB before the speculative scheduler
# repaired CCB entry order: a speculated consumer of one prediction
# entered the CCB ahead of a speculated op that a later waiting
# instruction (a check with a tainted address, or a store) needs
# recomputed, while that consumer's own check issued after the wait.
@example(
    ops=[
        ("load", "r0", "r0", "r0"),
        ("mul", "r1", "r0", "r0"),
        ("alu", "r1", "r1", "r1"),
        ("load", "r2", "r1", "r0"),
        ("alu", "r0", "r0", "r2"),
    ],
    pick=1,
    wide=False,
)
@example(
    ops=[
        ("load", "r0", "r0", "r0"),
        ("alu", "r0", "r0", "r0"),
        ("load", "r2", "r0", "r0"),
        ("alu", "r1", "r1", "r2"),
    ],
    pick=1,
    wide=False,
)
@example(
    ops=[
        ("alu", "r0", "r0", "r0"),
        ("load", "r2", "r0", "r0"),
        ("alu", "r2", "r2", "r0"),
        ("store", "r0", "r0", "r2"),
        ("load", "r1", "r0", "r0"),
        ("alu", "r3", "r0", "r1"),
    ],
    pick=1,
    wide=False,
)
@settings(max_examples=60, deadline=None)
@given(ops=_ops_strategy(), pick=st.integers(min_value=0, max_value=3), wide=st.booleans())
def test_transform_and_simulate_invariants(ops, pick, wide):
    machine = PLAYDOH_8W if wide else PLAYDOH_4W
    block, loads = build_random_block(ops)
    if not loads:
        return
    # Choose up to `pick`+1 loads, but only ones whose operands are not
    # tainted by earlier choices is NOT required — the transform supports
    # chained predicted loads.  Dedup by destination to avoid predicting
    # two loads of the same register (an untested corner of the ISA).
    chosen = []
    seen_dests = set()
    for load in loads[: pick + 1]:
        if load.dest not in seen_dests:
            chosen.append(load)
            seen_dests.add(load.dest)
    if not chosen:
        return

    spec = transform_block(block, machine, chosen)

    # --- static invariants ------------------------------------------------
    # one LdPred and one check per prediction, forms consistent
    assert spec.num_predictions == len(chosen)
    forms = [spec.info[op.op_id].form for op in spec.operations]
    assert forms.count(OpForm.LDPRED) == len(chosen)
    assert forms.count(OpForm.CHECK) == len(chosen)
    # sync bits unique
    bits = [i.sync_bit for i in spec.info.values() if i.sync_bit is not None]
    assert len(bits) == len(set(bits))
    # stores and branches never speculative
    for op in spec.operations:
        if op.has_side_effect:
            assert spec.info[op.op_id].form in (OpForm.PLAIN, OpForm.NONSPEC)
    # speculative ops have origins; plain ops have none
    for op in spec.operations:
        info = spec.info[op.op_id]
        if info.form is OpForm.SPECULATIVE:
            assert info.origins
        if info.form is OpForm.PLAIN:
            assert not info.origins
    # program order is topological for the rewired graph
    position = {op.op_id: i for i, op in enumerate(spec.operations)}
    for edge in spec.graph.edges():
        assert position[edge.src] < position[edge.dst]

    # --- scheduling invariants -----------------------------------------------
    original_length = schedule_block(block, machine).length
    sched = schedule_speculative(spec, machine, original_length=original_length)
    for edge in spec.graph.edges():
        assert (
            sched.schedule.issue_cycle(edge.dst)
            >= sched.schedule.issue_cycle(edge.src) + edge.weight
        )

    # --- simulation invariants --------------------------------------------------
    results = simulate_all_outcomes(sched)
    assert len(results) == 1 << len(chosen)
    best = results[(True,) * len(chosen)]
    # All-correct: no stalls, nothing recomputed, static length achieved.
    assert best.stall_cycles == 0
    assert best.executed == 0
    assert best.effective_length == sched.length
    n_speculated = len(spec.speculated_ops)
    for pattern, run in results.items():
        # every run is at least as long as the all-correct one
        assert run.effective_length >= best.effective_length
        # every speculated op either flushes or re-executes
        assert run.flushed + run.executed == n_speculated
        assert run.predictions == len(chosen)
        assert run.mispredictions == sum(1 for c in pattern if not c)
