"""Cycle-by-cycle timeline rendering (the paper's Figure 7 view).

Given a speculative schedule, a :class:`BlockRun` and the run's event
log (both from :func:`repro.core.machine_sim.trace_block`), renders a
three-column per-cycle table: what the VLIW Engine issues (with operation
forms and Synchronization-bit annotations), what the Compensation Code
Engine does, and the verification events of the cycle.  This is the tool
the worked example uses to show the Figure 3/7 scenarios, and a handy
debugging aid for anyone extending the architecture.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ir.printer import format_table
from repro.obs.trace import (
    BitClearEvent,
    CheckEvent,
    ExecuteEvent,
    FlushEvent,
    StallEvent,
)
from repro.core.isa_ext import OpForm
from repro.obs.trace import BlockLog
from repro.core.machine_sim import BlockRun
from repro.core.specsched import SpeculativeSchedule

_FORM_GLYPH = {
    OpForm.PLAIN: "",
    OpForm.LDPRED: "LdPred",
    OpForm.CHECK: "check",
    OpForm.SPECULATIVE: "spec",
    OpForm.NONSPEC: "nonspec",
}


def _vliw_cell(spec_schedule: SpeculativeSchedule, op_ids: List[int]) -> str:
    spec = spec_schedule.spec
    by_id = {op.op_id: op for op in spec.operations}
    parts = []
    for op_id in op_ids:
        op = by_id[op_id]
        info = spec.info[op_id]
        glyph = _FORM_GLYPH[info.form]
        tag = f" [{glyph}]" if glyph else ""
        if info.sync_bit is not None:
            tag += f" +b{info.sync_bit}"
        if info.wait_bits:
            tag += f" ?b{{{','.join(str(b) for b in sorted(info.wait_bits))}}}"
        text = str(op)
        # strip the "opNN: " prefix for readability; keep the id
        parts.append(f"op{op_id} {text.split(': ', 1)[1]}{tag}")
    return "; ".join(parts)


def render_timeline(
    spec_schedule: SpeculativeSchedule, run: BlockRun, log: BlockLog
) -> str:
    """Render a per-cycle dual-engine timeline of ``run`` from its log."""
    issued_at: Dict[int, List[int]] = {}
    for op_id, cycle in log.issue_times():
        issued_at.setdefault(cycle, []).append(op_id)

    # The CCE column shows pipeline activity; the events column shows
    # verification verdicts and stalls.  Both come from the typed trace
    # (no string matching): flush/execute events drive the CCE column,
    # stall/check/bit-clear events the notes.
    cce_at: Dict[int, List[str]] = {}
    notes_at: Dict[int, List[str]] = {}
    for event in log.events():
        if isinstance(event, ExecuteEvent):
            cce_at.setdefault(event.cycle, []).append(
                f"execute op{event.op_id} (done @{event.completion})"
            )
        elif isinstance(event, FlushEvent):
            cce_at.setdefault(event.cycle, []).append(f"flush op{event.op_id}")
        elif isinstance(event, (StallEvent, CheckEvent, BitClearEvent)):
            notes_at.setdefault(event.cycle, []).append(event.describe())

    last_cycle = max(
        [run.effective_length]
        + [c for c in issued_at]
        + [c for c in cce_at]
        + [t for t in notes_at]
    )
    rows: List[Tuple[str, str, str, str]] = []
    for cycle in range(last_cycle + 1):
        vliw = _vliw_cell(spec_schedule, sorted(issued_at.get(cycle, [])))
        cce = "; ".join(cce_at.get(cycle, []))
        notes = "; ".join(notes_at.get(cycle, []))
        if vliw or cce or notes:
            rows.append((str(cycle), vliw, cce, notes))

    header = (
        f"block {run.label}: {run.effective_length} cycles, "
        f"{run.mispredictions}/{run.predictions} mispredicted, "
        f"{run.stall_cycles} stall cycle(s)\n"
    )
    return header + format_table(
        ["cycle", "VLIW Engine", "Compensation Code Engine", "events"], rows
    )
