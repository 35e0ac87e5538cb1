"""Cycle accounting: attribute every simulated cycle to one cause.

The paper's whole argument is a cycle ledger — value speculation trades
load-dependence stall cycles for (hopefully fewer) check/flush/re-exec
recovery cycles — so the simulator must be able to say not just *how
many* cycles a block cost but *why*.  This module provides:

* the cause vocabulary and binding rules the VLIW engine uses to write
  ``charge`` entries into a block run's event log
  (:class:`repro.obs.trace.BlockLog`), from which the run's stack is
  folded;
* :func:`attribute_schedule` — static attribution of a
  :class:`~repro.sched.schedule.Schedule`: every cycle of the schedule
  length goes to exactly one cause, by construction;
* :class:`CPIStack` — the schema-versioned aggregate artifact, with
  merge/scale/diff and JSON round-trips (baseline vs. speculative is a
  first-class delta view);
* text renderers for the ``repro-cycles`` CLI bar charts.

Causes (:data:`CAUSES`) and precedence when several coincide:

``issue``
    A cycle in which a long instruction issued (useful work).  An
    instruction whose slots are *all* check-compares is charged to
    ``check_compare`` instead — the cycle exists only to verify.
``check_compare``
    Check-compare issue cycles, plus gap/tail cycles bound by an
    in-flight check's latency.
``load_wait``
    Gap or tail cycles bound by an in-flight load (or LdPred): the
    schedule is waiting on memory latency.
``dep_stall``
    Remaining schedule bubbles — gaps bound by a non-load, non-check
    operation (or by nothing at all): plain dependence height.
``sync_stall``
    Dynamic cycles the VLIW engine stalled on sync bits that were
    cleared by a *check* (waiting for verification).
``reexec``
    Dynamic sync-bit stalls whose binding bit was cleared by a CC-engine
    *re-execution* — recovery compute on the second engine, and the
    baseline machine's serial compensation-block cycles.
``flush_recovery``
    Dynamic sync-bit stalls whose binding bit was cleared by a CC-engine
    *flush* (correct speculation retired from the CCB).
``ccb_pressure``
    Issue stalled because the Compensation Code Buffer was full and the
    engine had to wait for the CCE to free entries.
``branch_penalty``
    Baseline-machine branch redirects into/out of compensation blocks.
``icache_miss``
    Instruction-cache miss penalties (any machine, when modelled).

When one stall has several plausible causes the *binding* event wins:
for sync stalls the bit with the latest clear time (ties broken
``execute`` > ``flush`` > ``check``), for schedule gaps and tails the
in-flight operation with the latest completion (ties broken
``load_wait`` > ``check_compare`` > ``dep_stall``).

The hard invariant — ``sum(stack) == total cycles`` — is asserted on
every block run by :func:`repro.core.machine_sim.simulate_block` and on
every cycle-accounted program run by
:func:`repro.core.program_sim.simulate_program`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.ir.opcodes import Opcode

#: Every cause the engines charge, in display order.
CAUSES: Tuple[str, ...] = (
    "issue",
    "check_compare",
    "load_wait",
    "dep_stall",
    "sync_stall",
    "reexec",
    "flush_recovery",
    "ccb_pressure",
    "branch_penalty",
    "icache_miss",
)

#: Bump when the CPI-stack artifact shape changes.
CPI_SCHEMA_VERSION = 1

#: Tie-break rank for gap/tail binding operations.
BIND_RANK = {"load_wait": 2, "check_compare": 1, "dep_stall": 0}

#: Sync-stall cause by who cleared the binding bit.
SYNC_CLEAR_CAUSES: Dict[Optional[str], str] = {
    "execute": "reexec",
    "flush": "flush_recovery",
    "check": "sync_stall",
    None: "sync_stall",
}

#: Tie-break rank for the binding sync bit (latest clear wins first).
SYNC_SOURCE_RANK = {"execute": 3, "flush": 2, "check": 1, None: 0}


def operation_wait_cause(opcode: Opcode) -> str:
    """The cause charged when this in-flight operation binds a gap/tail."""
    if opcode is Opcode.LOAD or opcode is Opcode.LDPRED:
        return "load_wait"
    if opcode is Opcode.CHKPRED:
        return "check_compare"
    return "dep_stall"


def instruction_cause(instr: Any) -> str:
    """The cause of an instruction's own issue cycle."""
    return instruction_binding(instr)[0]


def instruction_binding(instr: Any) -> Tuple[str, int, int, str]:
    """One pass over an instruction's slots.

    Returns the cause of the instruction's own issue cycle and the
    ``(latency, rank, cause)`` of its binding operation: the slot with
    the longest latency, ties broken by :data:`BIND_RANK`.  The static
    attribution and the dynamic engine both call this once per
    instruction.
    """
    checks_only = bool(instr.slots)
    best = (-1, -1, "dep_stall")
    for slot in instr.slots:
        cause = operation_wait_cause(slot.operation.opcode)
        if cause != "check_compare":
            checks_only = False
        key = (slot.latency, BIND_RANK[cause], cause)
        if key > best:
            best = key
    return ("check_compare" if checks_only else "issue",) + best


def attribute_schedule(schedule: Any) -> Dict[str, int]:
    """Statically attribute every cycle of a schedule to one cause.

    Decomposes ``schedule.length`` as *leading gap + inner gaps + one
    issue cycle per instruction + completion tail*; each gap/tail is
    charged to the in-flight operation with the latest completion (see
    module docstring for precedence).  The returned counts sum to
    ``schedule.length`` by construction.
    """
    counts: Dict[str, int] = {}

    def charge(cause: str, cycles: int) -> None:
        if cycles > 0:
            counts[cause] = counts.get(cause, 0) + cycles

    prev_cycle = -1
    # Longest-completion operation issued so far (the binding op).
    best_completion = -1
    best_rank = -1
    best_cause = "dep_stall"
    for instr in schedule.instructions():
        gap = instr.cycle - prev_cycle - 1
        if gap > 0:
            # The gap is bound by the longest in-flight op, if any is
            # still executing when the gap starts.
            if best_completion > prev_cycle + 1:
                charge(best_cause, gap)
            else:
                charge("dep_stall", gap)
        issue_cause, latency, rank, cause = instruction_binding(instr)
        charge(issue_cause, 1)
        if (instr.cycle + latency, rank) > (best_completion, best_rank):
            best_completion = instr.cycle + latency
            best_rank = rank
            best_cause = cause
        prev_cycle = instr.cycle
    charge(best_cause, schedule.length - prev_cycle - 1)
    return counts


@dataclass(frozen=True)
class CPIStack:
    """Schema-versioned per-cause cycle breakdown (immutable aggregate)."""

    counts: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def of(cls, counts: Mapping[str, int]) -> "CPIStack":
        return cls(counts={k: int(v) for k, v in counts.items() if v})

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def get(self, cause: str) -> int:
        return self.counts.get(cause, 0)

    def fraction(self, cause: str) -> float:
        total = self.total
        return self.counts.get(cause, 0) / total if total else 0.0

    def merged(self, other: "CPIStack") -> "CPIStack":
        counts = dict(self.counts)
        for cause, cycles in other.counts.items():
            counts[cause] = counts.get(cause, 0) + cycles
        return CPIStack.of(counts)

    def scaled(self, factor: int) -> "CPIStack":
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return CPIStack.of({k: v * factor for k, v in self.counts.items()})

    def diff(self, other: "CPIStack") -> Dict[str, int]:
        """Per-cause delta ``self - other`` over the union of causes.

        Keys with a zero delta are dropped, so an empty dict means the
        stacks are identical.
        """
        out: Dict[str, int] = {}
        for cause in set(self.counts) | set(other.counts):
            delta = self.counts.get(cause, 0) - other.counts.get(cause, 0)
            if delta:
                out[cause] = delta
        return out

    def dominant(self, exclude: Sequence[str] = ("issue",)) -> Optional[str]:
        """The largest cause outside ``exclude`` (ties broken by the
        :data:`CAUSES` display order, then name); ``None`` if empty."""

        def order(cause: str) -> Tuple[int, str]:
            try:
                return (CAUSES.index(cause), cause)
            except ValueError:
                return (len(CAUSES), cause)

        candidates = [
            (cycles, cause)
            for cause, cycles in self.counts.items()
            if cause not in exclude and cycles > 0
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda cv: (-cv[0], order(cv[1])))[1]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": CPI_SCHEMA_VERSION,
            "total": self.total,
            "counts": dict(sorted(self.counts.items())),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CPIStack":
        schema = data.get("schema", CPI_SCHEMA_VERSION)
        if schema != CPI_SCHEMA_VERSION:
            raise ValueError(
                f"CPI stack schema v{schema} unsupported "
                f"(this code reads v{CPI_SCHEMA_VERSION})"
            )
        return cls.of({k: int(v) for k, v in data.get("counts", {}).items()})


def _ordered_causes(counts: Mapping[str, int]) -> List[str]:
    """Known causes in display order, then unknown extras alphabetically."""
    extras = sorted(set(counts) - set(CAUSES))
    return [c for c in CAUSES if c in counts] + extras


def render_stack(
    stack: CPIStack, title: Optional[str] = None, width: int = 40
) -> str:
    """Text bar chart of one stack (largest-known-cause bar = ``width``)."""
    lines: List[str] = []
    if title:
        lines.append(title)
    total = stack.total
    lines.append(f"  total cycles: {total}")
    peak = max(stack.counts.values(), default=0)
    for cause in _ordered_causes(stack.counts):
        cycles = stack.counts[cause]
        bar = "#" * max(1, round(cycles / peak * width)) if peak else ""
        lines.append(
            f"  {cause:<14} {cycles:>12}  {stack.fraction(cause) * 100:5.1f}%  {bar}"
        )
    return "\n".join(lines)


def render_diff(
    new: CPIStack,
    old: CPIStack,
    title: Optional[str] = None,
    width: int = 40,
) -> str:
    """Text view of ``new - old``: signed bars, shrinking causes ``-``."""
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(
        f"  total cycles: {old.total} -> {new.total} "
        f"({new.total - old.total:+d})"
    )
    deltas = new.diff(old)
    if not deltas:
        lines.append("  (identical)")
        return "\n".join(lines)
    peak = max(abs(d) for d in deltas.values())
    for cause in _ordered_causes(deltas):
        delta = deltas[cause]
        glyph = "+" if delta > 0 else "-"
        bar = glyph * max(1, round(abs(delta) / peak * width))
        lines.append(f"  {cause:<14} {delta:>+12}  {bar}")
    return "\n".join(lines)
