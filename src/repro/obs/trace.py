"""The dual engine's event log and the typed events read from it.

Every fact about a block run is something one of the machine's four
parts did at some cycle: the VLIW Engine, the Compensation Code Engine,
the OVB and the Synchronization register.  They append it, as a plain
tuple ``(kind, cycle, *fields)``, to one :class:`BlockLog` owned by the
run.  The log is always on; everything else is read from it after the
run:

* the typed events below (:meth:`BlockLog.events`), which carry a
  machine-readable ``kind``, the engine that produced them, a ``cycle``
  and the identifiers the event is about.  Consumers that want human
  text call :meth:`TraceEvent.describe`; consumers that want structure
  (the timeline renderer, the Perfetto exporter, tests) match on the
  event classes and never parse strings;
* the ``issue_times`` and ``cc_events`` views and the cycle-accounting
  charges (:meth:`BlockLog.issue_times`, :meth:`BlockLog.cc_events`,
  :meth:`BlockLog.charges`);
* the run's cycle stack and metrics snapshot (:meth:`BlockLog.fold`).

An entry's fields follow its event class's field order, so
``EVENT_CLASSES[kind](*entry[1:])`` builds the typed event.  Two kinds
have no event class: ``("issue", cycle, op_id)`` for each issued
operation and ``("charge", cycle, cause, cycles)`` for each attributed
chunk of cycles (see :mod:`repro.obs.cycles`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, List, NamedTuple, Tuple

from repro.obs.metrics import HistogramSummary, MetricsSnapshot, metric_key

#: Engine/track identifiers, used by the Perfetto exporter for grouping.
ENGINE_VLIW = "vliw"
ENGINE_CCE = "cce"
ENGINE_OVB = "ovb"
ENGINE_SYNC = "sync"

_ENGINE_PREFIX = {
    ENGINE_VLIW: "VLIW",
    ENGINE_CCE: "CCE",
    ENGINE_OVB: "OVB",
    ENGINE_SYNC: "SYNC",
}


@dataclass(frozen=True)
class TraceEvent:
    """Base class: one thing that happened at one cycle."""

    kind: ClassVar[str] = "event"
    engine: ClassVar[str] = ""

    cycle: int

    def describe(self) -> str:
        """Human-readable body (no engine prefix)."""
        return self.kind

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly form, ``kind``/``engine`` included."""
        out: Dict[str, Any] = {"kind": self.kind, "engine": self.engine}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    def __str__(self) -> str:
        prefix = _ENGINE_PREFIX.get(self.engine, self.engine)
        return f"{prefix}: {self.describe()}" if prefix else self.describe()


# -- VLIW Engine events ------------------------------------------------------

@dataclass(frozen=True)
class StallEvent(TraceEvent):
    """An instruction stalled on Synchronization bits before issuing."""

    kind: ClassVar[str] = "stall"
    engine: ClassVar[str] = ENGINE_VLIW

    bits: Tuple[int, ...]
    stall: int

    def describe(self) -> str:
        return f"stall {self.stall} cycle(s) on bits {list(self.bits)}"


@dataclass(frozen=True)
class BufferStallEvent(TraceEvent):
    """Issue stalled (or overflowed) on a full speculation buffer.

    ``buffer`` is ``"ccb"`` or ``"ovb"``.  For the CCB the VLIW engine
    stalls issue until the Compensation Code Engine frees entries and
    ``stall`` is the cycles lost; a structural overflow (no frees can
    ever help) raises instead and ``stall`` is 0.  The OVB has no stall
    path — overflow always raises — so its events carry ``stall=0``.
    """

    kind: ClassVar[str] = "buffer_stall"
    engine: ClassVar[str] = ENGINE_VLIW

    buffer: str
    op_id: int
    stall: int

    def describe(self) -> str:
        if self.stall:
            return (
                f"stall {self.stall} cycle(s): {self.buffer.upper()} full "
                f"at op{self.op_id}"
            )
        return f"{self.buffer.upper()} full at op{self.op_id}"


@dataclass(frozen=True)
class LdPredEvent(TraceEvent):
    """An ``LdPred`` issued: predicted value deposited, sync bit set."""

    kind: ClassVar[str] = "ldpred"
    engine: ClassVar[str] = ENGINE_VLIW

    op_id: int
    sync_bit: int

    def describe(self) -> str:
        return f"LdPred op{self.op_id} sets bit {self.sync_bit}"


@dataclass(frozen=True)
class SpeculateEvent(TraceEvent):
    """A speculated op issued and shipped into the CCB."""

    kind: ClassVar[str] = "speculate"
    engine: ClassVar[str] = ENGINE_VLIW

    op_id: int
    sync_bit: int

    def describe(self) -> str:
        return f"speculate op{self.op_id} (bit {self.sync_bit}) -> CCB"


@dataclass(frozen=True)
class CheckEvent(TraceEvent):
    """A check-prediction op completed with a verdict."""

    kind: ClassVar[str] = "check"
    engine: ClassVar[str] = ENGINE_VLIW

    op_id: int
    ldpred_id: int
    correct: bool

    def describe(self) -> str:
        verdict = "correct" if self.correct else "MISPREDICT"
        return f"check op{self.op_id}: {verdict} (LdPred op{self.ldpred_id})"


@dataclass(frozen=True)
class BitClearEvent(TraceEvent):
    """A successful check cleared a dependent speculated op's bit."""

    kind: ClassVar[str] = "bit_clear"
    engine: ClassVar[str] = ENGINE_VLIW

    op_id: int
    sync_bit: int

    def describe(self) -> str:
        return f"check clears bit of op{self.op_id} (all origins correct)"


# -- Compensation Code Engine events ----------------------------------------

@dataclass(frozen=True)
class FlushEvent(TraceEvent):
    """A correctly speculated CCB entry drained in one pipeline slot."""

    kind: ClassVar[str] = "flush"
    engine: ClassVar[str] = ENGINE_CCE

    op_id: int
    completion: int

    def describe(self) -> str:
        return f"flush op{self.op_id}"


@dataclass(frozen=True)
class ExecuteEvent(TraceEvent):
    """A CCB entry re-executed with corrected operand values."""

    kind: ClassVar[str] = "execute"
    engine: ClassVar[str] = ENGINE_CCE

    op_id: int
    completion: int

    def describe(self) -> str:
        return f"execute op{self.op_id} -> done @{self.completion}"


# -- Operand Value Buffer events --------------------------------------------

@dataclass(frozen=True)
class OvbTransitionEvent(TraceEvent):
    """An OVB record entered a verification state (PN/RN/C/R)."""

    kind: ClassVar[str] = "ovb_transition"
    engine: ClassVar[str] = ENGINE_OVB

    op_id: int
    state: str

    def describe(self) -> str:
        return f"op{self.op_id} -> {self.state}"


# -- Synchronization register events ----------------------------------------

@dataclass(frozen=True)
class SyncSetEvent(TraceEvent):
    """A Synchronization bit was set by its producer."""

    kind: ClassVar[str] = "sync_set"
    engine: ClassVar[str] = ENGINE_SYNC

    bit: int

    def describe(self) -> str:
        return f"set bit {self.bit}"


@dataclass(frozen=True)
class SyncClearEvent(TraceEvent):
    """A Synchronization bit's clear time was recorded (or improved)."""

    kind: ClassVar[str] = "sync_clear"
    engine: ClassVar[str] = ENGINE_SYNC

    bit: int

    def describe(self) -> str:
        return f"clear bit {self.bit}"


#: Entry kind -> typed event class (the log's read-side vocabulary).
EVENT_CLASSES: Dict[str, type] = {
    cls.kind: cls for cls in TraceEvent.__subclasses__()
}


#: Entry kinds without an event class.
ISSUE = "issue"
CHARGE = "charge"

#: Counter key of each OVB state a record can enter (paper Table 1).
_TRANSITION_KEYS = {
    state: metric_key("ovb.state_transitions", state)
    for state in ("PN", "RN", "C", "R")
}

#: Every counter order a fold has produced; runs with the same order
#: share one tuple (a handful of orders serve every block).
_SERIES: Dict[Tuple[str, ...], Tuple[str, ...]] = {}


class Tally(NamedTuple):
    """A block run's metrics as :meth:`BlockLog.fold` counts them.

    Kept on every memoised run instead of a :class:`MetricsSnapshot`,
    which :meth:`snapshot` builds on demand.
    """

    #: Counter names, in the order each series was first counted.
    series: Tuple[str, ...]
    #: Counter values, one per name.
    counts: Tuple[int, ...]
    #: Peak OVB occupancy (records are never removed within a block).
    ovb_size: int
    #: The CCB's pending entries at each insertion, in insertion order.
    ccb_occupancy: Tuple[int, ...]

    def snapshot(self) -> MetricsSnapshot:
        """The run's counters, ``ovb.size`` gauge and
        ``cce.ccb_occupancy`` histogram."""
        histograms: Dict[str, HistogramSummary] = {}
        if self.ccb_occupancy:
            summary = histograms["cce.ccb_occupancy"] = HistogramSummary()
            for sample in self.ccb_occupancy:
                summary.observe(sample)
        return MetricsSnapshot(
            counters=dict(zip(self.series, self.counts)),
            gauges={"ovb.size": self.ovb_size} if self.ovb_size else {},
            histograms=histograms,
        )


class BlockLog(list):
    """The entries one block run appended, in emission order.

    Emission order is chronological per engine but only loosely so
    across engines; :meth:`events` sorts by cycle (Python's stable sort
    keeps emission order within a cycle).
    """

    __slots__ = ()

    def events(self) -> Tuple[TraceEvent, ...]:
        """The typed trace events, sorted by cycle."""
        classes = EVENT_CLASSES
        return tuple(
            sorted(
                (classes[e[0]](*e[1:]) for e in self if e[0] in classes),
                key=lambda event: event.cycle,
            )
        )

    def issue_times(self) -> Tuple[Tuple[int, int], ...]:
        """``(op id, issue cycle)`` pairs, sorted by op id."""
        return tuple(sorted((e[2], e[1]) for e in self if e[0] == ISSUE))

    def cc_events(self) -> Tuple[Tuple[int, str, int, int], ...]:
        """``(slot cycle, "flush"|"execute", op id, completion)`` of the
        Compensation Code Engine, in processing order."""
        return tuple(
            (e[1], e[0], e[2], e[3])
            for e in self
            if e[0] == "flush" or e[0] == "execute"
        )

    def charges(self) -> Tuple[Tuple[int, str, int], ...]:
        """``(cycle, cause, cycles)`` cycle-accounting charges."""
        return tuple((e[1], e[2], e[3]) for e in self if e[0] == CHARGE)

    def fold(self) -> Tuple[Dict[str, int], Tally]:
        """One pass over the log: the per-cause cycle stack and the
        run's :class:`Tally`.

        Counters: ``vliw.instructions`` (distinct issue cycles),
        ``vliw.stalls``/``vliw.stall_cycles``,
        ``vliw.ccb_stalls``/``vliw.ccb_stall_cycles``,
        ``vliw.predictions``, ``vliw.mispredictions``,
        ``vliw.speculated``, ``cce.flush``, ``cce.reexec``,
        ``cce.busy_cycles``, ``ovb.inserts``,
        ``ovb.state_transitions{PN,RN,C,R}``, ``sync.sets`` and
        ``sync.clears``.  A series appears once counted, keyed in the
        order the log first counts it.
        """
        stack: Dict[str, int] = {}
        counters: Dict[str, int] = {}
        count = counters.get
        transition_keys = _TRANSITION_KEYS
        producers = set()
        occupancy: List[int] = []
        pending = 0
        last_issue = -1
        # Branches in descending order of frequency; each kind counts
        # its series in the order the engines count them.
        for entry in self:
            kind = entry[0]
            if kind == "issue":
                if entry[1] != last_issue:
                    last_issue = entry[1]
                    counters["vliw.instructions"] = count("vliw.instructions", 0) + 1
            elif kind == "charge":
                cause = entry[2]
                stack[cause] = stack.get(cause, 0) + entry[3]
            elif kind == "ovb_transition":
                state = entry[3]
                if state == "PN" or state == "RN":
                    counters["ovb.inserts"] = count("ovb.inserts", 0) + 1
                    producers.add(entry[2])
                key = transition_keys[state]
                counters[key] = count(key, 0) + 1
            elif kind == "sync_set":
                counters["sync.sets"] = count("sync.sets", 0) + 1
            elif kind == "sync_clear":
                counters["sync.clears"] = count("sync.clears", 0) + 1
            elif kind == "speculate":
                counters["vliw.speculated"] = count("vliw.speculated", 0) + 1
                pending += 1
                occupancy.append(pending)
            elif kind == "execute" or kind == "flush":
                key = "cce.reexec" if kind == "execute" else "cce.flush"
                counters[key] = count(key, 0) + 1
                counters["cce.busy_cycles"] = (
                    count("cce.busy_cycles", 0) + entry[3] - entry[1]
                )
                pending -= 1
            elif kind == "ldpred":
                counters["vliw.predictions"] = count("vliw.predictions", 0) + 1
            elif kind == "check":
                if not entry[4]:
                    counters["vliw.mispredictions"] = (
                        count("vliw.mispredictions", 0) + 1
                    )
            elif kind == "stall":
                counters["vliw.stalls"] = count("vliw.stalls", 0) + 1
                counters["vliw.stall_cycles"] = count("vliw.stall_cycles", 0) + entry[3]
            elif kind == "buffer_stall" and entry[4]:
                counters["vliw.ccb_stalls"] = count("vliw.ccb_stalls", 0) + 1
                counters["vliw.ccb_stall_cycles"] = (
                    count("vliw.ccb_stall_cycles", 0) + entry[4]
                )
        series = tuple(counters)
        tally = Tally(
            _SERIES.setdefault(series, series),
            tuple(counters.values()),
            len(producers),
            tuple(occupancy),
        )
        return stack, tally
