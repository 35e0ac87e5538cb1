"""Process-level trace cache for runner-less evaluation sweeps.

The :class:`~repro.runner.executor.Runner` path disk-caches traces as first-class
jobs; direct :class:`~repro.evaluation.experiment.Evaluation` use (the
table/figure modules, tests) has no disk cache to lean on, so this
module provides a small in-process LRU keyed by the program's
structural digest.  A threshold ablation that profiles and
simulates the same built program at N sweep points then pays for one
interpretation and N-1 replays.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.ir.program import Program
from repro.trace.capture import capture_trace
from repro.trace.format import ValueTrace, program_digest

#: Traces whose value stream exceeds this many entries are served but not
#: retained, bounding the store's memory footprint at full workload scale.
DEFAULT_MAX_VALUES = 2_000_000


class TraceStore:
    """A bounded LRU of captured traces, keyed by program digest."""

    def __init__(self, capacity: int = 16, max_values: int = DEFAULT_MAX_VALUES):
        if capacity < 1:
            raise ValueError("TraceStore capacity must be >= 1")
        self.capacity = capacity
        self.max_values = max_values
        self._traces: "OrderedDict[str, ValueTrace]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.captures = 0

    def __len__(self) -> int:
        return len(self._traces)

    def get(self, program: Program) -> Optional[ValueTrace]:
        digest = program_digest(program)
        trace = self._traces.get(digest)
        if trace is None:
            self.misses += 1
            return None
        self.hits += 1
        self._traces.move_to_end(digest)
        return trace

    def put(self, trace: ValueTrace) -> None:
        if trace.n_values > self.max_values:
            return
        self._traces[trace.program_digest] = trace
        self._traces.move_to_end(trace.program_digest)
        while len(self._traces) > self.capacity:
            self._traces.popitem(last=False)

    def get_or_capture(
        self, program: Program, max_operations: int = 5_000_000
    ) -> ValueTrace:
        """The cached trace for ``program``, capturing it on first use."""
        trace = self.get(program)
        if trace is None:
            trace = capture_trace(program, max_operations=max_operations)
            self.captures += 1
            self.put(trace)
        return trace

    def clear(self) -> None:
        self._traces.clear()


_DEFAULT_STORE: Optional[TraceStore] = None


def default_store() -> TraceStore:
    """The process-wide trace store (created on first use)."""
    global _DEFAULT_STORE
    if _DEFAULT_STORE is None:
        _DEFAULT_STORE = TraceStore()
    return _DEFAULT_STORE


def reset_default_store() -> None:
    """Drop the process-wide store (test isolation)."""
    global _DEFAULT_STORE
    _DEFAULT_STORE = None
