"""Trace-driven profiling over the struct-of-arrays decode.

A profile counts block entries and, per tracked op, how often a stride
and an FCM predictor would have been right.  Both reduce to per-column
facts the :class:`~repro.batchsim.arrays.TraceArrays` decode already
holds:

* block frequencies are an ``np.bincount`` over the block sequence;
* the per-load stride/FCM hit counters are the sums of that load's
  two-delta stride and order-2 FCM outcome columns — the column kernels
  of :mod:`repro.predict.stride` and :mod:`repro.predict.fcm`, taken
  from the :class:`~repro.batchsim.context.BatchContext` column cache.
  A simulation whose predictor is stride, FCM(2, 16) or the default
  hybrid reads the very same columns, so each load's value stream is
  walked once per component for the profile and every simulation.

Byte-parity notes:

* dict insertion order is observable through pickling, so both the
  block-count dict and the value-stats dict are built in *first dynamic
  encounter* order, exactly as a per-event profiler would;
* ops that never execute get no stats entry (a per-event profiler only
  creates stats on first execution).

The parity suites (``tests/batchsim/``, ``tests/trace/``) assert
equality against the streaming reference profilers of
``tests/trace/reference_runs.py`` on the suite and on
hypothesis-generated programs, and ``tests/predict/`` holds the kernels
to the stateful predictor classes those profilers drive.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.batchsim.outcomes import PROFILE_FCM, STRIDE
from repro.profiling.block_profile import BlockProfile
from repro.profiling.interpreter import ExecutionLimitExceeded
from repro.profiling.value_profile import (
    LONG_LATENCY_OPCODES,
    LoadValueStats,
    ValueProfile,
)


def batch_profile(
    program,
    trace,
    context,
    max_operations: int = 5_000_000,
    profile_alu: bool = False,
):
    """The :class:`~repro.profiling.profile_run.ProfileData` of one
    captured run, computed from the struct-of-arrays decode.

    Computed column-wise through ``context``'s shared
    :class:`TraceArrays`: same counters and dict orders as profilers fed
    one event at a time, and the engine's limit/mismatch errors.
    """
    from repro.profiling.profile_run import ProfileData

    if trace.dynamic_operations > max_operations:
        raise ExecutionLimitExceeded(
            f"{trace.program_name}: exceeded {max_operations} operations"
        )
    arrays = context.arrays(trace, program)
    function = program.main
    tracked = (
        frozenset(LONG_LATENCY_OPCODES) if profile_alu else frozenset()
    )

    # First-encounter order of labels, then counts per label.
    block_counts: Dict[str, int] = {}
    value_stats: Dict[int, LoadValueStats] = {}
    if len(arrays.block_seq):
        uniq, first = np.unique(arrays.block_seq, return_index=True)
        counts = np.bincount(arrays.block_seq, minlength=len(arrays.labels))
        for idx in uniq[np.argsort(first)]:
            label = arrays.labels[int(idx)]
            block_counts[label] = int(counts[int(idx)])
            block = function.block(label)
            for op in block.operations:
                if not (op.is_load or op.opcode in tracked):
                    continue
                if op.op_id in value_stats:
                    continue
                stride = context.component(arrays, STRIDE, label, op.op_id)
                fcm = context.component(arrays, PROFILE_FCM, label, op.op_id)
                value_stats[op.op_id] = LoadValueStats(
                    executions=stride.occurrences,
                    stride_correct=stride.hits,
                    fcm_correct=fcm.hits,
                )
    return ProfileData(
        program_name=program.name,
        blocks=BlockProfile(block_counts),
        values=ValueProfile(value_stats),
    )
