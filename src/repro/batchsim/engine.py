"""The batched point engine: trace columns -> per-point sim counts.

One sweep point's dynamic simulation reduces, given the shared
:class:`~repro.batchsim.context.BatchContext`, to

1. a pattern-count histogram per speculated block (vectorised bitmask
   pack + ``bincount`` over the shared outcome columns), and
2. the same deterministic accounting fold the scalar engine uses
   (:func:`repro.core.program_sim._fold_counts`) over those counts.

Because step 2 is literally shared code, batched results are
byte-identical to the scalar engine by construction; the parity suite
(`tests/batchsim/`) asserts it anyway, end to end.

Points that leave the common path — explicit predictor override, finite
value-prediction table, confidence gating, icache modelling (inherently
sequential cache state) or a missing trace — run the scalar engine
inside :func:`~repro.core.program_sim.simulate_program`; the decision
is reported by :func:`unsupported_reason`.
"""

from __future__ import annotations

from typing import Optional

from repro.batchsim.context import BatchContext
from repro.profiling.interpreter import ExecutionLimitExceeded


def unsupported_reason(
    predictor=None,
    table=None,
    confidence=None,
    model_icache: bool = False,
    trace=None,
) -> Optional[str]:
    """Why this simulation cannot run batched (``None`` = it can)."""
    if trace is None:
        return "no value trace (live interpretation is sequential)"
    if predictor is not None:
        return "explicit predictor instance (columns key on machine specs)"
    if table is not None:
        return "finite prediction table (cross-op entry stealing is global)"
    if confidence is not None:
        return "confidence gating (estimator state is sequential)"
    if model_icache:
        return "icache modelling (cache state is sequential)"
    return None


def batch_counts(compilation, trace, context: BatchContext, max_operations):
    """Per-point simulation counts from the shared trace columns.

    Raises exactly what scalar replay of the same inputs would raise
    (:class:`ExecutionLimitExceeded` on budget overflow,
    :class:`~repro.trace.format.TraceMismatch`/``TraceError`` on a trace
    that does not match the program).
    """
    from repro.core.program_sim import SimCounts

    if max_operations is not None and trace.dynamic_operations > max_operations:
        raise ExecutionLimitExceeded(
            f"{trace.program_name}: exceeded {max_operations} operations"
        )
    arrays = context.arrays(trace, compilation.program)
    machine = compilation.machine
    counts = SimCounts()
    for label in arrays.labels:
        n = arrays.instance_count(label)
        if n == 0:
            continue
        comp = compilation.blocks.get(label)
        if comp is None:
            # The scalar observer ignores blocks the compiler did not
            # cover; _replay_plan guarantees the label exists in the
            # program, so this cannot happen for pipeline compilations.
            continue
        if not comp.speculated:
            counts.nonspec[label] = n
            continue
        op_ids = comp.predicted_load_ids
        counts.patterns[label] = dict(
            context.pattern_counts(arrays, machine, label, op_ids)
        )
        for op_id in op_ids:
            column = context.column(arrays, machine, label, op_id)
            hits = column.hits
            counts.hits += hits
            counts.misses += column.occurrences - hits
            counts.no_predictions += column.occurrences - int(
                column.predicted.sum()
            )
    return counts
