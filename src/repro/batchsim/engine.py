"""The program-level engine: trace columns -> per-point sim counts.

One simulation reduces, given the shared
:class:`~repro.batchsim.context.BatchContext`, to

1. a pattern-count histogram per speculated block (vectorised bitmask
   pack + ``bincount`` over the shared outcome columns, masked by table
   occupancy on a finite Value Prediction Table —
   :func:`~repro.batchsim.outcomes.table_served`),
2. with icache modelling, the fetch totals of the run's block stream
   (:func:`~repro.batchsim.fetch.fetch_counts`), and
3. the deterministic accounting fold
   (:func:`repro.core.program_sim._fold_counts`) over those counts.

Every :func:`~repro.core.program_sim.simulate_program` call takes this
path.  The parity suite (``tests/batchsim/``) holds it, field for field,
to a scalar replay of the trace through a per-op observer, a stateful
prediction table and a stateful instruction cache
(``tests/trace/reference_runs.py``).
"""

from __future__ import annotations

from repro.batchsim.context import BatchContext
from repro.batchsim.outcomes import pack_patterns, predictor_key, table_served
from repro.profiling.interpreter import ExecutionLimitExceeded


def batch_counts(
    compilation,
    trace,
    context: BatchContext,
    max_operations,
    model_icache: bool = False,
):
    """Per-point simulation counts from the shared trace columns.

    Raises ``ValueError`` on a predictor geometry no table can take,
    :class:`ExecutionLimitExceeded` when the trace is longer than
    ``max_operations``, and :class:`~repro.trace.format.TraceMismatch`
    on a trace that does not match the program.
    """
    from repro.core.program_sim import SimCounts

    machine = compilation.machine
    pkey = predictor_key(machine.predictor)
    if max_operations is not None and trace.dynamic_operations > max_operations:
        raise ExecutionLimitExceeded(
            f"{trace.program_name}: exceeded {max_operations} operations"
        )
    arrays = context.arrays(trace, compilation.program)
    counts = SimCounts()
    # Blocks the compiler did not cover run no version and fetch
    # nothing; the label table only holds labels of the program.
    speculated = []
    for label in arrays.labels:
        comp = compilation.blocks.get(label)
        if comp is None or not arrays.instance_count(label):
            continue
        if comp.speculated:
            speculated.append((label, comp.predicted_load_ids))
        else:
            counts.nonspec[label] = arrays.instance_count(label)

    entries = machine.predictor.table_entries
    if entries is not None:
        flat = [(label, op_id) for label, op_ids in speculated for op_id in op_ids]
        masks, counts.table_tag_misses = table_served(
            [op_id for _, op_id in flat],
            [arrays.op_positions(label, op_id) for label, op_id in flat],
            entries,
        )
        served = dict(zip(flat, masks))
    codes = {}
    for label, op_ids in speculated:
        columns = [context.component(arrays, pkey, label, op_id) for op_id in op_ids]
        if entries is None:
            correct = [column.correct for column in columns]
            predicted = [column.predicted for column in columns]
            codes[label], histogram = context.patterns(arrays, pkey, label, op_ids)
            counts.patterns[label] = dict(histogram)
        else:
            masks = [served[label, op_id] for op_id in op_ids]
            correct = [c.correct & m for c, m in zip(columns, masks)]
            predicted = [c.predicted & m for c, m in zip(columns, masks)]
            codes[label], counts.patterns[label] = pack_patterns(
                correct, arrays.instance_count(label)
            )
        for hit, made in zip(correct, predicted):
            hits = int(hit.sum())
            counts.hits += hits
            counts.misses += hit.size - hits
            counts.no_predictions += hit.size - int(made.sum())
    if model_icache:
        from repro.batchsim.fetch import fetch_counts

        counts.icache = fetch_counts(compilation, arrays, codes)
    return counts
