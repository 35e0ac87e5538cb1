"""Instruction-cache fetches of one run, folded from the block sequence.

Every dynamic instance of a compiled block fetches its main block
through both machines' caches.  A speculated instance on the baseline
machine then fetches, in LdPred order, the compensation block of each
mispredicted load that has operations.  The no-prediction and squash
machines fetch the same block stream as the proposed machine, so all
three are charged its penalty (the squash machine's refetch on restart
is folded into that penalty).

What an instance fetches depends only on its block and its correctness
pattern, so each distinct (block, pattern) pair is expanded to its line
addresses once and the run's two fetch streams are gathered from those
pieces in ``block_seq`` order; :func:`repro.core.icache.count_misses`
then walks each stream.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core.icache import CodeLayout, ICacheConfig, count_misses

#: Bits of a fetch key below the label index: room for every pattern
#: code (:func:`~repro.batchsim.outcomes.pack_patterns` caps blocks at
#: 20 predictions).
_CODE_BITS = 20


def _layout(compilation, config: ICacheConfig) -> CodeLayout:
    """Main code first, then the baseline's compensation blocks."""
    layout = CodeLayout(config)
    for label, comp in compilation.blocks.items():
        if comp.spec_schedule is not None:
            op_count = len(comp.spec_schedule.spec.operations)
        else:
            op_count = len(compilation.program.main.block(label).operations)
        layout.place(f"main:{label}", op_count)
    for comp in compilation.blocks.values():
        if comp.baseline is None:
            continue
        for c in comp.baseline.compensation.values():
            if c.op_count:
                layout.place(c.code_id, c.op_count)
    return layout


def _lines(ranges) -> np.ndarray:
    return np.concatenate(
        [np.arange(first, first + count, dtype=np.int64) for first, count in ranges]
    )


def _stream(keys: np.ndarray, expand) -> np.ndarray:
    """Concatenate ``expand(key)`` for every element of ``keys``, in order,
    expanding each distinct key once."""
    if not keys.size:
        return np.zeros(0, dtype=np.int64)
    uniq, index = np.unique(keys, return_inverse=True)
    pieces = [expand(int(key)) for key in uniq]
    return np.concatenate([pieces[i] for i in index.tolist()])


def fetch_counts(
    compilation, arrays, codes: Dict[str, np.ndarray]
) -> Dict[str, Tuple[int, int]]:
    """``(accesses, misses)`` of the ``"proposed"`` and ``"baseline"``
    caches over one run.

    ``codes`` maps each speculated label to its instances' pattern codes
    (bit *j* set: prediction *j* was right), in instance order.
    """
    config = ICacheConfig()
    layout = _layout(compilation, config)
    labels = arrays.labels
    code = np.zeros(arrays.dynamic_blocks, dtype=np.int64)
    for label, label_codes in codes.items():
        code[arrays.instances(label)] = label_codes
    compiled = np.array([label in compilation.blocks for label in labels], dtype=bool)
    fetched = compiled[arrays.block_seq]
    seq = arrays.block_seq[fetched]
    keys = (seq << _CODE_BITS) | code[fetched]

    def main(index: int) -> np.ndarray:
        return _lines([layout.range_of(f"main:{labels[index]}")])

    def with_compensation(key: int) -> np.ndarray:
        label = labels[key >> _CODE_BITS]
        ranges = [layout.range_of(f"main:{label}")]
        if label in codes:
            comp = compilation.blocks[label]
            compensation = comp.baseline.compensation
            for j, ldpred_id in enumerate(comp.spec_schedule.spec.ldpred_ids):
                block = compensation[ldpred_id]
                if not (key >> j) & 1 and block.op_count:
                    ranges.append(layout.range_of(block.code_id))
        return _lines(ranges)

    streams = (
        ("proposed", _stream(seq, main)),
        ("baseline", _stream(keys, with_compensation)),
    )
    return {
        model: (int(stream.size), count_misses(config, stream))
        for model, stream in streams
    }
