"""Figure 8: distribution of change in schedule lengths due to prediction.

The paper's Figure 8 buckets the *executed* blocks by how many cycles
value prediction changes their schedule length in the all-correct case:
degradations, no change, and improvements of 1-4, 5-8 or more cycles.
The key observation is that a large share of executed blocks improve by
1-4 cycles — significant at basic-block granularity.

The distribution here is over *dynamic* block instances (weighting each
static block by its execution frequency, as the paper's "percentage of
the total blocks executed" does), with the delta computed for the
all-correct case exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.evaluation.experiment import Evaluation
from repro.ir.printer import format_table

#: Figure buckets: (label, lower bound, upper bound) on cycles improved.
BUCKETS: Tuple[Tuple[str, float, float], ...] = (
    ("degraded", float("-inf"), -1),
    ("unchanged", 0, 0),
    ("improved 1-4", 1, 4),
    ("improved 5-8", 5, 8),
    ("improved >8", 9, float("inf")),
)


@dataclass(frozen=True)
class Figure8Row:
    benchmark: str
    percentages: Dict[str, float]  # bucket label -> % of executed blocks


def bucket_of(delta: int) -> str:
    for label, lo, hi in BUCKETS:
        if lo <= delta <= hi:
            return label
    raise AssertionError(f"delta {delta} fell through the buckets")


def compute(evaluation: Evaluation) -> List[Figure8Row]:
    rows: List[Figure8Row] = []
    for name in evaluation.benchmarks:
        comp = evaluation.compilation(name, evaluation.machine_4w)
        counts = {label: 0 for label, _, _ in BUCKETS}
        total = 0
        # All-correct delta per static block, weighted by profiled
        # execution count.
        for label_name, block_comp in comp.blocks.items():
            weight = comp.profile.blocks.count(label_name)
            if weight == 0:
                continue
            if block_comp.speculated:
                delta = block_comp.original_length - block_comp.best_length
            else:
                delta = 0
            counts[bucket_of(delta)] += weight
            total += weight
        rows.append(
            Figure8Row(
                benchmark=name,
                percentages={
                    label: (100.0 * count / total if total else 0.0)
                    for label, count in counts.items()
                },
            )
        )
    return rows


def render(rows: List[Figure8Row]) -> str:
    labels = [label for label, _, _ in BUCKETS]
    body = [
        tuple([r.benchmark] + [f"{r.percentages[label]:.1f}%" for label in labels])
        for r in rows
    ]
    # Suite-wide distribution (equal benchmark weighting).
    suite_pcts = {
        label: sum(r.percentages[label] for r in rows) / len(rows)
        for label in labels
    }
    suite = tuple(["suite"] + [f"{suite_pcts[label]:.1f}%" for label in labels])
    table = format_table(["Benchmark"] + labels, body + [suite])
    bars = "\n".join(
        f"  {label:13s} {_bar(suite_pcts[label])} {suite_pcts[label]:5.1f}%"
        for label in labels
    )
    return (
        "Figure 8: distribution of schedule-length change (all-correct case)\n"
        + table
        + "\n\nsuite distribution:\n"
        + bars
    )


def _bar(percent: float, width: int = 40) -> str:
    filled = round(width * percent / 100.0)
    return "#" * filled + "." * (width - filled)


def run(evaluation: Evaluation | None = None) -> str:
    return render(compute(evaluation or Evaluation()))
