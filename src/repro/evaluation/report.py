"""Run every experiment and assemble the full evaluation report."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.evaluation import baseline_cmp, figure8, regions_exp, table2, table3, table4
from repro.evaluation.experiment import Evaluation


def _paper_example(evaluation: Optional[Evaluation] = None) -> str:
    """The worked example; it runs no pipeline job, so it loads on demand."""
    from repro.evaluation import paper_example

    return paper_example.run(evaluation)


EXPERIMENTS: Dict[str, Callable[[Optional[Evaluation]], str]] = {
    "table2": table2.run,
    "table3": table3.run,
    "table4": table4.run,
    "figure8": figure8.run,
    "baseline": baseline_cmp.run,
    "example": _paper_example,
    "regions": regions_exp.run,
}


def experiment_names() -> List[str]:
    return list(EXPERIMENTS)


def run_experiment(name: str, evaluation: Optional[Evaluation] = None) -> str:
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {experiment_names()}"
        ) from None
    return runner(evaluation)


def full_report(evaluation: Optional[Evaluation] = None) -> str:
    evaluation = evaluation or Evaluation()
    sections = [run_experiment(name, evaluation) for name in EXPERIMENTS]
    header = (
        "Value Prediction in VLIW Machines — reproduction report\n"
        "========================================================\n"
    )
    return header + "\n\n".join(sections)
