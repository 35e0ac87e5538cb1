"""The scaled-down evaluation the experiment and ablation tests share."""

import pytest

from repro.evaluation.experiment import Evaluation, EvaluationSettings


@pytest.fixture(scope="module")
def evaluation():
    # 0.4 is the smallest scale at which every benchmark's value profile
    # has warmed up enough for the paper's 0.65 threshold to select loads
    # in all eight programs.
    return Evaluation(EvaluationSettings(scale=0.4))
