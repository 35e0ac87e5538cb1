"""Common interface for value predictors.

Predictors are keyed by *static operation id* (the analogue of the
instruction address that indexes hardware value-prediction tables).  The
protocol is the standard two-phase one of the value-prediction literature
[Lipasti et al., Sazeides & Smith]:

* ``predict(key)`` — return the predicted next value, or ``None`` when
  the predictor has no basis for a prediction yet;
* ``update(key, actual)`` — train with the architecturally correct value.

The profiling pass (:mod:`repro.batchsim.profiler`) scores each load's
value stream under stride and FCM prediction to obtain per-load
prediction rates, and the dynamic simulation runs the machine's predictor
over each predicted op's stream as the hardware Value Predictor of the
paper's Figure 5 (:mod:`repro.batchsim.outcomes`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Union

from repro.obs.metrics import MetricsRegistry, NULL_METRICS

Value = Union[int, float]
Key = Hashable


@dataclass
class PredictorStats:
    """Running accuracy accounting for one predictor."""

    predictions: int = 0
    correct: int = 0
    no_prediction: int = 0

    @property
    def attempts(self) -> int:
        return self.predictions + self.no_prediction

    @property
    def accuracy(self) -> float:
        """Fraction of actual predictions that were correct."""
        if self.predictions == 0:
            return 0.0
        return self.correct / self.predictions

    @property
    def coverage(self) -> float:
        """Fraction of opportunities for which a prediction was offered."""
        if self.attempts == 0:
            return 0.0
        return self.predictions / self.attempts

    @property
    def hit_rate(self) -> float:
        """Correct predictions over all opportunities (accuracy x coverage)."""
        if self.attempts == 0:
            return 0.0
        return self.correct / self.attempts


class ValuePredictor(abc.ABC):
    """Abstract value predictor."""

    name: str = "abstract"

    def __init__(self) -> None:
        self.stats = PredictorStats()
        self._per_key: Dict[Key, PredictorStats] = {}
        self._metrics: MetricsRegistry = NULL_METRICS

    # -- core protocol -----------------------------------------------------

    @abc.abstractmethod
    def predict(self, key: Key) -> Optional[Value]:
        """Predicted next value for ``key``, or ``None`` if unknown."""

    @abc.abstractmethod
    def update(self, key: Key, actual: Value) -> None:
        """Train the predictor with the true outcome for ``key``."""

    def reset(self) -> None:
        """Discard all learned state and statistics."""
        self.stats = PredictorStats()
        self._per_key = {}

    def attach_metrics(self, metrics: MetricsRegistry) -> None:
        """Mirror :meth:`observe` outcomes into a metrics registry as
        ``predict.hit`` / ``predict.miss`` / ``predict.no_prediction``
        counters labelled by predictor type."""
        self._metrics = metrics

    # -- instrumented use ----------------------------------------------------

    def observe(self, key: Key, actual: Value) -> Optional[Value]:
        """Predict, score against ``actual``, then train.  Returns the
        prediction that was made (or ``None``)."""
        prediction = self.predict(key)
        stats = self._per_key.setdefault(key, PredictorStats())
        if prediction is None:
            self.stats.no_prediction += 1
            stats.no_prediction += 1
            self._metrics.inc("predict.no_prediction", label=self.name)
        else:
            self.stats.predictions += 1
            stats.predictions += 1
            correct = _values_equal(prediction, actual)
            if correct:
                self.stats.correct += 1
                stats.correct += 1
            self._metrics.inc(
                "predict.hit" if correct else "predict.miss", label=self.name
            )
        self.update(key, actual)
        return prediction

    def key_stats(self, key: Key) -> PredictorStats:
        return self._per_key.get(key, PredictorStats())

    def __repr__(self) -> str:
        return f"<{type(self).__name__} acc={self.stats.accuracy:.3f} n={self.stats.attempts}>"


def _values_equal(a: Value, b: Value) -> bool:
    """Exact match, as value-prediction hardware compares bit patterns."""
    if isinstance(a, float) or isinstance(b, float):
        return float(a) == float(b)
    return a == b
