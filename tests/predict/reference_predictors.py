"""Stateful scalar value predictors: the parity reference for the
column kernels of :mod:`repro.predict`.

Each class keys its state by *static operation id* (the analogue of the
instruction address that indexes hardware value-prediction tables) and
follows the two-phase protocol of the value-prediction literature
[Lipasti et al., Sazeides & Smith]:

* ``predict(key)`` — the predicted next value, or ``None`` when the
  predictor has no basis for a prediction yet;
* ``update(key, actual)`` — train with the architecturally correct value.

The program never drives these one value at a time: it walks a whole
value column per (op, predictor kind) through the kernels.  The suites
hold every kernel to the class it replaced
(``tests/predict/test_kernel_parity.py``) and the streaming reference
runs of ``tests/trace/reference_runs.py`` drive these classes.
"""

from __future__ import annotations

import abc
import sys
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Hashable, Optional, Sequence, Tuple

from repro.predict.base import Value, _values_equal

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

    def observe(self, key: Key, actual: Value) -> Optional[Value]:
        """Predict, score against ``actual``, then train.  Returns the
        prediction that was made (or ``None``)."""
        prediction = self.predict(key)
        stats = self._per_key.setdefault(key, PredictorStats())
        if prediction is None:
            self.stats.no_prediction += 1
            stats.no_prediction += 1
        else:
            self.stats.predictions += 1
            stats.predictions += 1
            if _values_equal(prediction, actual):
                self.stats.correct += 1
                stats.correct += 1
        self.update(key, actual)
        return prediction

    def key_stats(self, key: Key) -> PredictorStats:
        return self._per_key.get(key, PredictorStats())

    def __repr__(self) -> str:
        return f"<{type(self).__name__} acc={self.stats.accuracy:.3f} n={self.stats.attempts}>"


class LastValuePredictor(ValuePredictor):
    """Predict the previously seen value for the same static operation."""

    name = "last-value"

    def __init__(self) -> None:
        super().__init__()
        self._last: Dict[Key, Value] = {}

    def predict(self, key: Key) -> Optional[Value]:
        return self._last.get(key)

    def update(self, key: Key, actual: Value) -> None:
        self._last[key] = actual

    def reset(self) -> None:
        super().reset()
        self._last = {}


@dataclass
class _StrideEntry:
    last: Value
    stride: Value = 0
    candidate: Value = 0
    seen: int = 1  # number of values observed for this key


class StridePredictor(ValuePredictor):
    """Predict ``last + stride`` with two-delta stride update."""

    name = "stride"

    def __init__(self, two_delta: bool = True) -> None:
        super().__init__()
        self.two_delta = two_delta
        self._table: Dict[Key, _StrideEntry] = {}

    def predict(self, key: Key) -> Optional[Value]:
        entry = self._table.get(key)
        if entry is None or entry.seen < 2:
            # With one observation there is no delta yet; predicting
            # last+0 would just be last-value prediction, which we allow.
            if entry is None:
                return None
            return entry.last
        return entry.last + entry.stride

    def update(self, key: Key, actual: Value) -> None:
        entry = self._table.get(key)
        if entry is None:
            self._table[key] = _StrideEntry(last=actual)
            return
        delta = actual - entry.last
        if self.two_delta:
            if delta == entry.candidate:
                entry.stride = delta
            entry.candidate = delta
        else:
            entry.stride = delta
        entry.last = actual
        entry.seen += 1

    def reset(self) -> None:
        super().reset()
        self._table = {}

    def stride_of(self, key: Key) -> Optional[Value]:
        """Currently committed stride for a key (diagnostics)."""
        entry = self._table.get(key)
        return None if entry is None else entry.stride


def _context_hash(history: Deque[Value], table_size: int) -> int:
    h = 0
    for value in history:
        # Every NaN hashes alike (Python hashes NaN by identity).
        h = (h * 1000003) ^ (hash(value) if value == value else sys.hash_info.nan)
    return h % table_size


class FCMPredictor(ValuePredictor):
    """Order-``k`` finite-context-method predictor."""

    name = "fcm"

    def __init__(self, order: int = 2, table_bits: int = 16) -> None:
        super().__init__()
        if order < 1:
            raise ValueError("FCM order must be >= 1")
        if table_bits < 1 or table_bits > 30:
            raise ValueError("table_bits must be in [1, 30]")
        self.order = order
        self.table_size = 1 << table_bits
        self._history: Dict[Key, Deque[Value]] = {}
        self._second_level: Dict[Tuple[Key, int], Value] = {}

    def predict(self, key: Key) -> Optional[Value]:
        history = self._history.get(key)
        if history is None or len(history) < self.order:
            return None
        return self._second_level.get((key, _context_hash(history, self.table_size)))

    def update(self, key: Key, actual: Value) -> None:
        history = self._history.setdefault(key, deque(maxlen=self.order))
        if len(history) == self.order:
            self._second_level[(key, _context_hash(history, self.table_size))] = actual
        history.append(actual)

    def reset(self) -> None:
        super().reset()
        self._history = {}
        self._second_level = {}


class DFCMPredictor(ValuePredictor):
    """Order-``k`` differential finite-context-method predictor."""

    name = "dfcm"

    def __init__(self, order: int = 2, table_bits: int = 16) -> None:
        super().__init__()
        if order < 1:
            raise ValueError("DFCM order must be >= 1")
        if table_bits < 1 or table_bits > 30:
            raise ValueError("table_bits must be in [1, 30]")
        self.order = order
        self.table_size = 1 << table_bits
        self._last: Dict[Key, Value] = {}
        self._stride_history: Dict[Key, Deque[Value]] = {}
        self._second_level: Dict[Tuple[Key, int], Value] = {}

    def predict(self, key: Key) -> Optional[Value]:
        history = self._stride_history.get(key)
        if history is None or len(history) < self.order:
            return None
        stride = self._second_level.get((key, _context_hash(history, self.table_size)))
        if stride is None:
            return None
        return self._last[key] + stride

    def update(self, key: Key, actual: Value) -> None:
        last = self._last.get(key)
        self._last[key] = actual
        if last is None:
            return  # no stride to learn from yet
        stride = actual - last
        history = self._stride_history.setdefault(key, deque(maxlen=self.order))
        if len(history) == self.order:
            self._second_level[(key, _context_hash(history, self.table_size))] = stride
        history.append(stride)

    def reset(self) -> None:
        super().reset()
        self._last = {}
        self._stride_history = {}
        self._second_level = {}


class HybridPredictor(ValuePredictor):
    """Tournament over component predictors with a per-key chooser.

    The chooser is a saturating counter per key: positive favours the
    first component, negative the second (generalised to N components as
    per-component scores).
    """

    name = "hybrid"

    def __init__(
        self,
        components: Optional[Sequence[ValuePredictor]] = None,
        counter_max: int = 8,
    ) -> None:
        super().__init__()
        self.components: list[ValuePredictor] = list(
            components if components is not None else (StridePredictor(), FCMPredictor())
        )
        if not self.components:
            raise ValueError("hybrid predictor needs at least one component")
        self.counter_max = counter_max
        self._scores: Dict[Key, list[int]] = {}

    def _score_row(self, key: Key) -> list[int]:
        return self._scores.setdefault(key, [0] * len(self.components))

    def predict(self, key: Key) -> Optional[Value]:
        row = self._score_row(key)
        # Try components from best score down; first one with an actual
        # prediction wins.
        order = sorted(range(len(self.components)), key=lambda i: row[i], reverse=True)
        for i in order:
            prediction = self.components[i].predict(key)
            if prediction is not None:
                return prediction
        return None

    def update(self, key: Key, actual: Value) -> None:
        row = self._score_row(key)
        for i, component in enumerate(self.components):
            prediction = component.predict(key)
            if prediction is not None:
                if _values_equal(prediction, actual):
                    row[i] = min(self.counter_max, row[i] + 1)
                else:
                    row[i] = max(-self.counter_max, row[i] - 1)
            component.update(key, actual)

    def reset(self) -> None:
        super().reset()
        for component in self.components:
            component.reset()
        self._scores = {}

    def chosen_component(self, key: Key) -> ValuePredictor:
        """The component the chooser currently favours for a key."""
        row = self._score_row(key)
        best = max(range(len(self.components)), key=lambda i: row[i])
        return self.components[best]


def default_hybrid() -> HybridPredictor:
    """The paper's profile configuration: stride + order-2 FCM."""
    return HybridPredictor([StridePredictor(), FCMPredictor(order=2)])


def build_predictor(spec) -> ValuePredictor:
    """The scalar predictor a :class:`~repro.machine.predictor.PredictorSpec`
    describes; the default spec is :func:`default_hybrid`."""
    if spec.kind == "stride":
        return StridePredictor()
    if spec.kind == "fcm":
        return FCMPredictor(order=spec.fcm_order, table_bits=spec.table_bits)
    if spec.kind == "dfcm":
        return DFCMPredictor(order=spec.fcm_order, table_bits=spec.table_bits)
    if spec.kind == "last-value":
        return LastValuePredictor()
    return HybridPredictor(
        [
            StridePredictor(),
            FCMPredictor(order=spec.fcm_order, table_bits=spec.table_bits),
        ],
        counter_max=spec.counter_max,
    )
