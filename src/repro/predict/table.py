"""The hardware Value Prediction Table of the paper's Figure 5.

The VLIW Engine's ``LdPred`` operation reads its value from this table
rather than from memory.  The table wraps any :class:`ValuePredictor`
behind a fixed-capacity, direct-mapped structure so that capacity and
aliasing effects can be modelled (an infinite table is the default used
by the headline experiments, matching the paper's profile-based method).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.predict.base import Key, Value, ValuePredictor


class ValuePredictionTable:
    """Capacity-bounded front end over a trainable predictor.

    ``capacity=None`` models an unbounded table (every static operation
    keeps its own entry).  With a finite capacity the table is
    direct-mapped on ``hash(key) % capacity`` and a conflicting key evicts
    the previous occupant's training state *visibility* (the underlying
    predictor still trains, but predictions are only served for the
    current occupant — modelling tag mismatch).
    """

    def __init__(
        self,
        predictor: ValuePredictor,
        capacity: Optional[int] = None,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive or None")
        self.predictor = predictor
        self.capacity = capacity
        self._occupant: Dict[int, Key] = {}
        self.lookups = 0
        self.tag_misses = 0

    def _slot(self, key: Key) -> Optional[int]:
        if self.capacity is None:
            return None
        return hash(key) % self.capacity

    def lookup(self, key: Key) -> Optional[Value]:
        """Predicted value for ``key`` or ``None`` (no entry / tag miss)."""
        self.lookups += 1
        slot = self._slot(key)
        if slot is not None:
            occupant = self._occupant.get(slot)
            if occupant != key:
                if occupant is not None:
                    self.tag_misses += 1  # conflict: another key owns the slot
                return None
        return self.predictor.predict(key)

    def train(self, key: Key, actual: Value) -> None:
        """Update the table with the verified outcome of ``key``."""
        slot = self._slot(key)
        if slot is not None:
            self._occupant[slot] = key
        self.predictor.update(key, actual)

    def observe(self, key: Key, actual: Value) -> Optional[Value]:
        """Lookup + score + train in one step (profiling convenience)."""
        prediction = self.lookup(key)
        self.train(key, actual)
        return prediction

    def reset(self) -> None:
        self.predictor.reset()
        self._occupant = {}
        self.lookups = 0
        self.tag_misses = 0

    def __repr__(self) -> str:
        cap = "inf" if self.capacity is None else str(self.capacity)
        return f"<ValuePredictionTable cap={cap} predictor={self.predictor.name}>"
