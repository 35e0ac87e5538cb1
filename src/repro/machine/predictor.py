"""Declarative value-predictor configuration.

A :class:`PredictorSpec` names the hardware value predictor a machine
ships (paper Figure 5) plus its table geometry — as *data*, so a whole
machine configuration (see :mod:`repro.machine.spec`) can be serialised,
fingerprinted and swept.  The simulation runs the column kernel of the
spec's kind (:mod:`repro.predict`, dispatched by
:func:`repro.batchsim.outcomes.predictor_key`); the default spec is
exactly the paper's profile configuration (stride + order-2 FCM behind a
tournament chooser, unbounded table), so simulations that never mention
a predictor spec behave identically to the historical default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

#: Predictor kinds a spec may name, in registry order.
PREDICTOR_KINDS = ("hybrid", "stride", "fcm", "dfcm", "last-value")


@dataclass(frozen=True)
class PredictorSpec:
    """Hardware value-predictor choice plus table geometry.

    Attributes:
        kind: one of :data:`PREDICTOR_KINDS`.
        table_entries: Value Prediction Table capacity (direct-mapped
            entries); ``None`` models the paper's unbounded table.
        fcm_order: history order of the (D)FCM component.
        table_bits: hash-table bits of the (D)FCM component.
        counter_max: saturation bound of the hybrid chooser counters.
    """

    kind: str = "hybrid"
    table_entries: Optional[int] = None
    fcm_order: int = 2
    table_bits: int = 16
    counter_max: int = 8

    def __post_init__(self) -> None:
        if self.kind not in PREDICTOR_KINDS:
            raise ValueError(
                f"unknown predictor kind {self.kind!r}; "
                f"available: {', '.join(PREDICTOR_KINDS)}"
            )
        if self.table_entries is not None and self.table_entries < 1:
            raise ValueError("predictor table_entries must be positive or None")
        if self.fcm_order < 1:
            raise ValueError("fcm_order must be >= 1")
        # The (D)FCM context hash (repro.predict.base.context_slots)
        # indexes a table of 2**table_bits slots.
        if not 1 <= self.table_bits <= 30:
            raise ValueError("table_bits must be in [1, 30]")
        if self.counter_max < 1:
            raise ValueError("counter_max must be >= 1")

    # -- canonical form ----------------------------------------------------

    def canonical(self) -> Dict[str, Any]:
        """JSON-primitive form (stable key order is applied by the dump)."""
        return {
            "kind": self.kind,
            "table_entries": self.table_entries,
            "fcm_order": self.fcm_order,
            "table_bits": self.table_bits,
            "counter_max": self.counter_max,
        }

    @classmethod
    def from_canonical(cls, payload: Dict[str, Any]) -> "PredictorSpec":
        if not isinstance(payload, dict):
            raise ValueError(f"predictor spec must be a mapping, got {payload!r}")
        known = {f: payload[f] for f in payload}
        unknown = set(known) - {
            "kind", "table_entries", "fcm_order", "table_bits", "counter_max"
        }
        if unknown:
            raise ValueError(
                f"unknown predictor field(s): {', '.join(sorted(unknown))}"
            )
        return cls(**known)

    def __str__(self) -> str:
        table = "inf" if self.table_entries is None else str(self.table_entries)
        return f"{self.kind}(entries={table})"
