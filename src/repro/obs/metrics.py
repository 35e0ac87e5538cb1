"""A lightweight metrics layer: counters, gauges, histograms.

The experiment pipeline and the compiler collect metrics in a
:class:`MetricsRegistry`.  The registry is deliberately tiny:

* **counters** accumulate integer increments (``cce.flush``,
  ``vliw.stall_cycles``);
* **gauges** record a level and keep the maximum seen (``ovb.size``);
* **histograms** keep a running summary — count, total, min, max, and
  approximate percentiles from a bounded deterministic reservoir — of
  observed values (``cce.ccb_occupancy``).

Metric keys are a dotted name plus an optional label rendered as
``name{label}`` (``ovb.state_transitions{PN}``,
``predict.hit{stride+fcm}``), so a family of related series shares one
name and snapshots stay plain string-keyed dictionaries.

The dual engine does not write a registry: each block run's snapshot
is folded from its event log (:meth:`repro.obs.trace.BlockLog.fold`).
A registry collects the program-level roll-up
(:func:`repro.core.program_sim.simulate_program` with
``collect_metrics=True``).

:class:`MetricsSnapshot` is the immutable read side: ``snapshot()`` the
registry, ``merged()`` snapshots across blocks or benchmarks,
``scaled()`` one by an execution frequency, and ``as_dict()`` /
``from_dict()`` for JSON round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

#: Upper bound on the per-histogram percentile reservoir.  Overflow is
#: handled by deterministic systematic decimation (keep evenly spaced
#: order statistics), so percentile estimates stay reproducible run to
#: run — no random sampling anywhere.
RESERVOIR_CAP = 512


def metric_key(name: str, label: Optional[str] = None) -> str:
    """Canonical series key: ``name`` or ``name{label}``."""
    if label is None:
        return name
    return f"{name}{{{label}}}"


def _decimate(samples: List[float], cap: int = RESERVOIR_CAP) -> List[float]:
    """Shrink an over-full reservoir to ``cap`` evenly spaced order
    statistics (always keeping the extremes), preserving quantiles."""
    if len(samples) <= cap:
        return samples
    ordered = sorted(samples)
    last = len(ordered) - 1
    return [ordered[round(i * last / (cap - 1))] for i in range(cap)]


@dataclass
class HistogramSummary:
    """Running summary of one observed series.

    Exact count/total/min/max plus a bounded reservoir of observed
    values for approximate percentiles (:meth:`percentile`, ``p50`` /
    ``p95`` / ``p99``).  The reservoir survives :meth:`merged`,
    :meth:`scaled` and the :meth:`as_dict`/:meth:`from_dict` round-trip;
    merging pools both reservoirs and re-decimates, which treats every
    kept sample with equal weight (an approximation once either side has
    decimated).
    """

    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None
    samples: List[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.samples.append(value)
        if len(self.samples) > RESERVOIR_CAP:
            self.samples = _decimate(self.samples)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Approximate ``q``-th percentile (``0 <= q <= 100``) from the
        reservoir; ``None`` for an empty series."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        rank = q / 100.0 * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        frac = rank - low
        return ordered[low] * (1.0 - frac) + ordered[high] * frac

    @property
    def p50(self) -> Optional[float]:
        return self.percentile(50.0)

    @property
    def p95(self) -> Optional[float]:
        return self.percentile(95.0)

    @property
    def p99(self) -> Optional[float]:
        return self.percentile(99.0)

    def copy(self) -> "HistogramSummary":
        return HistogramSummary(
            self.count, self.total, self.min, self.max, list(self.samples)
        )

    def merged(self, other: "HistogramSummary") -> "HistogramSummary":
        if other.count == 0:
            return self.copy()
        if self.count == 0:
            return other.copy()
        return HistogramSummary(
            count=self.count + other.count,
            total=self.total + other.total,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
            samples=_decimate(self.samples + other.samples),
        )

    def scaled(self, factor: int) -> "HistogramSummary":
        """The summary of this series repeated ``factor`` times.

        Percentiles of a population repeated whole are the population's
        percentiles, so the reservoir carries over unchanged."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        if factor == 0 or self.count == 0:
            return HistogramSummary()
        return HistogramSummary(
            count=self.count * factor,
            total=self.total * factor,
            min=self.min,
            max=self.max,
            samples=list(self.samples),
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "samples": list(self.samples),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HistogramSummary":
        return cls(
            count=int(data.get("count", 0)),
            total=float(data.get("total", 0.0)),
            min=data.get("min"),
            max=data.get("max"),
            samples=[float(v) for v in data.get("samples", [])],
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable point-in-time view of a registry (or a merge of many)."""

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramSummary] = field(default_factory=dict)

    @classmethod
    def empty(cls) -> "MetricsSnapshot":
        return cls()

    def counter(self, name: str, label: Optional[str] = None) -> int:
        return self.counters.get(metric_key(name, label), 0)

    def gauge(self, name: str, label: Optional[str] = None) -> Optional[float]:
        return self.gauges.get(metric_key(name, label))

    def histogram(
        self, name: str, label: Optional[str] = None
    ) -> HistogramSummary:
        return self.histograms.get(metric_key(name, label), HistogramSummary())

    def counter_family(self, name: str) -> Dict[str, int]:
        """All labelled series of one counter name, keyed by label."""
        prefix = name + "{"
        out: Dict[str, int] = {}
        for key, value in self.counters.items():
            if key.startswith(prefix) and key.endswith("}"):
                out[key[len(prefix):-1]] = value
        return out

    def merged(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Combine two snapshots: counters add, gauges keep the max
        (gauges here record peaks), histograms pool."""
        counters = dict(self.counters)
        for key, value in other.counters.items():
            counters[key] = counters.get(key, 0) + value
        gauges = dict(self.gauges)
        for key, value in other.gauges.items():
            gauges[key] = max(gauges[key], value) if key in gauges else value
        histograms = {k: v.copy() for k, v in self.histograms.items()}
        for key, value in other.histograms.items():
            histograms[key] = histograms.get(key, HistogramSummary()).merged(value)
        return MetricsSnapshot(counters, gauges, histograms)

    def scaled(self, factor: int) -> "MetricsSnapshot":
        """This snapshot repeated ``factor`` times (frequency weighting):
        counters and histogram populations multiply, gauges are levels
        and stay put."""
        return MetricsSnapshot(
            counters={k: v * factor for k, v in self.counters.items()},
            gauges=dict(self.gauges),
            histograms={k: v.scaled(factor) for k, v in self.histograms.items()},
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                k: v.as_dict() for k, v in sorted(self.histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricsSnapshot":
        return cls(
            counters={k: int(v) for k, v in data.get("counters", {}).items()},
            gauges={k: float(v) for k, v in data.get("gauges", {}).items()},
            histograms={
                k: HistogramSummary.from_dict(v)
                for k, v in data.get("histograms", {}).items()
            },
        )


class MetricsRegistry:
    """Mutable metric store the instrumentation writes into."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self):
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, HistogramSummary] = {}

    # -- write side -------------------------------------------------------

    def inc(self, name: str, value: int = 1, label: Optional[str] = None) -> None:
        """Add ``value`` to a counter."""
        key = metric_key(name, label)
        self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(
        self, name: str, value: float, label: Optional[str] = None
    ) -> None:
        """Record a level; the registry keeps the maximum seen."""
        key = metric_key(name, label)
        prior = self._gauges.get(key)
        self._gauges[key] = value if prior is None else max(prior, value)

    def observe(
        self, name: str, value: float, label: Optional[str] = None
    ) -> None:
        """Feed one sample into a histogram series."""
        key = metric_key(name, label)
        summary = self._histograms.get(key)
        if summary is None:
            summary = self._histograms[key] = HistogramSummary()
        summary.observe(value)

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold an already-aggregated snapshot into this registry
        (how per-block metrics roll up into a program-level registry)."""
        for key, value in snapshot.counters.items():
            self._counters[key] = self._counters.get(key, 0) + value
        for key, value in snapshot.gauges.items():
            prior = self._gauges.get(key)
            self._gauges[key] = value if prior is None else max(prior, value)
        for key, value in snapshot.histograms.items():
            self._histograms[key] = self._histograms.get(
                key, HistogramSummary()
            ).merged(value)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- read side --------------------------------------------------------

    def counter(self, name: str, label: Optional[str] = None) -> int:
        return self._counters.get(metric_key(name, label), 0)

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters=dict(self._counters),
            gauges=dict(self._gauges),
            histograms={k: v.copy() for k, v in self._histograms.items()},
        )

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry: {len(self._counters)} counter(s), "
            f"{len(self._gauges)} gauge(s), {len(self._histograms)} histogram(s)>"
        )
