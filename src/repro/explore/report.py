"""Deterministic design-space reports: JSON artifact, text table, plot.

The JSON artifact is schema-versioned and carries *no* timestamps or
host details, so two runs of the same sweep — cold, warm or with
``--no-cache`` — produce byte-identical files (the CI ``explore-smoke``
job diffs them).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence

from repro.explore.driver import pareto_frontier
from repro.ir.printer import format_table

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.explore.driver import PointResult, PrunedPoint
    from repro.explore.space import DesignSpace

#: Bump when the artifact shape changes.  v2 added per-point
#: ``bottleneck`` labels from the cycle-accounting engine; v3 added the
#: ``pruned`` section (why each skipped point was skipped: duplicate vs
#: error) and the ``surrogate`` section.  The surrogate pruner is gone;
#: its key is still written as ``null`` so v3 artifacts stay
#: byte-identical, and old v3 artifacts that fill it still load.
REPORT_SCHEMA_VERSION = 3

#: Older schema versions :func:`load_report` still accepts.
_READABLE_SCHEMAS = frozenset({2, REPORT_SCHEMA_VERSION})


def report_payload(
    space: DesignSpace,
    results: Sequence[PointResult],
    scale: float,
    benchmarks: Sequence[str],
    pruned: Sequence[PrunedPoint] = (),
) -> Dict[str, Any]:
    """The full sweep artifact as JSON-ready primitives."""
    frontier = pareto_frontier(results)
    frontier_labels = {r.label for r in frontier}
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "base_machine": space.base.canonical(),
        "axes": [
            {"name": axis.name, "values": list(axis.values)}
            for axis in space.axes
        ],
        "scale": repr(scale),
        "benchmarks": list(benchmarks),
        "points": [
            dict(r.to_json(), pareto=r.label in frontier_labels)
            for r in results
        ],
        "frontier": [r.label for r in frontier],
        "pruned": [p.to_json() for p in pruned],
        "surrogate": None,
    }


def dump_report(payload: Dict[str, Any]) -> str:
    """Canonical serialisation (sorted keys, stable float formatting)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_table(results: Sequence[PointResult]) -> str:
    """Human-readable sweep summary, frontier points starred."""
    frontier_labels = {r.label for r in pareto_frontier(results)}
    body = []
    for r in sorted(results, key=lambda r: (-r.speedup, r.cost, r.label)):
        body.append(
            (
                ("*" if r.label in frontier_labels else " ") + r.label,
                f"{r.speedup:.3f}",
                f"{r.cost:.2f}",
                f"{r.accuracy:.3f}",
                getattr(r, "bottleneck", "unknown"),
                r.fingerprint[:12],
            )
        )
    table = format_table(
        [
            "Point (* = Pareto)",
            "Speedup",
            "Cost",
            "Accuracy",
            "Bottleneck",
            "Machine",
        ],
        body,
    )
    return "Design-space exploration (speedup vs hardware cost)\n" + table


def render_frontier(results: Sequence[PointResult]) -> str:
    frontier = pareto_frontier(results)
    lines = ["Pareto frontier (cheapest first):"]
    for r in frontier:
        lines.append(
            f"  cost {r.cost:8.2f}  speedup {r.speedup:.3f}  "
            f"{r.label}  [{getattr(r, 'bottleneck', 'unknown')}]"
        )
    return "\n".join(lines)


def plot_frontier(
    results: Sequence[PointResult], path: str
) -> Optional[str]:
    """Write a cost-vs-speedup scatter with the frontier highlighted.

    Needs matplotlib; returns ``None`` (and writes nothing) when it is
    not installed — the JSON artifact is the canonical output, the plot
    a convenience.
    """
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return None

    frontier = pareto_frontier(results)
    fig, ax = plt.subplots(figsize=(7, 5))
    ax.scatter(
        [r.cost for r in results],
        [r.speedup for r in results],
        s=18,
        color="#888888",
        label="design points",
    )
    ax.plot(
        [r.cost for r in frontier],
        [r.speedup for r in frontier],
        marker="o",
        color="#d62728",
        label="Pareto frontier",
    )
    for r in frontier:
        ax.annotate(
            r.label, (r.cost, r.speedup), fontsize=6,
            textcoords="offset points", xytext=(4, 4),
        )
    ax.set_xlabel("relative hardware cost")
    ax.set_ylabel("geomean speedup vs no prediction")
    ax.set_title("Value-prediction design space")
    ax.legend(loc="lower right", fontsize=8)
    fig.tight_layout()
    fig.savefig(path, dpi=150)
    plt.close(fig)
    return path


def load_report(text: str) -> Dict[str, Any]:
    """Parse + schema-check a report artifact.

    Reads the current schema (including artifacts whose ``surrogate``
    section a since-removed pruner filled) and (read-only) v2 artifacts
    from before the ``pruned``/``surrogate`` sections existed; missing
    sections are filled with their empty values so readers can index
    unconditionally.
    """
    payload = json.loads(text)
    schema = payload.get("schema")
    if schema not in _READABLE_SCHEMAS:
        raise ValueError(
            f"explore report schema v{schema} unsupported (this code reads "
            f"v{REPORT_SCHEMA_VERSION} and v2)"
        )
    payload.setdefault("pruned", [])
    payload.setdefault("surrogate", None)
    return payload
