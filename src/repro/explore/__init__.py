"""Design-space exploration over declarative machine specs.

The :mod:`repro.explore` subsystem sweeps machine/speculation axes
(issue width, FU counts, latencies, buffer capacities, predictor
geometry, speculation threshold, ...) over the paper's evaluation
pipeline and reduces each point to a (hardware cost, speedup) pair
plus the resulting Pareto frontier.  ``repro-explore`` is the CLI.
"""

from repro.explore.cost import cost_breakdown, machine_cost, predictor_cost
from repro.explore.driver import (
    BenchmarkResult,
    ExploreOutcome,
    PointResult,
    PrunedPoint,
    explore,
    pareto_frontier,
)
from repro.explore.report import (
    REPORT_SCHEMA_VERSION,
    dump_report,
    load_report,
    plot_frontier,
    render_frontier,
    render_table,
    report_payload,
)
from repro.explore.space import Axis, DesignPoint, DesignSpace, parse_axis_value

__all__ = [
    "Axis",
    "BenchmarkResult",
    "DesignPoint",
    "DesignSpace",
    "ExploreOutcome",
    "PointResult",
    "PrunedPoint",
    "REPORT_SCHEMA_VERSION",
    "cost_breakdown",
    "dump_report",
    "explore",
    "load_report",
    "machine_cost",
    "pareto_frontier",
    "parse_axis_value",
    "plot_frontier",
    "predictor_cost",
    "render_frontier",
    "render_table",
    "report_payload",
]
