"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.evaluation all
    python -m repro.evaluation table2 table4 --scale 0.5
    repro-eval figure8 --threshold 0.8
    repro-eval table2 --benchmarks swim,li   # restrict the suite
    repro-eval all --events run.jsonl        # JSONL progress events (one run per file)
    repro-eval all --metrics metrics.json    # merged observability snapshot
    repro-eval all --no-cache                # bypass the on-disk result cache
    repro-eval all --cache-dir /tmp/repro    # relocate it
    repro-eval cache stats                   # inspect it
    repro-eval cache clear                   # empty it
    repro-eval --list-passes                 # resolved compiler pipeline

Pipeline execution (profile -> compile -> simulate per benchmark and
machine) is delegated to :mod:`repro.runner`, which runs the job graph
serially and caches results on disk keyed by a content hash of every
relevant knob, so a rerun with identical settings executes zero
pipeline jobs.  Output is byte-identical regardless of cache
temperature.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.evaluation import baseline_cmp, figure8, regions_exp, table2, table3, table4
from repro.evaluation.experiment import Evaluation, EvaluationSettings
from repro.evaluation.report import EXPERIMENTS, full_report, run_experiment
from repro.runner.cache import DiskCache
from repro.runner.events import EventLog, ProgressRenderer
from repro.runner.executor import Runner

#: Experiments with structured row output available as JSON.
_COMPUTE = {
    "table2": table2.compute,
    "table3": table3.compute,
    "table4": table4.compute,
    "figure8": figure8.compute,
    "baseline": baseline_cmp.compute,
    "regions": regions_exp.compute,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-eval",
        description=(
            "Reproduce the evaluation of 'Value Prediction in VLIW "
            "Machines' (Nakra, Gupta, Soffa)."
        ),
        # Flags are spelled out in full, so a removed flag such as
        # ``--bench`` is a usage error, not a prefix of ``--benchmarks``.
        allow_abbrev=False,
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help=(
            f"experiments to run: {', '.join(EXPERIMENTS)} or 'all'; "
            "or the cache maintenance commands 'cache stats' / 'cache clear'"
        ),
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload size multiplier (default 1.0)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.65,
        help="profile prediction-rate threshold (paper: 0.65)",
    )
    parser.add_argument(
        "--benchmarks",
        action="append",
        metavar="NAME[,NAME...]",
        help="restrict the suite to these benchmarks (repeatable, comma-separable)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        choices=[1],
        default=1,
        help="accepted for compatibility; pipelines always run serially",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="on-disk result cache location (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the result cache",
    )
    parser.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help=(
            "write structured JSON-lines progress events to PATH "
            "(truncated per run; every record carries this run's run_id)"
        ),
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help=(
            "collect simulator observability metrics and write the merged "
            "snapshot (plus the runner summary) to PATH as JSON"
        ),
    )
    parser.add_argument(
        "--list-passes",
        action="store_true",
        help=(
            "print the resolved compiler pipeline (pass order and "
            "effective per-pass options) and exit"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-job progress lines to stderr",
    )
    parser.add_argument(
        "--cpi",
        action="store_true",
        help=(
            "collect cycle accounting during simulation and append a CPI-"
            "stack section beside the tables (cause fractions per "
            "benchmark/machine; see repro-cycles for the full reports)"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit structured rows as JSON instead of rendered tables",
    )
    return parser


def _parse_benchmarks(values: Optional[List[str]]) -> Optional[List[str]]:
    if not values:
        return None
    names: List[str] = []
    for chunk in values:
        names.extend(name for name in chunk.split(",") if name)
    return names


def _make_cache(args: argparse.Namespace) -> DiskCache:
    """The result cache this invocation should use."""
    return DiskCache(
        root=Path(args.cache_dir) if args.cache_dir else None,
        enabled=not args.no_cache,
    )


def _cache_command(args: argparse.Namespace) -> int:
    cache = _make_cache(args)
    subcommand = args.experiments[1] if len(args.experiments) > 1 else "stats"
    try:
        if subcommand == "stats":
            stats = cache.stats()
            print(json.dumps(stats.as_dict(), indent=2) if args.json else stats.render())
            return 0
        if subcommand == "clear":
            removed = cache.clear()
            print(f"removed {removed} cached result(s) from {cache.root}")
            return 0
    finally:
        cache.close()
    print(
        f"unknown cache command {subcommand!r}; available: stats, clear",
        file=sys.stderr,
    )
    return 2


def _write_metrics(path: Optional[str], evaluation: Evaluation, events: EventLog) -> None:
    """Dump the merged simulator metrics snapshot plus runner summary."""
    if path is None:
        return
    payload = {
        "run_id": events.run_id,
        "metrics": evaluation.metrics_snapshot().as_dict(),
        "runner": events.summary(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _render_cpi(evaluation: Evaluation) -> str:
    """CPI-stack columns for every cycle-accounted simulation so far."""
    from repro.ir.printer import format_table
    from repro.obs.cycles import CAUSES, CPIStack

    body = []
    for key, models in evaluation.cycle_stack_results().items():
        proposed = CPIStack.of(models.get("proposed", {}))
        breakdown = ", ".join(
            f"{cause} {proposed.fraction(cause) * 100:.1f}%"
            for cause in CAUSES
            if proposed.get(cause)
        )
        body.append(
            (
                key,
                str(proposed.total),
                proposed.dominant() or "-",
                breakdown,
            )
        )
    table = format_table(
        ["Simulation", "Proposed cycles", "Dominant", "CPI stack"], body
    )
    return (
        "CPI stacks (--cpi): proposed-machine cycle attribution; 'dominant'\n"
        "is the largest non-issue cause (see repro-cycles for diffs)\n" + table
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.experiments and args.experiments[0] == "cache":
        return _cache_command(args)

    settings = EvaluationSettings(scale=args.scale).with_threshold(args.threshold)
    if args.list_passes:
        from repro.compiler.config import standard_pipeline

        print(standard_pipeline().describe(spec_config=settings.spec_config))
        return 0
    try:
        settings = settings.with_benchmarks(_parse_benchmarks(args.benchmarks))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    events = EventLog(
        path=args.events,
        renderer=ProgressRenderer() if args.progress else None,
    )
    runner = Runner(cache=_make_cache(args), events=events)
    evaluation = Evaluation(
        settings,
        runner=runner,
        collect_metrics=args.metrics is not None,
        collect_cycles=args.cpi,
    )

    names = args.experiments
    run_all = names == ["all"] or "all" in names
    try:
        for name in names:
            if not run_all and name not in EXPERIMENTS:
                print(
                    f"unknown experiment {name!r}; available: "
                    f"{', '.join(EXPERIMENTS)} or 'all'",
                    file=sys.stderr,
                )
                return 2
        # Execute the whole pipeline job graph up front, so the
        # experiment generators below only read warmed caches.
        evaluation.warm(None if run_all else names)

        if run_all:
            if args.json:
                payload = {
                    name: [dataclasses.asdict(row) for row in compute(evaluation)]
                    for name, compute in _COMPUTE.items()
                }
                if args.cpi:
                    payload["cpi"] = evaluation.cycle_stack_results()
                print(json.dumps(payload, indent=2, default=str))
            else:
                print(full_report(evaluation))
                if args.cpi:
                    print()
                    print(_render_cpi(evaluation))
            _write_metrics(args.metrics, evaluation, events)
            return 0
        for name in names:
            if args.json:
                if name not in _COMPUTE:
                    print(f"experiment {name!r} has no JSON form", file=sys.stderr)
                    return 2
                rows = [dataclasses.asdict(row) for row in _COMPUTE[name](evaluation)]
                print(json.dumps(rows, indent=2, default=str))
            else:
                print(run_experiment(name, evaluation))
                print()
        if args.cpi:
            if args.json:
                print(json.dumps({"cpi": evaluation.cycle_stack_results()}, indent=2))
            else:
                print(_render_cpi(evaluation))
        _write_metrics(args.metrics, evaluation, events)
        return 0
    finally:
        events.close()
        runner.cache.close()


if __name__ == "__main__":
    raise SystemExit(main())
