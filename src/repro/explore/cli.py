"""``repro-explore``: sweep the machine design space the paper opened.

Usage::

    repro-explore --axis issue_width=2,4,8 --axis threshold=0.5,0.65,0.8
    repro-explore --axis predictor.kind=stride,fcm,hybrid --scale 0.25
    repro-explore --base machines/custom.toml --axis fu_scale=1,2
    repro-explore --axis issue_width=2,4 --random 4 --seed 7
    repro-explore ... --out sweep.json --plot sweep.png

Every point runs the paper's dynamic simulation per benchmark through
the shared content-hash-keyed runner, so points dedupe their common
stages (one build/trace/profile per benchmark for the whole sweep) and
reruns are pure cache reads.  The JSON artifact is deterministic —
identical across cache temperature and ``--no-cache``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.explore.driver import explore, pareto_frontier
from repro.explore.report import (
    dump_report,
    plot_frontier,
    render_frontier,
    render_table,
    report_payload,
)
from repro.explore.space import Axis, DesignSpace
from repro.machine.configs import spec_by_name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-explore",
        description=(
            "Design-space exploration over declarative machine specs: "
            "grid/random sweeps, speedup vs hardware cost, Pareto frontier."
        ),
    )
    parser.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=V1,V2,...",
        help=(
            "one swept axis (repeatable), e.g. issue_width=2,4,8, "
            "threshold=0.5,0.65, predictor.kind=stride,hybrid, "
            "latency.load=2,3,5, ccb_capacity=8,none"
        ),
    )
    parser.add_argument(
        "--base",
        default="playdoh-4w",
        metavar="NAME|SPEC-FILE",
        help=(
            "base machine the axes perturb: a registry name or a "
            ".json/.toml spec file (default: playdoh-4w)"
        ),
    )
    parser.add_argument(
        "--random",
        type=int,
        default=None,
        metavar="N",
        help="sample N points from the grid instead of running all of it",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="random-sample seed (default 0; same seed = same points)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload size multiplier (default 1.0)",
    )
    parser.add_argument(
        "--threshold", type=float, default=None,
        help="base speculation threshold (default: the pass default, 0.65)",
    )
    parser.add_argument(
        "--benchmarks",
        action="append",
        metavar="NAME[,NAME...]",
        help="restrict the suite (repeatable, comma-separable)",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, choices=[1], default=1,
        help="accepted for compatibility; pipelines always run serially",
    )
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="on-disk result cache location",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the result cache",
    )
    parser.add_argument(
        "--events", metavar="PATH", default=None,
        help="write JSONL runner progress events to PATH",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the deterministic JSON sweep artifact to PATH",
    )
    parser.add_argument(
        "--plot", metavar="PATH", default=None,
        help="write a cost/speedup frontier plot (needs matplotlib)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print per-job progress lines to stderr",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the artifact JSON to stdout instead of the text table",
    )
    return parser


def _parse_benchmarks(values: Optional[List[str]]) -> Optional[List[str]]:
    if not values:
        return None
    names: List[str] = []
    for chunk in values:
        names.extend(name for name in chunk.split(",") if name)
    return names


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    try:
        axes = tuple(Axis.parse(text) for text in args.axis)
        base = spec_by_name(args.base)
    except (ValueError, KeyError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if not axes:
        print(
            "no axes declared; pass at least one --axis NAME=V1,V2,... "
            "(see --help for the axis catalogue)",
            file=sys.stderr,
        )
        return 2

    base_config = base.spec_config()
    if args.threshold is not None:
        import dataclasses

        base_config = dataclasses.replace(
            base_config, threshold=args.threshold
        )
    space = DesignSpace(base=base, axes=axes, base_config=base_config)
    if args.random is not None:
        points = space.sample(args.random, seed=args.seed)
    else:
        points = space.grid()
    print(
        f"exploring {len(points)} of {space.size} design points "
        f"over {len(axes)} axes (base {base.name})",
        file=sys.stderr,
    )

    from repro.runner.cache import DiskCache
    from repro.runner.events import EventLog, ProgressRenderer
    from repro.runner.executor import Runner

    events = EventLog(
        path=args.events,
        renderer=ProgressRenderer() if args.progress else None,
    )
    runner = Runner(
        cache=DiskCache(
            root=Path(args.cache_dir) if args.cache_dir else None,
            enabled=not args.no_cache,
        ),
        events=events,
    )

    benchmarks = _parse_benchmarks(args.benchmarks)
    try:
        outcome = explore(
            points,
            scale=args.scale,
            benchmarks=benchmarks,
            runner=runner,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        events.close()
        runner.cache.close()

    results = list(outcome.results)
    for p in outcome.pruned:
        print(f"pruned [{p.reason}] {p.label}: {p.detail}", file=sys.stderr)
    resolved_benchmarks = (
        [b.benchmark for b in results[0].benchmarks] if results else []
    )
    payload = report_payload(
        space,
        results,
        scale=args.scale,
        benchmarks=resolved_benchmarks,
        pruned=outcome.pruned,
    )
    text = dump_report(payload)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"sweep artifact: {args.out}", file=sys.stderr)
    if args.json:
        sys.stdout.write(text)
    else:
        print(render_table(results))
        print()
        print(render_frontier(results))
    if args.plot:
        written = plot_frontier(results, args.plot)
        if written:
            print(f"frontier plot: {written}", file=sys.stderr)
        else:
            print(
                "frontier plot skipped: matplotlib is not installed",
                file=sys.stderr,
            )
    frontier = pareto_frontier(results)
    print(
        f"{len(frontier)} of {len(results)} points on the Pareto frontier",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
