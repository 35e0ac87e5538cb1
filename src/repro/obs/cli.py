"""``repro-trace``: export simulator activity as a Perfetto trace.

Usage::

    repro-trace                               # the paper's worked example
    repro-trace --scenario "r4 mispredicted"  # another Figure 3 scenario
    repro-trace compress --scale 0.25         # a benchmark's hottest blocks
    repro-trace li --pattern best --max-blocks 2
    repro-trace --metrics metrics.json        # also dump the metrics snapshot
    repro-trace --runner-events run.jsonl     # add runner pipeline-stage spans

The default target is the paper's worked example: the chosen scenario's
event log is exported as Chrome trace-event JSON (open it at
https://ui.perfetto.dev), and the metrics snapshot folded from the same
log is cross-checked against the simulator's own counters
(``cce.flush + cce.reexec`` must equal flushed + executed).

With a benchmark name the full in-process pipeline runs (build, profile,
compile), the program is simulated once with ``collect_metrics=True``,
and the top ``--max-blocks`` speculated blocks (by profiled frequency)
are each run under the chosen outcome pattern and exported from their
event logs on their own pair of process tracks.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.machine.configs import PLAYDOH_4W, PLAYDOH_8W
from repro.obs.metrics import MetricsSnapshot
from repro.obs.perfetto import (
    block_run_events,
    chrome_trace,
    runner_span_events,
    write_trace,
)

_MACHINES = {"4w": PLAYDOH_4W, "8w": PLAYDOH_8W}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description=(
            "Export dual-engine simulator activity (and optionally runner "
            "pipeline stages) as Chrome trace-event / Perfetto JSON."
        ),
    )
    parser.add_argument(
        "target",
        nargs="?",
        default="example",
        help=(
            "'example' (default: the paper's worked example) or a "
            "benchmark name from the workload suite"
        ),
    )
    parser.add_argument(
        "--scenario",
        default="r7 mispredicted",
        help=(
            "worked-example scenario to trace: 'both correct', "
            "'r7 mispredicted' (default), 'r4 mispredicted', "
            "'both mispredicted'"
        ),
    )
    parser.add_argument(
        "--pattern",
        choices=("worst", "best"),
        default="worst",
        help=(
            "benchmark mode: outcome pattern for the traced blocks "
            "(worst = all mispredicted, default; best = all correct)"
        ),
    )
    parser.add_argument(
        "--machine",
        choices=sorted(_MACHINES),
        default="4w",
        help="target machine (default: 4w)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="workload size multiplier"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.65,
        help="profile prediction-rate threshold (paper: 0.65)",
    )
    parser.add_argument(
        "--max-blocks",
        type=int,
        default=4,
        help="benchmark mode: trace at most this many hottest speculated blocks",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="trace output path (default: <target>.trace.json)",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="also write the collected metrics snapshot to PATH as JSON",
    )
    parser.add_argument(
        "--runner-events",
        metavar="PATH",
        default=None,
        help=(
            "runner --events JSONL file; its job spans are added to the "
            "trace on a separate runner process track"
        ),
    )
    return parser


def _write_metrics(path: Optional[str], snapshot: MetricsSnapshot) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _family_total(snapshot: MetricsSnapshot, name: str) -> int:
    """Sum of the bare counter and all labelled series of one name."""
    return snapshot.counter(name) + sum(snapshot.counter_family(name).values())


def _check_consistency(snapshot: MetricsSnapshot, flushed: int, executed: int) -> bool:
    """The metrics snapshot must agree with the simulator's own counters."""
    flush = _family_total(snapshot, "cce.flush")
    reexec = _family_total(snapshot, "cce.reexec")
    ok = flush + reexec == flushed + executed
    verdict = "OK" if ok else "MISMATCH"
    print(
        f"consistency: cce.flush({flush}) + cce.reexec({reexec}) "
        f"vs simulator flushed({flushed}) + executed({executed}) -> {verdict}"
    )
    return ok


def _trace_example(args: argparse.Namespace) -> int:
    from repro.evaluation.paper_example import run_example

    machine = _MACHINES[args.machine]
    example = run_example(machine=machine)
    if args.scenario not in example.scenarios:
        print(
            f"unknown scenario {args.scenario!r}; available: "
            f"{', '.join(example.scenarios)}",
            file=sys.stderr,
        )
        return 2
    run = example.scenarios[args.scenario]
    snapshot = run.metrics

    events = block_run_events(
        example.spec_schedule,
        run,
        example.logs[args.scenario],
        title=f"paper example [{args.scenario}]",
    )
    events.extend(_runner_events(args))
    out = args.out or "example.trace.json"
    write_trace(out, chrome_trace(events, other_data={"scenario": args.scenario}))
    _write_metrics(args.metrics, snapshot)

    print(f"wrote {out}: {len(events)} trace events ({args.scenario})")
    print(
        f"  {run.effective_length} cycles, {run.mispredictions}/"
        f"{run.predictions} mispredicted, {run.flushed} flushed, "
        f"{run.executed} re-executed"
    )
    if args.metrics:
        print(f"wrote {args.metrics}")
    return 0 if _check_consistency(snapshot, run.flushed, run.executed) else 1


def _trace_benchmark(args: argparse.Namespace) -> int:
    from repro.core.machine_sim import trace_block
    from repro.evaluation.experiment import Evaluation, EvaluationSettings
    from repro.workloads.suite import resolve_benchmarks

    try:
        resolve_benchmarks([args.target])
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    machine = _MACHINES[args.machine]
    settings = EvaluationSettings(scale=args.scale).with_threshold(args.threshold)
    settings = settings.with_benchmarks([args.target])
    evaluation = Evaluation(settings, collect_metrics=True)
    compilation = evaluation.compilation(args.target, machine)
    result = evaluation.simulation(args.target, machine)
    snapshot = result.metrics

    # Hottest speculated blocks by profiled frequency.
    weighted = sorted(
        (
            (compilation.profile.blocks.count(label), label)
            for label in compilation.speculated_labels
        ),
        reverse=True,
    )
    chosen = [label for weight, label in weighted[: args.max_blocks] if weight > 0]
    events: List[Dict[str, Any]] = []
    for index, label in enumerate(chosen):
        comp = compilation.block(label)
        correct = args.pattern == "best"
        outcomes = {l: correct for l in comp.spec_schedule.spec.ldpred_ids}
        run, log = trace_block(comp.spec_schedule, outcomes)
        events.extend(
            block_run_events(
                comp.spec_schedule,
                run,
                log,
                base_pid=index * 10,
                title=f"{args.target}:{label} [{args.pattern}]",
            )
        )
    events.extend(_runner_events(args))

    out = args.out or f"{args.target}.trace.json"
    write_trace(
        out,
        chrome_trace(
            events,
            other_data={
                "benchmark": args.target,
                "machine": machine.name,
                "pattern": args.pattern,
                "blocks": chosen,
            },
        ),
    )
    _write_metrics(args.metrics, snapshot)

    skipped = len(compilation.speculated_labels) - len(chosen)
    print(
        f"wrote {out}: {len(events)} trace events over {len(chosen)} "
        f"speculated block(s)" + (f" ({skipped} not traced)" if skipped > 0 else "")
    )
    print(
        f"  {args.target}@{machine.name}: speedup {result.speedup_proposed:.3f}, "
        f"accuracy {result.prediction_accuracy:.3f}, "
        f"{result.cc_flushed} flushed, {result.cc_executed} re-executed"
    )
    if args.metrics:
        print(f"wrote {args.metrics}")
    return 0 if _check_consistency(snapshot, result.cc_flushed, result.cc_executed) else 1


def _runner_events(args: argparse.Namespace) -> List[Dict[str, Any]]:
    if args.runner_events is None:
        return []
    from repro.runner.events import read_events

    return runner_span_events(read_events(args.runner_events))


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.target == "example":
        return _trace_example(args)
    return _trace_benchmark(args)


if __name__ == "__main__":
    raise SystemExit(main())
