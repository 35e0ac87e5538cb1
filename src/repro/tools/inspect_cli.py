"""``repro-inspect``: look inside the compiler for one block.

Dumps, for a chosen benchmark block, everything the speculation pipeline
knows about it: the assembly, the load value profile, the critical path,
the original and speculative schedules, the transformed operation forms
with their Synchronization bits, and a cycle-by-cycle dual-engine
timeline for a chosen misprediction scenario.

Examples::

    repro-inspect --benchmark vortex --list
    repro-inspect --benchmark vortex --block lookup
    repro-inspect --benchmark m88ksim --block cycle --machine playdoh-8w \\
        --scenario worst
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.ddg.builder import build_ddg
from repro.ddg.critical_path import analyze
from repro.ir.asm import format_operation_asm
from repro.ir.liveness import compute_liveness
from repro.machine.configs import by_name
from repro.profiling.profile_run import profile_program
from repro.sched.list_scheduler import schedule_block
from repro.trace.capture import capture_trace
from repro.core.machine_sim import trace_block
from repro.core.specsched import schedule_speculative
from repro.core.speculation import SpeculationConfig, speculate_block
from repro.core.timeline import render_timeline
from repro.workloads.suite import benchmark_names, load_benchmark


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-inspect",
        description="Inspect the speculation pipeline for one benchmark block.",
    )
    parser.add_argument(
        "--benchmark", required=True, help=f"one of {benchmark_names()}"
    )
    parser.add_argument("--block", help="block label (see --list)")
    parser.add_argument("--list", action="store_true", help="list blocks and exit")
    parser.add_argument(
        "--machine", default="playdoh-4w", help="machine configuration name"
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--threshold", type=float, default=0.65, help="profile threshold"
    )
    parser.add_argument(
        "--scenario",
        default="worst",
        help="'best', 'worst', or a comma list like 1,0 (per predicted load)",
    )
    return parser


def _parse_scenario(text: str, n: int) -> List[bool]:
    if text == "best":
        return [True] * n
    if text == "worst":
        return [False] * n
    values = [tok.strip() for tok in text.split(",")]
    if len(values) != n or any(v not in ("0", "1") for v in values):
        raise SystemExit(
            f"scenario must be 'best', 'worst' or {n} comma-separated 0/1 flags"
        )
    return [v == "1" for v in values]


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.benchmark not in benchmark_names():
        print(f"unknown benchmark {args.benchmark!r}", file=sys.stderr)
        return 2
    program = load_benchmark(args.benchmark, scale=args.scale)
    machine = by_name(args.machine)
    function = program.main

    if args.list or not args.block:
        profile = profile_program(program, capture_trace(program))
        print(f"blocks of {args.benchmark} (dynamic count, #ops):")
        for block in function:
            print(
                f"  {block.label:12s} x{profile.blocks.count(block.label):<6d} "
                f"{len(block.operations)} ops"
            )
        return 0

    if not function.has_block(args.block):
        print(f"no block {args.block!r} in {args.benchmark}", file=sys.stderr)
        return 2

    block = function.block(args.block)
    profile = profile_program(program, capture_trace(program))

    print(f"=== {args.benchmark}/{args.block} on {machine} ===\n")
    print("assembly:")
    for op in block:
        print(f"    {format_operation_asm(op)}")

    print("\nload profile:")
    for op in block.loads():
        stats = profile.values.loads.get(op.op_id)
        if stats is None:
            print(f"    op{op.op_id}: never executed")
        else:
            print(
                f"    op{op.op_id}: n={stats.executions} "
                f"stride={stats.stride_rate:.2f} fcm={stats.fcm_rate:.2f}"
            )

    graph = build_ddg(block, machine)
    analysis = analyze(graph, machine)
    print(f"\ncritical path: {analysis.length} cycles through "
          f"{[f'op{i}' for i in analysis.critical_ops]}")

    original = schedule_block(block, machine)
    print(f"\noriginal schedule ({original.length} cycles):")
    print(original)

    config = SpeculationConfig(threshold=args.threshold)
    live_out = compute_liveness(function).live_out[block.label]
    spec = speculate_block(
        block, machine, profile.values, live_out=live_out, config=config,
        id_base=program.max_op_id() + 1,  # number ops as the compiler does
    )
    if spec is None:
        print("\nspeculation: nothing profitable to predict at this threshold")
        return 0

    sched = schedule_speculative(spec, machine, original_length=original.length)
    print(f"\nspeculative schedule ({sched.length} cycles, "
          f"{sched.improvement} saved, {spec.num_predictions} prediction(s)):")
    print(sched.schedule)

    outcomes_list = _parse_scenario(args.scenario, spec.num_predictions)
    outcomes = dict(zip(spec.ldpred_ids, outcomes_list))
    run, log = trace_block(sched, outcomes)
    print(f"\nscenario {args.scenario!r}:")
    print(render_timeline(sched, run, log))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
