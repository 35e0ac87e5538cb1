#!/usr/bin/env python3
"""Quickstart: compile and simulate one benchmark end to end.

Runs the full pipeline the paper describes on the `compress` stand-in:

1. profile the program (block frequencies + load value predictability);
2. compile for the 4-wide Playdoh machine — the speculation pass picks
   predictable loads on each block's critical path and rewrites the
   blocks with LdPred / check-prediction / speculative / non-speculative
   operation forms;
3. simulate the dual-engine machine with a live stride+FCM hybrid value
   predictor, and compare against the no-prediction machine and the
   statically-recovered baseline of the paper's reference [4].

Run:  python examples/quickstart.py [benchmark]
"""

import sys

from repro.compiler.manager import compile_program
from repro.core.metrics import OutcomeClass
from repro.core.program_sim import simulate_program
from repro.machine.configs import PLAYDOH_4W
from repro.profiling.profile_run import profile_program
from repro.trace.capture import capture_trace
from repro.workloads.suite import benchmark_names, load_benchmark


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "compress"
    if name not in benchmark_names():
        raise SystemExit(f"unknown benchmark {name!r}; pick from {benchmark_names()}")

    print(f"=== {name} on {PLAYDOH_4W} ===\n")

    program = load_benchmark(name)
    trace = capture_trace(program)
    profile = profile_program(program, trace=trace)
    print(f"profiled {trace.dynamic_operations} dynamic operations, "
          f"{profile.blocks.total} dynamic blocks")
    for op_id, stats in sorted(profile.values.loads.items()):
        print(f"  load op{op_id}: {stats.executions} executions, "
              f"stride rate {stats.stride_rate:.2f}, FCM rate {stats.fcm_rate:.2f}")

    compilation = compile_program(program, PLAYDOH_4W, profile)
    print(f"\nspeculated blocks: {compilation.speculated_labels}")
    for label in compilation.speculated_labels:
        block = compilation.block(label)
        print(f"  {label}: schedule {block.original_length} -> "
              f"{block.best_case().effective_length} cycles "
              f"({len(block.predicted_load_ids)} predicted load(s))")

    result = simulate_program(compilation)
    print(f"\nno prediction : {result.cycles_nopred} cycles")
    print(f"proposed      : {result.cycles_proposed} cycles "
          f"(speedup {result.speedup_proposed:.3f})")
    print(f"baseline [4]  : {result.cycles_baseline} cycles "
          f"(speedup {result.speedup_baseline:.3f})")
    print(f"\nprediction accuracy: {result.prediction_accuracy:.3f} "
          f"({result.mispredictions}/{result.predictions} mispredicted)")
    print(f"time in all-correct blocks: "
          f"{result.time_fraction(OutcomeClass.ALL_CORRECT):.2f}")
    print(f"time in all-incorrect blocks: "
          f"{result.time_fraction(OutcomeClass.ALL_INCORRECT):.3f}")
    print(f"compensation ops: {result.cc_executed} re-executed, "
          f"{result.cc_flushed} flushed")


if __name__ == "__main__":
    main()
