"""Command-line introspection for the compiler pipeline.

Usage::

    python -m repro.compiler list                     # resolved pipeline
    python -m repro.compiler list --unroll loop:2     # with a front end
    python -m repro.compiler list --json              # canonical form
    python -m repro.compiler passes                   # every registered pass
    python -m repro.compiler digest --scale 0.25      # per-benchmark
                                                      # compilation digests

``list`` prints the resolved pipeline — pass order and effective
per-pass options — for debugging configs; ``digest`` compiles the suite
through the runner and prints one stable content hash per benchmark,
which is what the CI determinism job compares across runs and cache
temperature.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from repro.compiler.config import PipelineConfig, standard_pipeline
from repro.compiler.manager import compilation_digest
from repro.compiler.passes import available_passes
from repro.core.speculation import SpeculationConfig


def _parse_unroll(text: str) -> Tuple[str, int]:
    label, sep, factor = text.rpartition(":")
    if not sep or not label:
        raise argparse.ArgumentTypeError(
            f"--unroll wants LABEL:FACTOR, got {text!r}"
        )
    try:
        return label, int(factor)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unroll factor must be an integer, got {factor!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.compiler",
        description="Inspect and exercise the pass-manager pipeline.",
    )
    sub = parser.add_subparsers(dest="command")

    list_cmd = sub.add_parser(
        "list", help="print the resolved pipeline with per-pass options"
    )
    list_cmd.add_argument(
        "--optimize", action="store_true",
        help="include the classical-optimisation front end",
    )
    list_cmd.add_argument(
        "--unroll", type=_parse_unroll, metavar="LABEL:FACTOR", default=None,
        help="include a loop-unrolling front end",
    )
    list_cmd.add_argument(
        "--threshold", type=float, default=0.65,
        help="speculation threshold shown on the speculate pass",
    )
    list_cmd.add_argument(
        "--json", action="store_true",
        help="emit the canonical (cache-key) form instead of text",
    )

    sub.add_parser("passes", help="print every registered pass")

    digest = sub.add_parser(
        "digest",
        help="compile benchmarks through the runner and print one "
        "content digest per benchmark (for determinism checks)",
    )
    digest.add_argument("--scale", type=float, default=1.0)
    digest.add_argument("--threshold", type=float, default=0.65)
    digest.add_argument(
        "--benchmarks", action="append", metavar="NAME[,NAME...]", default=None
    )
    digest.add_argument("--no-cache", action="store_true")
    digest.add_argument("--cache-dir", metavar="PATH", default=None)
    return parser


def _pipeline(args: argparse.Namespace) -> PipelineConfig:
    return standard_pipeline(
        optimize=getattr(args, "optimize", False),
        unroll=getattr(args, "unroll", None),
    )


def _run_list(args: argparse.Namespace) -> int:
    pipeline = _pipeline(args)
    spec_config = SpeculationConfig(threshold=args.threshold)
    if args.json:
        payload = {
            "fingerprint": pipeline.fingerprint(),
            "pipeline": pipeline.canonical(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(pipeline.describe(spec_config=spec_config))
    return 0


def _run_passes() -> int:
    for info in available_passes():
        defaults = ", ".join(
            f"{k}={'<required>' if repr(v).startswith('<object') else repr(v)}"
            for k, v in info.defaults
        )
        suffix = f"  [{defaults}]" if defaults else ""
        print(f"{info.name:<22}{info.kind:<10}{info.summary}{suffix}")
    return 0


def _run_digest(args: argparse.Namespace) -> int:
    from repro.runner.cache import CorruptStore, DiskCache
    from repro.runner.executor import Runner
    from repro.runner.jobs import compile_job
    from repro.workloads.suite import BENCHMARKS, resolve_benchmarks
    from repro.machine.configs import PLAYDOH_4W

    names: List[str] = []
    for chunk in args.benchmarks or []:
        names.extend(n for n in chunk.split(",") if n)
    benchmarks = resolve_benchmarks(names) if names else BENCHMARKS

    spec_config = SpeculationConfig(threshold=args.threshold)
    cache = DiskCache(
        root=Path(args.cache_dir) if args.cache_dir else None,
        enabled=not args.no_cache,
    )
    runner = Runner(cache=cache)
    jobs = {
        name: compile_job(
            name, PLAYDOH_4W, scale=args.scale, spec_config=spec_config
        )
        for name in benchmarks
    }
    try:
        runner.run(list(jobs.values()))
        for name, job in jobs.items():
            compilation = runner.run_job(job)
            print(f"{name} {compilation_digest(compilation)}")
    except CorruptStore as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        cache.close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in (None, "list"):
        if args.command is None:
            args = build_parser().parse_args(["list"])
        return _run_list(args)
    if args.command == "passes":
        return _run_passes()
    if args.command == "digest":
        return _run_digest(args)
    print(f"unknown command {args.command!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
