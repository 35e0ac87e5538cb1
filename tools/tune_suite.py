"""Developer harness: per-benchmark metrics at both widths.

Runs through :mod:`repro.runner`, so repeated invocations while tuning a
single benchmark serve the untouched stages from the disk cache.

Run:  python tools/tune_suite.py [bench ...] [--scale S]
                                 [--cache-dir DIR | --no-cache]
"""

import argparse
import time

from repro.core.metrics import OutcomeClass
from repro.machine.configs import PLAYDOH_4W, PLAYDOH_8W
from repro.runner.cache import DiskCache
from repro.runner.executor import Runner
from repro.runner.jobs import compile_job, simulate_job
from repro.workloads.suite import BENCHMARKS

# Paper Table 4 best-case targets: (ex-time fraction, schedule fraction @4w, schedule fraction @8w)
TARGETS = {
    "compress": (0.48, 0.80),
    "ijpeg": (0.35, 0.82),
    "li": (0.49, 0.85),
    "m88ksim": (0.53, 0.73),
    "vortex": (0.49, 0.68),
    "hydro2d": (0.63, 0.80),
    "swim": (0.49, 0.98),
    "tomcatv": (0.51, 0.95),
}


def main(names, scale=1.0, runner=None):
    if runner is None:
        runner = Runner()
    t0 = time.time()
    print(f"{'bench':9s} | target tf/len | 4w: tf_ac len_b len_w np | 8w: tf_ac len_b len_w np | acc")
    for name in names:
        t_tf, t_len = TARGETS[name]
        row = f"{name:9s} |  {t_tf:.2f} {t_len:.2f}   |"
        acc = 0.0
        for m in (PLAYDOH_4W, PLAYDOH_8W):
            comp = runner.run_job(compile_job(name, m, scale=scale))
            res = runner.run_job(simulate_job(name, m, scale=scale))
            npred = sum(
                len(comp.block(l).predicted_load_ids)
                for l in comp.speculated_labels
            )
            row += (
                f"  {res.time_fraction(OutcomeClass.ALL_CORRECT):.2f}"
                f" {comp.weighted_length_fraction(True):.2f}"
                f" {comp.weighted_length_fraction(False):.2f} {npred} |"
            )
            acc = res.prediction_accuracy
        print(row + f" {acc:.2f}")
    print(f"[{time.time()-t0:.1f}s]")


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("benchmarks", nargs="*", default=list(BENCHMARKS))
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--no-cache", action="store_true")
    return parser.parse_args(argv)


if __name__ == "__main__":
    args = _parse_args()
    cache = DiskCache(root=args.cache_dir, enabled=not args.no_cache)
    main(args.benchmarks, scale=args.scale, runner=Runner(cache=cache))
