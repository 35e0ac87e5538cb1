#!/usr/bin/env python3
"""Predictor playground: how each predictor fares on each stream shape.

Feeds characteristic value streams (constant, strided, noisy-strided,
repeating, random — the shapes the synthetic benchmarks are built from)
through every predictor in the library and tabulates hit rates.  This is
the intuition behind the paper's choice to profile with *both* stride and
FCM and take the better of the two.

Run:  python examples/predictor_playground.py
"""

import random

from repro.ir.printer import format_table
from repro.predict.fcm import FCMPredictor
from repro.predict.hybrid import default_hybrid
from repro.predict.last_value import LastValuePredictor
from repro.predict.stride import StridePredictor
from repro.workloads import values

STREAM_LENGTH = 500


def streams():
    rng = random.Random(42)
    return {
        "constant": [7] * STREAM_LENGTH,
        "strided": values.strided(STREAM_LENGTH, start=3, stride=4),
        "noisy stride (20%)": values.noisy_strided(
            STREAM_LENGTH, rng, stride=4, break_rate=0.2
        ),
        "repeating (period 3)": values.repeating(STREAM_LENGTH, [9, 2, 5]),
        "mostly constant (10%)": values.mostly_constant(
            STREAM_LENGTH, rng, value=1, flip_rate=0.1
        ),
        "random": values.random_values(STREAM_LENGTH, rng),
    }


def predictors():
    return {
        "last-value": LastValuePredictor,
        "stride": StridePredictor,
        "fcm": FCMPredictor,
        "hybrid": default_hybrid,
    }


def main() -> None:
    table = []
    names = list(predictors())
    for stream_name, stream in streams().items():
        row = [stream_name]
        for predictor_name in names:
            predictor = predictors()[predictor_name]()
            for v in stream:
                predictor.observe("k", v)
            row.append(f"{predictor.stats.hit_rate:.2f}")
        table.append(row)

    print("Hit rate by predictor and stream shape:\n")
    print(format_table(["stream"] + names, table))
    print(
        "\nStride prediction owns arithmetic sequences, FCM owns repeating "
        "patterns, and the hybrid tracks whichever is winning per key — "
        "matching the paper's best-of(stride, FCM) profiling rule."
    )


if __name__ == "__main__":
    main()
