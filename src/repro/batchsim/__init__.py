"""Batched struct-of-arrays simulation of sweep points.

``repro.batchsim`` simulates *B* sweep points that share a program trace
in one pass: the trace is decoded once into struct-of-arrays form
(:mod:`.arrays`), per-static-op predictor outcome columns are computed
once by the column kernels of :mod:`repro.predict` and shared by the
profile and every point that predicts that op (:mod:`.outcomes`),
and each point's dynamic accounting collapses to a vectorised
pattern-bitmask histogram folded through the exact per-pattern block
timings (:mod:`.engine`).  A finite prediction table masks the shared
columns by slot occupancy (:mod:`.outcomes`), and icache runs fold
their fetch streams in one pass (:mod:`.fetch`).  This is the only
engine; the test suite holds it to a scalar per-op replay.

This package imports lazily: the engine modules import NumPy, which
only a batched run needs.
"""

from __future__ import annotations

__all__ = [
    "BatchContext",
    "default_context",
    "reset_shared_state",
]


def __getattr__(name):
    if name in __all__:
        from repro.batchsim import context

        return getattr(context, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
