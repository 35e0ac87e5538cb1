"""The benchmark suite: the eight SPEC95 stand-ins of the paper's tables.

Order matches the paper: five SPEC INT 95 programs (compress, ijpeg, li,
m88ksim, vortex) followed by three SPEC FP 95 programs (hydro2d, swim,
tomcatv).
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.ir.program import Program

#: Benchmarks in the paper's table order.  Each is built by the
#: ``build`` function of the :mod:`repro.workloads` module of that name.
BENCHMARKS: Tuple[str, ...] = (
    "compress",
    "ijpeg",
    "li",
    "m88ksim",
    "vortex",
    "hydro2d",
    "swim",
    "tomcatv",
)

INT_BENCHMARKS: List[str] = ["compress", "ijpeg", "li", "m88ksim", "vortex"]
FP_BENCHMARKS: List[str] = ["hydro2d", "swim", "tomcatv"]


def benchmark_names() -> List[str]:
    return list(BENCHMARKS)


def resolve_benchmarks(names: Sequence[str]) -> Tuple[str, ...]:
    """Validate a user-supplied benchmark selection.

    Accepts names in any order (order is preserved), rejects unknown
    names and duplicates with a ``ValueError`` that lists the registry.
    """
    seen: List[str] = []
    for name in names:
        if name not in BENCHMARKS:
            raise ValueError(
                f"unknown benchmark {name!r}; available: {benchmark_names()}"
            )
        if name in seen:
            raise ValueError(f"benchmark {name!r} given more than once")
        seen.append(name)
    if not seen:
        raise ValueError("benchmark selection is empty")
    return tuple(seen)


def load_benchmark(name: str, scale: float = 1.0) -> Program:
    """Build one benchmark by name."""
    if name not in BENCHMARKS:
        raise KeyError(f"unknown benchmark {name!r}; available: {benchmark_names()}")
    return importlib.import_module(f"repro.workloads.{name}").build(scale=scale)


def load_suite(scale: float = 1.0) -> Dict[str, Program]:
    """Build the whole suite (deterministic: fixed per-benchmark seeds)."""
    return {name: load_benchmark(name, scale=scale) for name in BENCHMARKS}
