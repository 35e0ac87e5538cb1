"""Declarative, serialisable pipeline configurations.

A :class:`PipelineConfig` names the passes the compiler driver
(:class:`repro.compiler.manager.PassManager`) will run, split in two stages:

* ``program_passes`` rewrite the :class:`~repro.ir.program.Program`
  itself (classical optimisations, loop unrolling).  They run *before*
  profiling — profiles and all downstream products reference operations
  of the rewritten program — so the experiment runner applies them in
  its ``build`` stage.
* ``codegen_passes`` lower the (profiled) program to a
  :class:`~repro.core.metrics.ProgramCompilation`: liveness, original
  scheduling, the value-speculation transform, speculative scheduling
  and baseline construction.

Configs are plain frozen dataclasses built from :class:`PassSpec`
entries (a pass name plus a sorted option tuple), so they hash, compare
and pickle; :meth:`PipelineConfig.canonical` reduces one to JSON
primitives and :meth:`PipelineConfig.fingerprint` to a stable content
hash — which is what the runner keys its on-disk cache entries by.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

#: Bump when the canonical serialisation of pipeline configs changes
#: shape (part of every fingerprint, hence of every runner cache key).
PIPELINE_SCHEMA_VERSION = 1


_PRIMITIVES = frozenset({str, int, bool, type(None)})


def canonical_value(value: Any) -> Any:
    """Reduce ``value`` to JSON-serialisable primitives, deterministically.

    Handles the types that appear in pipeline and job specifications:
    dataclasses, enums, mappings (sorted by stringified key), sequences,
    sets (sorted) and primitives.  Floats go through ``repr`` so the
    hash sees full precision.
    """
    # Exact types, checked first because they are most of what a job
    # key holds: an enum or other subclass of int or str still takes
    # its own branch below.
    if type(value) in _PRIMITIVES:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            **{
                f.name: canonical_value(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, Mapping):
        return {str(canonical_value(k)): canonical_value(v) for k, v in sorted(
            value.items(), key=lambda kv: str(canonical_value(kv[0]))
        )}
    if isinstance(value, (set, frozenset)):
        return sorted((canonical_value(v) for v in value), key=str)
    if isinstance(value, (list, tuple)):
        return [canonical_value(v) for v in value]
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (str, int, bool)):
        return value
    raise TypeError(
        f"cannot canonicalise {type(value).__name__} for a content hash"
    )


def content_hash(payload: Any) -> str:
    """SHA-256 over the canonical JSON form of ``payload``."""
    text = json.dumps(
        canonical_value(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PassSpec:
    """One pass invocation: a registered pass name plus its options.

    Options are a sorted tuple of ``(name, value)`` pairs so specs are
    hashable, order-insensitive and canonicalise deterministically.
    Build them with :meth:`make` rather than the raw constructor.
    """

    name: str
    options: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, name: str, **options: Any) -> "PassSpec":
        return cls(name, tuple(sorted(options.items())))

    def canonical(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "options": {k: canonical_value(v) for k, v in self.options},
        }

    def render(self) -> str:
        """Human-readable form, e.g. ``unroll(factor=2, label='loop')``."""
        if not self.options:
            return self.name
        opts = ", ".join(f"{k}={v!r}" for k, v in self.options)
        return f"{self.name}({opts})"


#: The codegen stage mirroring the original ``compile_program`` loop.
STANDARD_CODEGEN: Tuple[PassSpec, ...] = (
    PassSpec("liveness"),
    PassSpec("schedule-original"),
    PassSpec("speculate"),
    PassSpec("schedule-speculative"),
    PassSpec("baseline"),
)


@dataclass(frozen=True)
class PipelineConfig:
    """A declarative compiler pipeline: what runs, in which order.

    Attributes:
        program_passes: program-rewriting passes, applied pre-profiling.
        codegen_passes: state-building passes that produce the
            :class:`~repro.core.metrics.ProgramCompilation`.
    """

    program_passes: Tuple[PassSpec, ...] = ()
    codegen_passes: Tuple[PassSpec, ...] = STANDARD_CODEGEN

    def frontend(self) -> "PipelineConfig":
        """The program-rewriting prefix only (what a build stage runs)."""
        return PipelineConfig(program_passes=self.program_passes, codegen_passes=())

    def canonical(self) -> Dict[str, Any]:
        """JSON-primitive form (what :meth:`fingerprint` hashes)."""
        return {
            "schema": PIPELINE_SCHEMA_VERSION,
            "program": [p.canonical() for p in self.program_passes],
            "codegen": [p.canonical() for p in self.codegen_passes],
        }

    def fingerprint(self) -> str:
        """Stable content hash of the pipeline specification."""
        return content_hash(self.canonical())

    def is_standard(self) -> bool:
        return self.canonical() == standard_pipeline().canonical()

    def describe(self, spec_config: Optional[Any] = None) -> str:
        """Render the resolved pipeline, one pass per line with options.

        When ``spec_config`` (a
        :class:`~repro.core.speculation.SpeculationConfig`) is given,
        the ``speculate`` pass line shows its effective knobs — those
        live outside the pipeline config because the runner keys them
        separately for threshold/ablation sweeps.
        """
        from repro.compiler.passes import pass_info, resolve_options

        lines = [f"pipeline {self.fingerprint()[:12]}"]
        for stage, specs in (
            ("program passes (pre-profile)", self.program_passes),
            ("codegen passes (profile -> compilation)", self.codegen_passes),
        ):
            lines.append(f"  {stage}:")
            if not specs:
                lines.append("    (none)")
            for spec in specs:
                info = pass_info(spec.name)
                options = resolve_options(info, spec)
                if spec.name == "speculate" and spec_config is not None:
                    options = {
                        **{
                            f.name: getattr(spec_config, f.name)
                            for f in dataclasses.fields(spec_config)
                        },
                        **options,
                    }
                opts = ", ".join(f"{k}={v!r}" for k, v in sorted(options.items()))
                suffix = f"  [{opts}]" if opts else ""
                lines.append(f"    {info.name:<22}{info.summary}{suffix}")
        lines.append("  verify between passes: on")
        return "\n".join(lines)


def standard_pipeline(
    *,
    optimize: bool = False,
    unroll: Optional[Tuple[str, int]] = None,
) -> PipelineConfig:
    """The default pipeline, optionally with a classical-optimisation
    and/or loop-unrolling front end.

    ``unroll`` is a ``(loop_label, factor)`` pair; the resulting config
    is exactly what the region-size experiments feed the runner.
    """
    program: Tuple[PassSpec, ...] = ()
    if optimize:
        program += (PassSpec.make("optimize"),)
    if unroll is not None:
        label, factor = unroll
        program += (PassSpec.make("unroll", label=label, factor=int(factor)),)
    return PipelineConfig(program_passes=program, codegen_passes=STANDARD_CODEGEN)
