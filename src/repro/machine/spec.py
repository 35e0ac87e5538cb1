"""Declarative, serialisable machine specifications.

A :class:`MachineSpec` is the *data* form of a VLIW machine
configuration: issue width, functional-unit pool, per-opcode latencies,
branch penalty, Compensation-Code-Buffer and Operand-Value-Buffer
capacities, Synchronization-register width, the value-predictor choice
plus table geometry, and (optionally) non-default speculation-pass
defaults.  It mirrors :class:`repro.compiler.config.PipelineConfig`: specs are
frozen dataclasses with a canonical JSON-primitive form
(:meth:`canonical`) and a stable content hash (:meth:`fingerprint`) that
addresses runner cache entries.

The runtime object the schedulers and engines consume remains
:class:`repro.machine.description.MachineDescription`; :meth:`build`
materialises one and :meth:`from_description` recovers the spec, and the
two round-trip losslessly.  Specs load from JSON or TOML files
(:func:`load_spec`), so machine configurations can live beside the code
as reviewable data and be swept by :mod:`repro.explore`.

The spec *name* is part of the canonical form: simulation results embed
the machine name (``ProgramSimResult.machine_name``), so two otherwise
identical machines with different names must not share cache entries.
In-process compile products are keyed on :meth:`MachineSpec.timing_key`
instead, which leaves out the name and the predictor.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.ir.opcodes import FUClass, Opcode
from repro.machine.description import DEFAULT_LATENCIES, MachineDescription
from repro.machine.predictor import PredictorSpec
from repro.machine.resources import FUPool

#: Bump when the canonical serialisation changes shape.  Part of every
#: fingerprint, hence of every runner cache key and wire payload.
MACHINE_SCHEMA_VERSION = 1

#: Canonical-form fields a spec file may set (everything else is rejected
#: loudly rather than silently ignored).
_FIELDS = (
    "name",
    "issue_width",
    "units",
    "latencies",
    "branch_penalty",
    "check_compare_cost",
    "ccb_capacity",
    "ovb_capacity",
    "sync_width",
    "predictor",
    "speculation",
)

#: Canonical-form fields that compiled code and its dual-engine timing
#: never read.  The name only labels results, and the value predictor is
#: run-time hardware: it decides which correctness pattern a block
#: instance takes, not what any pattern costs.
_UNTIMED_FIELDS = ("name", "predictor")

#: Speculation defaults a spec may carry (mirrors
#: :class:`repro.core.speculation.SpeculationConfig`).
_SPECULATION_FIELDS = (
    "threshold",
    "max_predictions",
    "sync_width",
    "min_profile_executions",
    "speculate_liveout",
    "predict_alu",
)


def _default_latencies() -> Dict[Opcode, int]:
    return dict(DEFAULT_LATENCIES)


@dataclass(frozen=True)
class MachineSpec:
    """One machine configuration as canonical, serialisable data.

    Attributes:
        name: configuration name; embedded in simulation results, so it
            is part of the fingerprint.
        issue_width: operations per VLIW instruction.
        units: functional-unit counts per :class:`FUClass`.
        latencies: per-opcode latencies; absent opcodes default to 1.
        branch_penalty: taken-branch redirect cost (baseline machine).
        check_compare_cost: extra cycles of the check-prediction form.
        ccb_capacity: Compensation Code Buffer entries (None = unbounded,
            the paper's simulation).
        ovb_capacity: Operand Value Buffer entries (None = unbounded).
        sync_width: Synchronization-register width in bits; caps how many
            values a block may have in flight speculatively.
        predictor: hardware value-predictor choice + table geometry.
        speculation: non-default speculation-pass knobs, as a plain
            mapping over :data:`_SPECULATION_FIELDS` (None = the pass
            defaults).  Experiments may still override per run; this is
            the machine's *default* configuration, which the explore
            driver sweeps.
    """

    name: str
    issue_width: int
    units: Mapping[FUClass, int]
    latencies: Mapping[Opcode, int] = field(default_factory=_default_latencies)
    branch_penalty: int = 2
    check_compare_cost: int = 0
    ccb_capacity: Optional[int] = None
    ovb_capacity: Optional[int] = None
    sync_width: int = 64
    predictor: PredictorSpec = field(default_factory=PredictorSpec)
    speculation: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        self.validate()

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Raise ``ValueError`` on any inconsistent field combination."""
        if not self.name:
            raise ValueError("machine spec needs a non-empty name")
        if self.issue_width < 1:
            raise ValueError("issue width must be positive")
        for fu, count in self.units.items():
            if not isinstance(fu, FUClass):
                raise ValueError(f"unit key {fu!r} is not a FUClass")
            if count < 0:
                raise ValueError(f"negative unit count for {fu.value}")
        if sum(self.units.values()) < 1:
            raise ValueError("machine needs at least one functional unit")
        for opcode, lat in self.latencies.items():
            if not isinstance(opcode, Opcode):
                raise ValueError(f"latency key {opcode!r} is not an Opcode")
            if lat < 1:
                raise ValueError(f"latency of {opcode.value} must be >= 1")
        if self.branch_penalty < 0:
            raise ValueError("branch penalty cannot be negative")
        if self.check_compare_cost < 0:
            raise ValueError("check compare cost cannot be negative")
        for label, capacity in (
            ("ccb_capacity", self.ccb_capacity),
            ("ovb_capacity", self.ovb_capacity),
        ):
            if capacity is not None and capacity < 1:
                raise ValueError(f"{label} must be positive or None")
        if self.sync_width < 1:
            raise ValueError("sync_width must be positive")
        if self.speculation is not None:
            unknown = set(self.speculation) - set(_SPECULATION_FIELDS)
            if unknown:
                raise ValueError(
                    "unknown speculation field(s): "
                    + ", ".join(sorted(str(u) for u in unknown))
                )

    # -- canonical form / fingerprint -------------------------------------

    def canonical(self) -> Dict[str, Any]:
        """JSON-primitive form: enum keys become their string values,
        floats go through ``repr`` so the hash sees full precision."""
        speculation: Optional[Dict[str, Any]] = None
        if self.speculation is not None:
            speculation = {}
            for key in sorted(self.speculation):
                value = self.speculation[key]
                speculation[key] = repr(value) if isinstance(value, float) else value
        return {
            "schema": MACHINE_SCHEMA_VERSION,
            "name": self.name,
            "issue_width": self.issue_width,
            "units": {
                fu.value: count
                for fu, count in sorted(self.units.items(), key=lambda kv: kv[0].value)
                if count
            },
            "latencies": {
                op.value: lat
                for op, lat in sorted(self.latencies.items(), key=lambda kv: kv[0].value)
            },
            "branch_penalty": self.branch_penalty,
            "check_compare_cost": self.check_compare_cost,
            "ccb_capacity": self.ccb_capacity,
            "ovb_capacity": self.ovb_capacity,
            "sync_width": self.sync_width,
            "predictor": self.predictor.canonical(),
            "speculation": speculation,
        }

    def fingerprint(self) -> str:
        """Stable content hash of the canonical form."""
        text = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def timing_key(self) -> str:
        """Content hash of the canonical form without :data:`_UNTIMED_FIELDS`.

        Schedules and per-pattern dual-engine timings depend on the
        machine only through this key, so machines that differ only in
        name or predictor share them.  The untimed fields are *dropped*
        rather than the timed ones listed, so a field added later is
        part of the key by default.
        """
        timed = {
            key: value
            for key, value in self.canonical().items()
            if key not in _UNTIMED_FIELDS
        }
        text = json.dumps(timed, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.canonical(), indent=indent, sort_keys=True) + "\n"

    # -- parsing -----------------------------------------------------------

    @classmethod
    def from_canonical(cls, payload: Mapping[str, Any]) -> "MachineSpec":
        """Parse the canonical (or a hand-written spec-file) mapping.

        Unknown fields raise; a ``schema`` newer than this code refuses
        loudly rather than guessing.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(f"machine spec must be a mapping, got {payload!r}")
        data = dict(payload)
        schema = data.pop("schema", MACHINE_SCHEMA_VERSION)
        if schema != MACHINE_SCHEMA_VERSION:
            raise ValueError(
                f"machine spec schema v{schema} is not supported "
                f"(this code reads v{MACHINE_SCHEMA_VERSION})"
            )
        unknown = set(data) - set(_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown machine spec field(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(_FIELDS)}"
            )
        if "name" not in data or "issue_width" not in data or "units" not in data:
            raise ValueError("machine spec needs at least name, issue_width, units")
        try:
            units = {FUClass(k): int(v) for k, v in dict(data["units"]).items()}
        except ValueError as exc:
            raise ValueError(
                f"bad unit class in spec: {exc}; "
                f"known: {', '.join(f.value for f in FUClass)}"
            ) from None
        kwargs: Dict[str, Any] = {
            "name": data["name"],
            "issue_width": int(data["issue_width"]),
            "units": units,
        }
        if "latencies" in data:
            try:
                kwargs["latencies"] = {
                    Opcode(k): int(v) for k, v in dict(data["latencies"]).items()
                }
            except ValueError as exc:
                raise ValueError(f"bad opcode in spec latencies: {exc}") from None
        for name in (
            "branch_penalty",
            "check_compare_cost",
            "ccb_capacity",
            "ovb_capacity",
            "sync_width",
        ):
            if name in data and data[name] is not None:
                kwargs[name] = int(data[name])
            elif name in data:
                kwargs[name] = None
        if data.get("predictor") is not None:
            kwargs["predictor"] = PredictorSpec.from_canonical(dict(data["predictor"]))
        if data.get("speculation") is not None:
            speculation = dict(data["speculation"])
            for key, value in speculation.items():
                # Canonical floats travel as repr() strings.
                if isinstance(value, str) and key == "threshold":
                    speculation[key] = float(value)
            kwargs["speculation"] = speculation
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "MachineSpec":
        return cls.from_canonical(json.loads(text))

    @classmethod
    def from_description(cls, machine: MachineDescription) -> "MachineSpec":
        """The spec form of a runtime description (lossless round-trip)."""
        return cls(
            name=machine.name,
            issue_width=machine.issue_width,
            units=dict(machine.pool.counts),
            latencies=dict(machine.latencies),
            branch_penalty=machine.branch_penalty,
            check_compare_cost=machine.check_compare_cost,
            ccb_capacity=machine.ccb_capacity,
            ovb_capacity=machine.ovb_capacity,
            sync_width=machine.sync_width,
            predictor=machine.predictor,
        )

    # -- materialisation ---------------------------------------------------

    def build(self) -> MachineDescription:
        """The runtime :class:`MachineDescription` this spec describes."""
        return MachineDescription(
            name=self.name,
            issue_width=self.issue_width,
            pool=FUPool(dict(self.units)),
            latencies=dict(self.latencies),
            branch_penalty=self.branch_penalty,
            check_compare_cost=self.check_compare_cost,
            ccb_capacity=self.ccb_capacity,
            ovb_capacity=self.ovb_capacity,
            sync_width=self.sync_width,
            predictor=self.predictor,
        )

    def spec_config(self):
        """The :class:`~repro.core.speculation.SpeculationConfig` this
        machine defaults to: the pass defaults overlaid with the spec's
        ``speculation`` mapping, with the allocator width capped by the
        hardware ``sync_width``."""
        from repro.core.speculation import SpeculationConfig

        overrides = dict(self.speculation or {})
        config = SpeculationConfig(**overrides)
        if config.sync_width > self.sync_width:
            config = dataclasses.replace(config, sync_width=self.sync_width)
        return config

    # -- derivation --------------------------------------------------------

    def widened(self, factor: int, name: Optional[str] = None) -> "MachineSpec":
        """``factor``-times the issue width and every unit count (how the
        paper derives the 8-wide machine for Table 4)."""
        if factor < 1:
            raise ValueError("scale factor must be >= 1")
        return dataclasses.replace(
            self,
            name=name or f"{self.name}-x{factor}",
            issue_width=self.issue_width * factor,
            units={fu: n * factor for fu, n in self.units.items()},
        )

    def with_latency(self, opcode: Opcode, cycles: int) -> "MachineSpec":
        new = dict(self.latencies)
        new[opcode] = cycles
        return dataclasses.replace(self, latencies=new)

    def with_units(self, **counts: int) -> "MachineSpec":
        """Override unit counts by class name, e.g. ``with_units(mem=2)``."""
        units = dict(self.units)
        for key, count in counts.items():
            units[FUClass(key)] = count
        return dataclasses.replace(self, units=units)

    def override(self, **fields: Any) -> "MachineSpec":
        """``dataclasses.replace`` with speculation-mapping merge semantics:
        ``speculation`` overrides merge into (rather than replace) the
        current mapping, and any field change re-validates."""
        if "speculation" in fields and fields["speculation"] is not None:
            merged = dict(self.speculation or {})
            merged.update(fields["speculation"])
            fields["speculation"] = merged
        return dataclasses.replace(self, **fields)

    def __str__(self) -> str:
        units = "+".join(
            f"{fu.value}x{n}"
            for fu, n in sorted(self.units.items(), key=lambda kv: kv[0].value)
            if n
        )
        return (
            f"{self.name}: {self.issue_width}-wide, units {units or '(empty)'}, "
            f"predictor {self.predictor}, fingerprint {self.fingerprint()[:12]}"
        )


# -- spec files ---------------------------------------------------------------


def load_spec(path: Union[str, Path]) -> MachineSpec:
    """Load a machine spec from a ``.json`` or ``.toml`` file.

    TOML needs ``tomllib`` (Python 3.11+); on older interpreters a TOML
    spec raises a clear error instead of an obscure import failure.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError:  # pragma: no cover - py3.10 fallback path
            raise ValueError(
                f"{path}: TOML machine specs need Python 3.11+ (tomllib); "
                "convert the spec to JSON for older interpreters"
            ) from None
        payload = tomllib.loads(text)
    else:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    try:
        return MachineSpec.from_canonical(payload)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def machine_fingerprint(machine: Union[MachineSpec, MachineDescription]) -> str:
    """The content-hash fingerprint of a spec *or* a runtime description.

    This is what runner job keys address machines by.
    """
    if isinstance(machine, MachineSpec):
        return machine.fingerprint()
    return MachineSpec.from_description(machine).fingerprint()
