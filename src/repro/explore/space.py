"""Design spaces: declared axes over machine + speculation parameters.

An :class:`Axis` names one swept parameter and its values; a
:class:`DesignSpace` is a base :class:`~repro.machine.spec.MachineSpec` plus a
list of axes, expanded to concrete :class:`DesignPoint` objects by
:meth:`~DesignSpace.grid` (full cross product) or
:meth:`~DesignSpace.sample` (seeded random subset).  Each point owns the
derived machine spec and the speculation config the experiments should
run with, so the driver needs no knowledge of what was swept.

Axis names (``--axis name=v1,v2,...`` on the CLI):

==========================  ================================================
name                        effect on the point
==========================  ================================================
``issue_width``             operations per VLIW instruction
``fu_scale``                multiply every FU count (+ nothing else)
``units.<class>``           one FU class count (``ialu``/``falu``/``mem``/
                            ``branch``)
``latency.<opcode>``        one opcode's latency (e.g. ``latency.load``)
``branch_penalty``          taken-branch redirect cost
``check_compare_cost``      extra cycles of the check-prediction form
``ccb_capacity``            Compensation Code Buffer entries (``none`` =
                            unbounded)
``ovb_capacity``            Operand Value Buffer entries (``none`` =
                            unbounded)
``sync_width``              Synchronization-register bits
``predictor.kind``          ``hybrid``/``stride``/``fcm``/``dfcm``/
                            ``last-value``
``predictor.table_entries`` Value Prediction Table capacity (``none`` =
                            unbounded)
``predictor.fcm_order``     (D)FCM history order
``predictor.table_bits``    (D)FCM hash-table bits
``threshold``               speculation profile threshold
``max_predictions``         predicted loads per block cap
==========================  ================================================
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Sequence, Tuple, Union

from repro.core.speculation import SpeculationConfig
from repro.ir.opcodes import FUClass, Opcode

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.machine.spec import MachineSpec

#: Axes that apply to the machine spec directly.
_MACHINE_AXES = (
    "issue_width",
    "fu_scale",
    "branch_penalty",
    "check_compare_cost",
    "ccb_capacity",
    "ovb_capacity",
    "sync_width",
)

#: Axes that apply to the speculation config.
_SPECULATION_AXES = ("threshold", "max_predictions")

_PREDICTOR_AXES = ("kind", "table_entries", "fcm_order", "table_bits")


def parse_axis_value(name: str, text: str) -> Any:
    """One CLI axis value: typed by the axis it belongs to."""
    if text.lower() in ("none", "inf", "unbounded"):
        return None
    if name == "predictor.kind":
        return text
    if name == "threshold":
        return float(text)
    return int(text)


@dataclass(frozen=True)
class Axis:
    """One swept parameter: a name from the table above plus its values."""

    name: str
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        validate_axis_name(self.name)
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")
        object.__setattr__(self, "values", tuple(self.values))

    @classmethod
    def parse(cls, text: str) -> "Axis":
        """``name=v1,v2,...`` (the CLI form)."""
        if "=" not in text:
            raise ValueError(
                f"bad axis {text!r}: expected name=v1,v2,... "
                "(e.g. issue_width=2,4,8)"
            )
        name, _, values = text.partition("=")
        name = name.strip()
        return cls(
            name,
            tuple(
                parse_axis_value(name, v.strip())
                for v in values.split(",")
                if v.strip()
            ),
        )


def validate_axis_name(name: str) -> None:
    if name in _MACHINE_AXES or name in _SPECULATION_AXES:
        return
    if name.startswith("units."):
        FUClass(name.split(".", 1)[1])  # raises ValueError on bad class
        return
    if name.startswith("latency."):
        Opcode(name.split(".", 1)[1])  # raises ValueError on bad opcode
        return
    if name.startswith("predictor."):
        field = name.split(".", 1)[1]
        if field in _PREDICTOR_AXES:
            return
        raise ValueError(
            f"unknown predictor axis {name!r}; "
            f"known: {', '.join('predictor.' + f for f in _PREDICTOR_AXES)}"
        )
    raise ValueError(
        f"unknown axis {name!r}; known: "
        + ", ".join(
            (*_MACHINE_AXES, *_SPECULATION_AXES,
             "units.<class>", "latency.<opcode>", "predictor.<field>")
        )
    )


@dataclass(frozen=True)
class DesignPoint:
    """One concrete configuration of the swept space.

    ``label`` is deterministic over the axis assignment (it doubles as
    the report row key); ``spec`` carries the derived machine and
    ``spec_config`` the speculation knobs the experiments run with.
    """

    label: str
    spec: MachineSpec
    spec_config: SpeculationConfig
    assignment: Tuple[Tuple[str, Any], ...]

    def fingerprint(self) -> str:
        return self.spec.fingerprint()


@dataclass(frozen=True)
class InvalidPoint:
    """An axis assignment that names no valid configuration.

    A swept value the machine spec or its predictor rejects (say
    ``issue_width=0`` or ``predictor.table_bits=31``) expands to this
    instead of a :class:`DesignPoint`; the sweep prunes it with reason
    ``"invalid"`` and the validation ``error``'s message, and runs the
    other points.
    """

    label: str
    error: ValueError


def _apply(
    base: MachineSpec,
    config: SpeculationConfig,
    name: str,
    value: Any,
) -> Tuple[MachineSpec, SpeculationConfig]:
    if name == "fu_scale":
        units = {fu: n * int(value) for fu, n in base.units.items()}
        return dataclasses.replace(base, units=units), config
    if name in ("issue_width", "branch_penalty", "check_compare_cost",
                "sync_width"):
        return dataclasses.replace(base, **{name: int(value)}), config
    if name in ("ccb_capacity", "ovb_capacity"):
        return (
            dataclasses.replace(
                base, **{name: None if value is None else int(value)}
            ),
            config,
        )
    if name.startswith("units."):
        fu = FUClass(name.split(".", 1)[1])
        units = dict(base.units)
        units[fu] = int(value)
        return dataclasses.replace(base, units=units), config
    if name.startswith("latency."):
        return base.with_latency(Opcode(name.split(".", 1)[1]), int(value)), config
    if name.startswith("predictor."):
        field = name.split(".", 1)[1]
        predictor = dataclasses.replace(base.predictor, **{field: value})
        return dataclasses.replace(base, predictor=predictor), config
    if name == "threshold":
        return base, dataclasses.replace(config, threshold=float(value))
    if name == "max_predictions":
        return base, dataclasses.replace(config, max_predictions=int(value))
    raise ValueError(f"unknown axis {name!r}")  # pragma: no cover - validated


def _format_value(value: Any) -> str:
    if value is None:
        return "inf"
    return str(value)


def _label(assignment: Sequence[Tuple[str, Any]]) -> str:
    """A point's label: deterministic over its axis assignment."""
    return (
        "/".join(f"{name}={_format_value(value)}" for name, value in assignment)
        or "base"
    )


@dataclass(frozen=True)
class DesignSpace:
    """A base machine spec plus the axes swept around it."""

    base: MachineSpec
    axes: Tuple[Axis, ...]
    base_config: SpeculationConfig = SpeculationConfig()

    def __post_init__(self) -> None:
        seen = set()
        for axis in self.axes:
            if axis.name in seen:
                raise ValueError(f"axis {axis.name!r} declared twice")
            seen.add(axis.name)
        object.__setattr__(self, "axes", tuple(self.axes))

    def point(
        self, assignment: Sequence[Tuple[str, Any]]
    ) -> Union[DesignPoint, InvalidPoint]:
        """The concrete point for one ``(axis, value)`` assignment, or an
        :class:`InvalidPoint` when a value makes the machine spec or the
        speculation config invalid."""
        label = _label(assignment)
        spec = self.base
        config = self.base_config
        try:
            for name, value in assignment:
                spec, config = _apply(spec, config, name, value)
        except ValueError as exc:
            return InvalidPoint(label=label, error=exc)
        # The machine is renamed from the *machine* axes only: points
        # differing purely in speculation knobs share one machine
        # fingerprint, so their compile/simulate jobs dedupe on the
        # machine exactly as a threshold ablation does today.
        machine_label = "/".join(
            f"{name}={_format_value(value)}"
            for name, value in assignment
            if name not in _SPECULATION_AXES
        )
        if machine_label:
            spec = dataclasses.replace(
                spec, name=f"{self.base.name}@{machine_label}"
            )
        return DesignPoint(
            label=label,
            spec=spec,
            spec_config=config,
            assignment=tuple(assignment),
        )

    def grid(self) -> List[Union[DesignPoint, InvalidPoint]]:
        """The full cross product of every axis (deterministic order);
        assignments with a rejected value are :class:`InvalidPoint` entries."""
        if not self.axes:
            return [self.point(())]
        names = [axis.name for axis in self.axes]
        return [
            self.point(tuple(zip(names, combo)))
            for combo in itertools.product(
                *(axis.values for axis in self.axes)
            )
        ]

    def sample(
        self, count: int, seed: int = 0
    ) -> List[Union[DesignPoint, InvalidPoint]]:
        """``count`` distinct points drawn uniformly from the grid.

        Seeded and stateless — the same (space, count, seed) always
        yields the same points, so sampled sweeps are reproducible and
        cache-stable.
        """
        full = self.grid()
        if count >= len(full):
            return full
        rng = random.Random(seed)
        picked = rng.sample(range(len(full)), count)
        return [full[i] for i in sorted(picked)]

    @property
    def size(self) -> int:
        size = 1
        for axis in self.axes:
            size *= len(axis.values)
        return size
