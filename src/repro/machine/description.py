"""Machine descriptions: issue width, functional units and latencies.

This module stands in for the HPL-PD machine-description (MDES) files of
Trimaran.  A description answers two questions for the schedulers and the
execution engines: *where* can an opcode execute (``fu_class``) and *how
long* does it take (``latency``).

The paper modifies the machine description rather than adding functional
units (section 3): the check-prediction form runs on a memory unit with
the latency of the original load plus compare semantics, and ``LdPred``
runs on an integer unit like a move whose source is the value predictor.
Those choices are encoded in :meth:`MachineDescription.latency`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from repro.ir.opcodes import FUClass, Opcode, fu_class
from repro.machine.predictor import PredictorSpec
from repro.machine.resources import FUPool

#: Default operation latencies, in cycles.  Unit-latency integer ALU ops
#: and 3-cycle loads match the worked example of the paper (Figure 2);
#: the remaining entries follow common HPL-PD settings.
DEFAULT_LATENCIES: Mapping[Opcode, int] = {
    Opcode.MUL: 3,
    Opcode.DIV: 8,
    Opcode.MOD: 8,
    Opcode.FADD: 2,
    Opcode.FSUB: 2,
    Opcode.FMUL: 3,
    Opcode.FDIV: 8,
    Opcode.FSQRT: 12,
    Opcode.LOAD: 3,
    Opcode.STORE: 1,
    Opcode.BR: 1,
    Opcode.BRCOND: 1,
    Opcode.HALT: 1,
    Opcode.LDPRED: 1,
    # CHKPRED latency is derived from LOAD (plus optional compare cost)
    # inside MachineDescription.latency.
}


@dataclass(frozen=True)
class MachineDescription:
    """A VLIW machine configuration.

    Attributes:
        name: human-readable configuration name (e.g. ``playdoh-4w``).
        issue_width: operations per VLIW instruction.
        pool: functional-unit pool.
        latencies: per-opcode latency overrides; opcodes absent from the
            mapping default to 1 cycle.
        branch_penalty: cycles lost on a taken branch redirect; only the
            statically-scheduled recovery baseline (reference [4] of the
            paper) pays this, since the proposed architecture adds no
            recovery branches.
        check_compare_cost: extra cycles the check-prediction form spends
            comparing the loaded value against the prediction (0 keeps the
            paper's worked-example timing, where the check completes with
            the load's own latency).
        ccb_capacity: Compensation Code Buffer entries; ``None`` models the
            paper's unbounded buffer.
        ovb_capacity: Operand Value Buffer entries; ``None`` is unbounded.
        sync_width: Synchronization-register width in bits.
        predictor: the hardware value predictor this machine ships.
    """

    name: str
    issue_width: int
    pool: FUPool
    latencies: Mapping[Opcode, int] = field(default_factory=lambda: dict(DEFAULT_LATENCIES))
    branch_penalty: int = 2
    check_compare_cost: int = 0
    ccb_capacity: Optional[int] = None
    ovb_capacity: Optional[int] = None
    sync_width: int = 64
    predictor: PredictorSpec = field(default_factory=PredictorSpec)

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise ValueError("issue width must be positive")
        if self.pool.total < 1:
            raise ValueError("machine needs at least one functional unit")
        for opcode, lat in self.latencies.items():
            if lat < 1:
                raise ValueError(f"latency of {opcode.value} must be >= 1")
        for label, capacity in (
            ("ccb_capacity", self.ccb_capacity),
            ("ovb_capacity", self.ovb_capacity),
        ):
            if capacity is not None and capacity < 1:
                raise ValueError(f"{label} must be positive or None")
        if self.sync_width < 1:
            raise ValueError("sync_width must be positive")
        # Canonical latency order: a machine rebuilt from its spec's
        # canonical JSON must be byte-identical (pickle included) to the
        # original, whatever order the caller's mapping carried.
        object.__setattr__(
            self,
            "latencies",
            dict(sorted(self.latencies.items(), key=lambda kv: kv[0].value)),
        )

    # -- queries -----------------------------------------------------------

    def latency(self, opcode: Opcode) -> int:
        """Cycles from issue to result availability for ``opcode``."""
        if opcode is Opcode.CHKPRED:
            return self.latencies.get(Opcode.LOAD, 1) + self.check_compare_cost
        return self.latencies.get(opcode, 1)

    def fu_class(self, opcode: Opcode) -> FUClass:
        return fu_class(opcode)

    def units(self, fu: FUClass) -> int:
        return self.pool.count(fu)

    def spec(self):
        """The declarative :class:`repro.machine.spec.MachineSpec` form of
        this description (lossless; ``spec().build()`` round-trips)."""
        from repro.machine.spec import MachineSpec

        return MachineSpec.from_description(self)

    def fingerprint(self) -> str:
        """Stable content hash of the canonical spec form.  Runner job
        keys address machines by this."""
        return self.spec().fingerprint()

    # -- derivation ----------------------------------------------------------

    def widened(self, factor: int, name: Optional[str] = None) -> "MachineDescription":
        """A machine with ``factor``-times the issue width and units.

        This is how the Table 4 experiment derives the 8-wide machine from
        the 4-wide one.
        """
        return replace(
            self,
            name=name or f"{self.name}-x{factor}",
            issue_width=self.issue_width * factor,
            pool=self.pool.scaled(factor),
        )

    def with_latency(self, opcode: Opcode, cycles: int) -> "MachineDescription":
        new = dict(self.latencies)
        new[opcode] = cycles
        return replace(self, latencies=new)

    def __str__(self) -> str:
        return f"{self.name}: {self.issue_width}-wide, units {self.pool}"
