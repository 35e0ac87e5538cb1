"""A relative hardware-cost model for swept machine configurations.

The explore driver needs a second objective beside speedup to make a
Pareto frontier meaningful: a bigger machine is (almost) always faster,
so "fastest" alone degenerates to "largest".  This model assigns every
:class:`~repro.machine.spec.MachineSpec` a dimensionless *cost* — an additive
area/complexity proxy in "unit-equivalents", deliberately simple and
fully documented so frontier plots are interpretable:

* each functional unit costs its class weight (FALU and MEM units are
  several times an integer ALU, branch units slightly less);
* issue width costs per slot (decode/dispatch and register-file ports
  grow with width);
* the value-prediction hardware costs per predictor-table entry and per
  (D)FCM history-table entry (``2**table_bits``), scaled down because a
  table entry is far smaller than a functional unit; an unbounded table
  is priced at :data:`UNBOUNDED_TABLE_ENTRIES`;
* the CCB, OVB and Synchronization register cost per entry/bit; unbounded
  buffers are priced at :data:`UNBOUNDED_BUFFER_ENTRIES`.

Absolute numbers are meaningless; *ratios between configurations of one
sweep* are what the frontier uses.  All weights are keyword overridable
for sensitivity studies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.ir.opcodes import FUClass

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.machine.predictor import PredictorSpec
    from repro.machine.spec import MachineSpec

#: Per-unit weights, in integer-ALU equivalents.
DEFAULT_UNIT_WEIGHTS: Mapping[FUClass, float] = {
    FUClass.IALU: 1.0,
    FUClass.FALU: 4.0,
    FUClass.MEM: 3.0,
    FUClass.BRANCH: 0.5,
}

#: Cost of one issue slot (decode + ports).
ISSUE_SLOT_WEIGHT = 0.5

#: Cost of one value-prediction-table entry (tag + value + chooser state).
VPT_ENTRY_WEIGHT = 0.002

#: Cost of one (D)FCM history/hash-table entry.
FCM_ENTRY_WEIGHT = 0.0005

#: Cost of one CCB entry (a buffered operation + bookkeeping).
CCB_ENTRY_WEIGHT = 0.01

#: Cost of one OVB entry (value + state machine).
OVB_ENTRY_WEIGHT = 0.01

#: Cost of one Synchronization-register bit.
SYNC_BIT_WEIGHT = 0.005

#: What "unbounded" is priced as. The paper simulates unbounded buffers;
#: a real implementation would bound them, so unbounded configurations
#: are charged a large-but-finite reference size rather than infinity
#: (which would make every paper machine incomparable).
UNBOUNDED_TABLE_ENTRIES = 4096
UNBOUNDED_BUFFER_ENTRIES = 256


def predictor_cost(
    predictor: PredictorSpec,
    vpt_entry_weight: float = VPT_ENTRY_WEIGHT,
    fcm_entry_weight: float = FCM_ENTRY_WEIGHT,
) -> float:
    """Prediction-hardware cost: table entries + per-kind structures."""
    entries = (
        predictor.table_entries
        if predictor.table_entries is not None
        else UNBOUNDED_TABLE_ENTRIES
    )
    cost = entries * vpt_entry_weight
    if predictor.kind in ("fcm", "dfcm", "hybrid"):
        cost += (2 ** predictor.table_bits) * fcm_entry_weight
    if predictor.kind == "hybrid":
        # The stride component + chooser counters ride on the same table.
        cost += entries * vpt_entry_weight * 0.5
    return cost


def machine_cost(spec: MachineSpec, **overrides: float) -> float:
    """The total relative cost of one machine configuration.

    Weight overrides (``issue_slot_weight=...``, ``ccb_entry_weight=...``,
    ``ovb_entry_weight=...``, ``sync_bit_weight=...``,
    ``vpt_entry_weight=...``, ``fcm_entry_weight=...``) allow sensitivity
    studies without editing the module constants.
    """
    issue_slot = overrides.get("issue_slot_weight", ISSUE_SLOT_WEIGHT)
    ccb_entry = overrides.get("ccb_entry_weight", CCB_ENTRY_WEIGHT)
    ovb_entry = overrides.get("ovb_entry_weight", OVB_ENTRY_WEIGHT)
    sync_bit = overrides.get("sync_bit_weight", SYNC_BIT_WEIGHT)

    cost = 0.0
    for fu, count in spec.units.items():
        cost += DEFAULT_UNIT_WEIGHTS.get(fu, 1.0) * count
    cost += spec.issue_width * issue_slot
    ccb = spec.ccb_capacity if spec.ccb_capacity is not None else UNBOUNDED_BUFFER_ENTRIES
    ovb = spec.ovb_capacity if spec.ovb_capacity is not None else UNBOUNDED_BUFFER_ENTRIES
    cost += ccb * ccb_entry
    cost += ovb * ovb_entry
    cost += spec.sync_width * sync_bit
    cost += predictor_cost(
        spec.predictor,
        vpt_entry_weight=overrides.get("vpt_entry_weight", VPT_ENTRY_WEIGHT),
        fcm_entry_weight=overrides.get("fcm_entry_weight", FCM_ENTRY_WEIGHT),
    )
    return cost
