"""Declarative machine specs: round-trips, fingerprints, registry."""

from __future__ import annotations

import json
import pickle
import sys

import pytest

from repro.ir.opcodes import FUClass, Opcode
from repro.machine.configs import (
    PLAYDOH_4W,
    PLAYDOH_4W_SPEC,
    PLAYDOH_8W,
    PLAYDOH_8W_SPEC,
    UNLIMITED,
    UNLIMITED_SPEC,
    by_name,
    register_machine,
    registry_names,
    spec_by_name,
)
from repro.machine.description import MachineDescription
from repro.machine.predictor import PredictorSpec
from repro.machine.resources import FUPool
from repro.machine.spec import (
    MACHINE_SCHEMA_VERSION,
    MachineSpec,
    load_spec,
    machine_fingerprint,
)

#: Golden content hashes of the paper's machines.  These are embedded in
#: runner cache keys and service wire payloads — if one changes, every
#: cached result is (correctly) invalidated, so a change here must be
#: deliberate, reviewed, and ride a CODE_VERSION discussion.
GOLDEN_FINGERPRINTS = {
    "playdoh-4w": "92347e582e2766e2dcdc0a9b51ebd7644e4589c8d94bed1b3ba1c558b1ad7efb",
    "playdoh-8w": "9bc5d47b7c7474b6324490b733ae33332167bcc1c5f44f89e13fb74d4f85f13b",
    "unlimited": "994ed0376863eafc18b23c95743faf9288004ceb5f3b3204128862241eaf2440",
}


class TestFingerprint:
    def test_golden_fingerprints(self):
        for name, expected in GOLDEN_FINGERPRINTS.items():
            assert spec_by_name(name).fingerprint() == expected, name

    def test_fingerprint_is_stable_across_calls(self):
        assert PLAYDOH_4W_SPEC.fingerprint() == PLAYDOH_4W_SPEC.fingerprint()

    def test_name_is_part_of_fingerprint(self):
        renamed = PLAYDOH_4W_SPEC.override(name="other")
        assert renamed.fingerprint() != PLAYDOH_4W_SPEC.fingerprint()

    def test_every_field_moves_the_fingerprint(self):
        base = PLAYDOH_4W_SPEC
        variants = [
            base.override(issue_width=5),
            base.with_units(mem=2),
            base.with_latency(Opcode.LOAD, 7),
            base.override(branch_penalty=3),
            base.override(check_compare_cost=1),
            base.override(ccb_capacity=8),
            base.override(ovb_capacity=8),
            base.override(sync_width=32),
            base.override(predictor=PredictorSpec(kind="stride")),
            base.override(speculation={"threshold": 0.8}),
        ]
        prints = {v.fingerprint() for v in variants}
        assert len(prints) == len(variants)
        assert base.fingerprint() not in prints

    def test_machine_fingerprint_spec_and_description_agree(self):
        assert machine_fingerprint(PLAYDOH_4W_SPEC) == machine_fingerprint(
            PLAYDOH_4W
        )

    def test_description_fingerprint_method(self):
        assert PLAYDOH_4W.fingerprint() == PLAYDOH_4W_SPEC.fingerprint()

    def test_memoised_fingerprint_stays_out_of_the_pickle(self):
        machine = PLAYDOH_4W_SPEC.override(name="fresh").build()
        before = pickle.dumps(machine)
        machine.fingerprint()
        assert pickle.dumps(machine) == before

    def test_memoised_fingerprint_follows_derivations(self):
        # dataclasses.replace builds a new instance: no stale memo.
        machine = PLAYDOH_4W_SPEC.build()
        machine.fingerprint()
        widened = machine.widened(2, name="wide")
        assert widened.fingerprint() == widened.spec().fingerprint()
        assert widened.fingerprint() != machine.fingerprint()


class TestRoundTrips:
    def rich_spec(self) -> MachineSpec:
        return MachineSpec(
            name="rich",
            issue_width=6,
            units={FUClass.IALU: 3, FUClass.MEM: 2, FUClass.BRANCH: 1},
            branch_penalty=3,
            check_compare_cost=1,
            ccb_capacity=16,
            ovb_capacity=8,
            sync_width=32,
            predictor=PredictorSpec(kind="fcm", table_entries=1024, fcm_order=3),
            speculation={"threshold": 0.75, "max_predictions": 2},
        ).with_latency(Opcode.LOAD, 5)

    def test_json_round_trip(self):
        for spec in (PLAYDOH_4W_SPEC, UNLIMITED_SPEC, self.rich_spec()):
            restored = MachineSpec.from_json(spec.to_json())
            assert restored == spec
            assert restored.fingerprint() == spec.fingerprint()

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "rich.json"
        path.write_text(self.rich_spec().to_json(), encoding="utf-8")
        assert load_spec(path) == self.rich_spec()

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="TOML specs need tomllib (3.11+)"
    )
    def test_toml_file_round_trip(self, tmp_path):
        spec = self.rich_spec()
        lines = [
            f'name = "{spec.name}"',
            f"issue_width = {spec.issue_width}",
            f"branch_penalty = {spec.branch_penalty}",
            f"check_compare_cost = {spec.check_compare_cost}",
            f"ccb_capacity = {spec.ccb_capacity}",
            f"ovb_capacity = {spec.ovb_capacity}",
            f"sync_width = {spec.sync_width}",
            "[units]",
        ]
        lines += [f"{fu.value} = {n}" for fu, n in spec.units.items()]
        lines.append("[latencies]")
        lines += [f'"{op.value}" = {n}' for op, n in spec.latencies.items()]
        lines.append("[predictor]")
        lines += [
            f'kind = "{spec.predictor.kind}"',
            f"table_entries = {spec.predictor.table_entries}",
            f"fcm_order = {spec.predictor.fcm_order}",
            f"table_bits = {spec.predictor.table_bits}",
            f"counter_max = {spec.predictor.counter_max}",
            "[speculation]",
            "threshold = 0.75",
            "max_predictions = 2",
        ]
        path = tmp_path / "rich.toml"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert load_spec(path) == spec

    def test_description_round_trip_lossless(self):
        for constant in (PLAYDOH_4W, PLAYDOH_8W, UNLIMITED):
            spec = MachineSpec.from_description(constant)
            rebuilt = spec.build()
            assert rebuilt == constant
            # Byte-identity matters: service workers rebuild machines from
            # wire specs and results must pickle identically to local runs.
            assert pickle.dumps(rebuilt) == pickle.dumps(constant)

    def test_build_equals_registry_constant(self):
        assert PLAYDOH_4W_SPEC.build() == PLAYDOH_4W
        assert PLAYDOH_8W_SPEC.build() == PLAYDOH_8W
        assert UNLIMITED_SPEC.build() == UNLIMITED


class TestValidation:
    def test_rejects_empty_name(self):
        with pytest.raises(ValueError, match="name"):
            MachineSpec(name="", issue_width=4, units={FUClass.IALU: 1})

    def test_rejects_zero_issue_width(self):
        with pytest.raises(ValueError, match="issue width"):
            MachineSpec(name="x", issue_width=0, units={FUClass.IALU: 1})

    def test_rejects_no_units(self):
        with pytest.raises(ValueError, match="functional unit"):
            MachineSpec(name="x", issue_width=4, units={FUClass.IALU: 0})

    def test_rejects_bad_latency(self):
        with pytest.raises(ValueError, match="latency"):
            MachineSpec(
                name="x",
                issue_width=4,
                units={FUClass.IALU: 1},
                latencies={Opcode.LOAD: 0},
            )

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError, match="ccb_capacity"):
            MachineSpec(
                name="x", issue_width=4, units={FUClass.IALU: 1}, ccb_capacity=0
            )

    def test_rejects_unknown_speculation_field(self):
        with pytest.raises(ValueError, match="speculation"):
            MachineSpec(
                name="x",
                issue_width=4,
                units={FUClass.IALU: 1},
                speculation={"not_a_knob": 1},
            )

    def test_from_canonical_rejects_unknown_field(self):
        payload = PLAYDOH_4W_SPEC.canonical()
        payload["frobnicate"] = 1
        with pytest.raises(ValueError, match="frobnicate"):
            MachineSpec.from_canonical(payload)

    def test_from_canonical_rejects_newer_schema(self):
        payload = PLAYDOH_4W_SPEC.canonical()
        payload["schema"] = MACHINE_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            MachineSpec.from_canonical(payload)

    def test_predictor_kind_validated(self):
        with pytest.raises(ValueError, match="predictor"):
            PredictorSpec(kind="oracle")

    @pytest.mark.parametrize("bits", [0, 31])
    def test_predictor_table_bits_validated(self, bits):
        """The (D)FCM kernels index 2**table_bits slots for table_bits
        in [1, 30]; the spec rejects the rest before any simulation."""
        with pytest.raises(ValueError, match=r"table_bits must be in \[1, 30\]"):
            PredictorSpec(kind="fcm", table_bits=bits)
        assert PredictorSpec(kind="fcm", table_bits=30).table_bits == 30


class TestDerivations:
    def test_widened_doubles_everything(self):
        wide = PLAYDOH_4W_SPEC.widened(2, name="w")
        assert wide.issue_width == 8
        assert wide.units[FUClass.IALU] == 4
        assert wide.latencies == PLAYDOH_4W_SPEC.latencies

    def test_playdoh_8w_is_widened_4w(self):
        assert PLAYDOH_8W_SPEC == PLAYDOH_4W_SPEC.widened(2, name="playdoh-8w")

    def test_override_merges_speculation(self):
        spec = PLAYDOH_4W_SPEC.override(speculation={"threshold": 0.5})
        spec = spec.override(speculation={"max_predictions": 3})
        assert spec.speculation == {"threshold": 0.5, "max_predictions": 3}

    def test_spec_config_caps_sync_width(self):
        spec = PLAYDOH_4W_SPEC.override(sync_width=16)
        assert spec.spec_config().sync_width == 16

    def test_spec_config_defaults_match_pass_defaults(self):
        from repro.core.speculation import SpeculationConfig

        assert PLAYDOH_4W_SPEC.spec_config() == SpeculationConfig()


class TestRegistry:
    def test_registry_names(self):
        assert list(registry_names()) == ["playdoh-4w", "playdoh-8w", "unlimited"]

    def test_by_name_returns_shared_constants(self):
        # Identity, not just equality: evaluation caches key on machine
        # objects and the whole codebase shares the module constants.
        assert by_name("playdoh-4w") is PLAYDOH_4W
        assert by_name("playdoh-8w") is PLAYDOH_8W
        assert by_name("unlimited") is UNLIMITED

    def test_unknown_name_lists_both_resolutions(self):
        with pytest.raises(KeyError, match=r"playdoh-4w.*\.json/\.toml"):
            by_name("nosuch")

    def test_by_name_resolves_spec_files(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(
            PLAYDOH_4W_SPEC.override(name="custom").to_json(), encoding="utf-8"
        )
        machine = by_name(str(path))
        assert isinstance(machine, MachineDescription)
        assert machine.name == "custom"
        assert spec_by_name(str(path)).fingerprint() == machine.fingerprint()

    def test_registry_and_spec_file_equivalence(self, tmp_path):
        """A registry machine written to disk and loaded back is the
        same machine: same fingerprint, equal build."""
        for name in registry_names():
            path = tmp_path / f"{name}.json"
            path.write_text(spec_by_name(name).to_json(), encoding="utf-8")
            loaded = load_spec(path)
            assert loaded.fingerprint() == GOLDEN_FINGERPRINTS[name]
            assert loaded.build() == by_name(name)

    def test_register_machine(self):
        spec = PLAYDOH_4W_SPEC.override(name="test-register-4w")
        try:
            register_machine(spec)
            assert "test-register-4w" in registry_names()
            assert spec_by_name("test-register-4w") == spec
            # Same fingerprint re-registration is a no-op...
            register_machine(spec)
            # ...a different machine under the same name is an error.
            with pytest.raises(ValueError, match="already registered"):
                register_machine(spec.override(issue_width=5))
        finally:
            from repro.machine import configs

            configs._REGISTRY.pop("test-register-4w", None)


class TestFUPoolNormalisation:
    def test_counts_sorted_by_class_value(self):
        a = FUPool({FUClass.MEM: 1, FUClass.IALU: 2})
        b = FUPool({FUClass.IALU: 2, FUClass.MEM: 1})
        assert pickle.dumps(a) == pickle.dumps(b)

    def test_latencies_sorted_on_description(self):
        lat = dict(reversed(list(PLAYDOH_4W.latencies.items())))
        m = MachineDescription(
            name=PLAYDOH_4W.name,
            issue_width=PLAYDOH_4W.issue_width,
            pool=PLAYDOH_4W.pool,
            latencies=lat,
        )
        assert pickle.dumps(m) == pickle.dumps(PLAYDOH_4W)


class TestCanonicalForm:
    def test_canonical_is_json_safe_and_sorted(self):
        payload = PLAYDOH_4W_SPEC.canonical()
        text = json.dumps(payload)  # must not raise
        assert json.loads(text) == payload
        assert payload["schema"] == MACHINE_SCHEMA_VERSION
        assert list(payload["units"]) == sorted(payload["units"])
        assert list(payload["latencies"]) == sorted(payload["latencies"])

    def test_speculation_floats_travel_as_repr(self):
        spec = PLAYDOH_4W_SPEC.override(speculation={"threshold": 0.1 + 0.2})
        payload = spec.canonical()
        assert payload["speculation"]["threshold"] == repr(0.1 + 0.2)
        assert MachineSpec.from_canonical(payload) == spec
