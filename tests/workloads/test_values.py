"""Tests for the value-stream generators (including hypothesis properties)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import values


class TestStrided:
    def test_basic(self):
        assert values.strided(4, start=2, stride=3) == [2, 5, 8, 11]

    def test_empty(self):
        assert values.strided(0) == []

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            values.strided(-1)


class TestNoisyStrided:
    def test_zero_breaks_is_pure_stride(self):
        rng = random.Random(0)
        out = values.noisy_strided(10, rng, start=5, stride=2, break_rate=0.0)
        assert out == values.strided(10, start=5, stride=2)

    def test_break_rate_validated(self):
        with pytest.raises(ValueError):
            values.noisy_strided(10, random.Random(0), break_rate=1.5)

    def test_deterministic_given_seed(self):
        a = values.noisy_strided(50, random.Random(7), break_rate=0.3)
        b = values.noisy_strided(50, random.Random(7), break_rate=0.3)
        assert a == b

    @settings(max_examples=20, deadline=None)
    @given(rate=st.floats(min_value=0.05, max_value=0.5), seed=st.integers(0, 100))
    def test_observed_predictability_tracks_break_rate(self, rate, seed):
        """A stride predictor's hit rate on the stream is roughly
        1 - 2*break_rate (each break costs up to two misses)."""
        from repro.predict.stride import stride_column

        stream = values.noisy_strided(400, random.Random(seed), break_rate=rate)
        hit = sum(stride_column(stream)[1]) / len(stream)
        assert 1 - 2.6 * rate - 0.08 <= hit <= 1 - 0.55 * rate + 0.05


class TestRepeatingAndConstant:
    def test_repeating(self):
        assert values.repeating(5, [1, 2]) == [1, 2, 1, 2, 1]

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            values.repeating(5, [])

    def test_mostly_constant_rates(self):
        rng = random.Random(3)
        stream = values.mostly_constant(1000, rng, value=7, flip_rate=0.1, other=0)
        flips = sum(1 for v in stream if v == 0)
        assert 60 <= flips <= 140

    def test_random_values_in_range(self):
        stream = values.random_values(100, random.Random(0), lo=5, hi=10)
        assert all(5 <= v < 10 for v in stream)

    def test_random_floats_in_range(self):
        stream = values.random_floats(100, random.Random(0), lo=-1.0, hi=1.0)
        assert all(-1.0 <= v <= 1.0 for v in stream)


class TestSmoothField:
    def test_neighbouring_steps_bounded(self):
        field = values.smooth_field(200, random.Random(1), scale=10.0)
        for a, b in zip(field, field[1:]):
            assert abs(b - a) <= 1.0


class TestLinkedList:
    def test_sequential_layout_strides(self):
        image = values.linked_list_nodes(
            count=10, base=100, node_size=4, rng=random.Random(0), fragmentation=0.0
        )
        # next pointers of a sequential list stride by node_size
        addr = 100
        for _ in range(9):
            next_addr = image[addr]
            assert next_addr == addr + 4
            addr = next_addr
        # the list is circular
        assert image[addr] == 100

    def test_walk_covers_every_node(self):
        image = values.linked_list_nodes(
            count=20, base=0, node_size=2, rng=random.Random(5), fragmentation=0.5
        )
        addr, seen = 0, set()
        for _ in range(20):
            assert addr not in seen
            seen.add(addr)
            addr = image[addr]
        assert addr == 0
        assert len(seen) == 20

    def test_payload_pattern_in_walk_order(self):
        image = values.linked_list_nodes(
            count=6,
            base=0,
            node_size=2,
            rng=random.Random(2),
            fragmentation=0.8,
            payload_pattern=(10, 20),
        )
        addr = 0
        payloads = []
        for _ in range(6):
            payloads.append(image[addr + 1])
            addr = image[addr]
        assert payloads == [10, 20, 10, 20, 10, 20]

    def test_payload_values_override(self):
        image = values.linked_list_nodes(
            count=4,
            base=0,
            node_size=2,
            rng=random.Random(2),
            payload_values=[9, 8, 7, 6],
        )
        addr = 0
        payloads = []
        for _ in range(4):
            payloads.append(image[addr + 1])
            addr = image[addr]
        assert payloads == [9, 8, 7, 6]

    def test_short_payload_values_rejected(self):
        with pytest.raises(ValueError, match="cover every node"):
            values.linked_list_nodes(
                count=4, base=0, node_size=2, rng=random.Random(0), payload_values=[1]
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            values.linked_list_nodes(count=0, base=0, node_size=2, rng=random.Random(0))
        with pytest.raises(ValueError):
            values.linked_list_nodes(
                count=3, base=0, node_size=2, rng=random.Random(0), fragmentation=2.0
            )
