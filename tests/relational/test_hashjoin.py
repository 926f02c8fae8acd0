"""Tests for the simulated GPU hash-join subsystem."""

import numpy as np
import pytest

from repro.gpu import Device
from repro.gpu.profiler import ALLOC, FREE, KERNEL, TRANSFER_D2H
from repro.core.backend import join_reference
from repro.relational.hashjoin import (
    _FIB_MULTIPLIER,
    DEFAULT_CONFIG,
    MIN_TABLE_SLOTS,
    HashJoinConfig,
    SimulatedHashJoin,
    hash_codes,
    simulated_hash_join,
    table_layout,
)


@pytest.fixture
def joiner(device):
    return SimulatedHashJoin(device)


def _assert_matches_reference(result, left, right):
    expected_l, expected_r = join_reference(left, right)
    assert np.array_equal(result.left_ids, expected_l)
    assert np.array_equal(result.right_ids, expected_r)


class TestLayout:
    def test_slots_are_power_of_two(self):
        for rows in (0, 1, 7, 100, 1023, 1 << 16):
            layout = table_layout(rows)
            assert layout.slots & (layout.slots - 1) == 0
            assert layout.slots >= MIN_TABLE_SLOTS

    def test_load_factor_respected(self):
        layout = table_layout(10_000, HashJoinConfig(load_factor=0.5))
        assert layout.occupancy <= 0.5
        assert layout.table_bytes == layout.slots * 8

    def test_tiny_build_side_rounds_up(self):
        assert table_layout(0).slots == MIN_TABLE_SLOTS
        assert table_layout(3).slots == MIN_TABLE_SLOTS

    def test_negative_rows_rejected(self):
        with pytest.raises(ValueError):
            table_layout(-1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HashJoinConfig(load_factor=0.0)
        with pytest.raises(ValueError):
            HashJoinConfig(load_factor=1.5)
        with pytest.raises(ValueError):
            HashJoinConfig(slot_bytes=0.0)


class TestHashCodes:
    def test_codes_in_range(self, rng):
        keys = rng.integers(-(1 << 31), 1 << 31, 10_000).astype(np.int64)
        codes = hash_codes(keys, 1024)
        assert codes.min() >= 0 and codes.max() < 1024

    def test_deterministic(self, rng):
        keys = rng.integers(0, 1000, 500).astype(np.int32)
        assert np.array_equal(hash_codes(keys, 256), hash_codes(keys, 256))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            hash_codes(np.arange(4), 100)

    def test_spreads_sequential_keys(self):
        """Fibonacci hashing must not map sequential keys to one bucket."""
        codes = hash_codes(np.arange(4096, dtype=np.int64), 4096)
        occupancy = np.bincount(codes, minlength=4096)
        assert occupancy.max() <= 8

    @staticmethod
    def _modulo_formula(keys, slots):
        """The earlier formula, which ended in a redundant ``% slots``."""
        shift = np.uint64(64 - int(slots).bit_length() + 1)
        mixed = keys.astype(np.int64).view(np.uint64) * _FIB_MULTIPLIER
        return (mixed >> shift).astype(np.int64) % slots

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("log_slots", [4, 5, 8, 11, 16, 19, 20])
    def test_equals_the_modulo_formula(self, rng, dtype, log_slots):
        info = np.iinfo(dtype)
        keys = np.concatenate([
            rng.integers(info.min, info.max, 2_000, dtype=dtype,
                         endpoint=True),
            np.arange(-300, 300, dtype=dtype),
            np.array([info.min, info.min + 1, -1, 0, 1, info.max - 1,
                      info.max], dtype=dtype),
        ])
        slots = 1 << log_slots
        codes = hash_codes(keys, slots)
        expected = self._modulo_formula(keys, slots)
        assert codes.dtype == expected.dtype == np.int64
        assert np.array_equal(codes, expected)

    def test_does_not_modify_the_keys(self):
        keys = np.arange(-5, 5, dtype=np.int64)
        hash_codes(keys, 64)
        assert np.array_equal(keys, np.arange(-5, 5))


class TestMeasureChains:
    @staticmethod
    def _float_mean(build, probe, slots):
        """The earlier measurement: a float mean of probe-sized chains."""
        occupancy = np.bincount(hash_codes(build, slots), minlength=slots)
        chains = occupancy[hash_codes(probe, slots)]
        return float(np.maximum(chains, 1).mean())

    @pytest.mark.parametrize("skew", ["uniform", "zipf", "one-key"])
    def test_equals_the_float_mean_exactly(self, joiner, rng, skew):
        if skew == "uniform":
            build = rng.integers(0, 50_000, 20_000).astype(np.int64)
        elif skew == "zipf":
            build = (rng.zipf(1.3, 20_000) % 5_000).astype(np.int64)
        else:
            build = np.full(20_000, 7, dtype=np.int64)
        probe = rng.integers(-100, 60_000, 30_001).astype(np.int32)
        layout = table_layout(len(build))
        measured = joiner._measure_chains(build, probe, layout)
        expected = self._float_mean(build, probe, layout.slots)
        assert type(measured) is float
        assert measured == expected
        assert measured.hex() == expected.hex()

    def test_empty_sides(self, joiner):
        layout = table_layout(4)
        some = np.arange(4, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        assert joiner._measure_chains(some, empty, layout) == 0.0
        assert joiner._measure_chains(empty, some, layout) == 1.0


class TestCorrectness:
    def test_fk_join_matches_reference(self, joiner, rng):
        right = np.arange(2_000, dtype=np.int32)
        left = rng.integers(0, 2_000, 10_000).astype(np.int32)
        result = joiner.join(left, right)
        _assert_matches_reference(result, left, right)
        assert result.stats.matches == 10_000

    def test_duplicate_keys_both_sides(self, joiner, rng):
        left = rng.integers(0, 50, 1_000).astype(np.int32)
        right = rng.integers(0, 50, 800).astype(np.int32)
        result = joiner.join(left, right)
        _assert_matches_reference(result, left, right)

    def test_empty_build_side(self, joiner):
        left = np.arange(100, dtype=np.int32)
        right = np.empty(0, dtype=np.int32)
        result = joiner.join(left, right)
        assert len(result) == 0
        _assert_matches_reference(result, left, right)

    def test_empty_left_side(self, joiner):
        # The empty side becomes the build side (build-on-smaller); every
        # probe still walks one (empty) slot.
        result = joiner.join(
            np.empty(0, dtype=np.int32), np.arange(100, dtype=np.int32)
        )
        assert len(result) == 0
        assert result.stats.build_rows == 0
        assert result.stats.avg_probe_chain == 1.0

    def test_both_sides_empty(self, joiner):
        empty = np.empty(0, dtype=np.int32)
        result = joiner.join(empty, empty)
        assert len(result) == 0
        assert result.stats.avg_probe_chain == 0.0

    def test_no_matching_probes(self, joiner):
        left = np.arange(0, 1000, dtype=np.int32)
        right = np.arange(5000, 6000, dtype=np.int32)
        result = joiner.join(left, right)
        assert len(result) == 0
        assert result.stats.matches == 0
        # Probe time is still charged: every key walks the table.
        assert result.stats.probe_seconds > 0.0

    def test_negative_keys(self, joiner, rng):
        left = rng.integers(-500, 500, 2_000).astype(np.int64)
        right = rng.integers(-500, 500, 1_500).astype(np.int64)
        result = joiner.join(left, right)
        _assert_matches_reference(result, left, right)

    def test_one_shot_wrapper(self, device, rng):
        left = rng.integers(0, 100, 300).astype(np.int32)
        right = rng.integers(0, 100, 200).astype(np.int32)
        result = simulated_hash_join(device, left, right, name="oneshot")
        _assert_matches_reference(result, left, right)
        kernels = [e.name for e in device.profiler.iter_kind(KERNEL)]
        assert kernels == ["oneshot::hash_build", "oneshot::hash_probe"]


class TestProfiling:
    def test_build_and_probe_kernel_events(self, device, rng):
        joiner = SimulatedHashJoin(device, name="hj")
        left = rng.integers(0, 10_000, 50_000).astype(np.int32)
        right = np.arange(10_000, dtype=np.int32)
        result = joiner.join(left, right)

        kernels = [e for e in device.profiler.iter_kind(KERNEL)]
        names = [e.name for e in kernels]
        assert names == ["hj::hash_build", "hj::hash_probe"]
        for event in kernels:
            assert event.duration > 0.0
        # Stats mirror the charged durations.
        assert result.stats.build_seconds == kernels[0].duration
        assert result.stats.probe_seconds == kernels[1].duration
        assert result.stats.total_seconds == pytest.approx(
            kernels[0].duration + kernels[1].duration
        )

    def test_table_alloc_and_free_events(self, device, rng):
        joiner = SimulatedHashJoin(device, name="hj")
        left = rng.integers(0, 1_000, 5_000).astype(np.int32)
        right = np.arange(1_000, dtype=np.int32)
        result = joiner.join(left, right)

        allocs = [e for e in device.profiler.iter_kind(ALLOC)
                  if e.name == "hj::table"]
        frees = [e for e in device.profiler.iter_kind(FREE)
                 if e.name == "hj::table"]
        assert len(allocs) == 1 and len(frees) == 1
        assert allocs[0].payload["nbytes"] == result.stats.table_bytes

    def test_match_count_readback(self, device, rng):
        joiner = SimulatedHashJoin(device, name="hj")
        joiner.join(
            rng.integers(0, 100, 500).astype(np.int32),
            np.arange(100, dtype=np.int32),
        )
        readbacks = [
            e for e in device.profiler.iter_kind(TRANSFER_D2H)
            if e.name == "hj::match_count"
        ]
        assert len(readbacks) == 1

    def test_table_freed_even_on_failure(self, device):
        joiner = SimulatedHashJoin(device, name="hj")
        bad = np.array(["a", "b"])  # non-numeric keys blow up in-phase
        with pytest.raises(Exception):
            joiner.join(bad, bad)
        assert device.memory.used_bytes == 0


class TestCostModel:
    def test_build_on_smaller_swaps(self, device, rng):
        joiner = SimulatedHashJoin(device)
        small = np.arange(100, dtype=np.int32)
        large = rng.integers(0, 100, 10_000).astype(np.int32)
        swapped = joiner.join(small, large)
        assert swapped.stats.swapped
        assert swapped.stats.build_rows == 100
        assert swapped.stats.probe_rows == 10_000
        _assert_matches_reference(swapped, small, large)

    def test_no_swap_when_left_is_larger(self, device, rng):
        joiner = SimulatedHashJoin(device)
        result = joiner.join(
            rng.integers(0, 100, 500).astype(np.int32),
            rng.integers(0, 100, 400).astype(np.int32),
        )
        assert not result.stats.swapped
        assert result.stats.build_rows == 400

    def test_duplicate_build_keys_lengthen_chains(self, rng):
        """A duplicate-heavy build side must cost more to probe."""
        probe = rng.integers(0, 16, 100_000).astype(np.int32)
        unique_build = np.arange(10_000, dtype=np.int32)
        skewed_build = rng.integers(0, 16, 10_000).astype(np.int32)

        def run(build):
            device = Device()
            joiner = SimulatedHashJoin(
                device, config=HashJoinConfig(build_on_smaller=False)
            )
            return joiner.join(probe, build).stats

        uniform = run(unique_build)
        skewed = run(skewed_build)
        assert skewed.avg_probe_chain > 4 * uniform.avg_probe_chain
        assert skewed.probe_seconds > uniform.probe_seconds

    def test_linear_scaling_not_quadratic(self, rng):
        """Doubling both sides should roughly double the cost."""

        def run(n):
            device = Device()
            joiner = SimulatedHashJoin(device)
            left = rng.integers(0, n, 4 * n).astype(np.int32)
            right = np.arange(n, dtype=np.int32)
            return joiner.join(left, right).stats.total_seconds

        small, large = run(1 << 14), run(1 << 16)
        assert large / small < 8.0  # 4x data -> well under 16x (quadratic)

    def test_default_config_shared(self):
        assert DEFAULT_CONFIG.load_factor == 0.5
        assert SimulatedHashJoin(Device()).config is DEFAULT_CONFIG
