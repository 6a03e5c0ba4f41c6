"""Tests for the split-function family and the §4 partition-count model."""
import collections

import numpy as np
import pytest

from repro.core.partitions import (
    DEFAULT_NUM_PARTITIONS,
    eq2_disk_partitions,
    robust_num_partitions,
    shapiro_num_partitions,
)
from repro.core.split import (
    bucket_hash,
    split_partition,
    split_partitions,
    stable_hash,
)
from repro.experiments.table1 import PAPER_TABLE1


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(42, 7) == stable_hash(42, 7)

    def test_seed_changes_value(self):
        assert stable_hash(42, 1) != stable_hash(42, 2)

    @pytest.mark.parametrize("a,b", [
        (1, 1.0), (7, np.int64(7)), (3, np.int32(3)), (True, 1),
    ])
    def test_numeric_normalization(self, a, b):
        assert stable_hash(a, 5) == stable_hash(b, 5)

    @pytest.mark.parametrize("key", ["abc", b"abc", (1, "x"), 3.5, None])
    def test_non_int_keys_hash(self, key):
        h = stable_hash(key, 0)
        assert isinstance(h, int) and h >= 0

    def test_string_hash_is_process_stable(self):
        # CRC-based: a fixed literal must map to a fixed value forever
        assert stable_hash("customer", 0) == stable_hash("customer", 0)

    def test_distribution_roughly_uniform(self):
        p = 16
        counts = collections.Counter(split_partition(k, p) for k in range(10000))
        assert min(counts.values()) > 10000 / p * 0.7
        assert max(counts.values()) < 10000 / p * 1.3


class TestSplitPartition:
    @pytest.mark.parametrize("p", [1, 2, 5, 20, 128])
    def test_in_range(self, p):
        for k in range(200):
            assert 0 <= split_partition(k, p) < p

    def test_levels_decorrelate(self):
        # records in one level-0 partition must spread at level 1
        p = 8
        keys = [k for k in range(5000) if split_partition(k, p, 0) == 3]
        level1 = collections.Counter(split_partition(k, p, 1) for k in keys)
        assert len(level1) == p     # all buckets hit

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            split_partition(1, 0)
        with pytest.raises(ValueError):
            split_partitions([1], 0)

    def test_bucket_hash_differs_from_split(self):
        vals = {k: (split_partition(k, 16, 0), bucket_hash(k, 0) % 16)
                for k in range(1000)}
        agree = sum(1 for a, b in vals.values() if a == b)
        assert agree < 300   # independent-ish


_RNG = np.random.default_rng(7)
BATCH_KEYS = {
    "int64 extremes": [-(2**63), 2**63 - 1, -(2**63) + 1, 2**63 - 2, 0, 1, -1],
    "negative ints": list(range(-500, 0)),
    "above 2**63": [2**63, 2**63 + 1, 2**64 - 1, 2**64, 2**70 + 3, -(2**63) - 1],
    "ints then 2**63": list(range(100)) + [2**63],
    "random int64": [int(k) for k in _RNG.integers(-(2**63), 2**63 - 1, 3000)],
    "bools": [True, False, True],
    "ints and bools": [1, True, 0, False, -5, 2**40],
    "integral floats": [1.0, -3.0, 0.0, 2.0**53, 2.0**70],
    "non-integral floats": [1.5, -2.25, float("nan")],
    "numpy ints": [np.int64(7), np.int32(-3), np.uint64(2**63 + 1), np.int8(-128)],
    "str": ["abc", "12", "-7", ""],
    "bytes": [b"abc", b"12", b""],
    "ints with a str": list(range(100)) + ["x"] + list(range(100, 200)),
    "empty": [],
}


class TestSplitPartitions:
    """The batch routing path equals the scalar definition elementwise."""

    @pytest.mark.parametrize("name", sorted(BATCH_KEYS))
    def test_equals_scalar(self, name):
        keys = BATCH_KEYS[name]
        for level in range(4):
            for p in (2, 7, 20, 64):
                got = split_partitions(keys, p, level)
                assert got == [split_partition(k, p, level) for k in keys]
                assert all(type(pid) is int for pid in got)


class TestEq2:
    @pytest.mark.parametrize("build_mb,expected", sorted(PAPER_TABLE1.items()))
    def test_table1_exact(self, build_mb, expected):
        assert shapiro_num_partitions(build_mb, 128) == expected

    def test_raw_eq2_can_be_nonpositive(self):
        assert eq2_disk_partitions(10, 128) <= 0

    def test_clamped_to_two(self):
        assert shapiro_num_partitions(1, 128) == 2

    def test_clamped_to_memory(self):
        assert shapiro_num_partitions(10**6, 16) == 16

    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            eq2_disk_partitions(100, 1)

    def test_monotone_in_build_size(self):
        vals = [shapiro_num_partitions(r, 128) for r in range(64, 8192, 64)]
        assert vals == sorted(vals)


class TestRobustPolicy:
    def test_unknown_build_uses_default(self):
        assert robust_num_partitions(1024) == DEFAULT_NUM_PARTITIONS == 20

    def test_unknown_build_capped_by_memory(self):
        assert robust_num_partitions(8) == 8

    def test_known_build_lower_bounded(self):
        # Eq2 would give 2 for a small build; the lower bound lifts it to 20
        assert robust_num_partitions(1024, build_frames=100) == 20

    def test_known_build_above_lower_bound(self):
        p = robust_num_partitions(128, build_frames=8192)
        assert p == shapiro_num_partitions(8192, 128) == 83

    def test_never_exceeds_memory(self):
        assert robust_num_partitions(10, build_frames=10**6) == 10

    def test_at_least_two(self):
        assert robust_num_partitions(3, build_frames=1) >= 2
