"""Correctness and behaviour tests for the Dynamic HHJ operator itself.

The operator must produce *exactly* the naive equijoin output under every
combination of policies and memory budgets — including budgets that force
spilling, multi-round recursion, role reversal, bail-out, and reload.
"""
import itertools

import pytest

from repro import synth_data
from repro.core.baselines import naive_hash_join
from repro.core.join import (
    CHUNK_RECORDS,
    DynamicHybridHashJoin,
    HHJConfig,
    dynamic_hash_join,
)
from repro.frames import Frame, MemorySpillFile
from repro.frames.pool import BufferPool
from repro.growth.policies import NoGrowNoSteal
from repro.insertion import default_policies as insertion_policies
from repro.victim import default_policies as victim_policies

from tests.util import make_records, make_skewed_records

FRAME = 1024


def small_inputs():
    build = make_records(400, key_range=150, lo=100, hi=300, seed=1, tag="b")
    probe = make_records(800, key_range=150, lo=100, hi=300, seed=2, tag="p")
    return build, probe


def run_and_compare(build, probe, **cfg_kw):
    cfg_kw.setdefault("frame_bytes", FRAME)
    cfg_kw.setdefault("min_partitions", 4)
    cfg = HHJConfig(**cfg_kw)
    pairs, stats = dynamic_hash_join(build, probe, cfg)
    assert sorted(pairs) == sorted(naive_hash_join(build, probe))
    return stats


class TestCorrectnessGrid:
    """Every policy combination must return the exact join result."""

    @pytest.mark.parametrize("victim", sorted(victim_policies().keys()))
    @pytest.mark.parametrize("growth", ["ng-ns", "g-s"])
    @pytest.mark.parametrize("memory", [12, 48])
    def test_policy_grid(self, victim, growth, memory):
        build, probe = small_inputs()
        stats = run_and_compare(build, probe, memory_frames=memory,
                                growth=growth, victim=victim,
                                num_partitions=min(8, memory))
        if memory == 12:
            assert stats.partitions_spilled > 0   # spilling actually happened

    @pytest.mark.parametrize("insertion", sorted(insertion_policies().keys()))
    @pytest.mark.parametrize("memory", [12, 48, 4096])
    def test_insertion_grid(self, insertion, memory):
        build, probe = small_inputs()
        run_and_compare(build, probe, memory_frames=memory,
                        insertion=insertion, num_partitions=8)

    @pytest.mark.parametrize("num_partitions", [2, 3, 5, 8, 12])
    def test_partition_counts(self, num_partitions):
        build, probe = small_inputs()
        run_and_compare(build, probe, memory_frames=24,
                        num_partitions=num_partitions)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_victim_seeds(self, seed):
        build, probe = small_inputs()
        run_and_compare(build, probe, memory_frames=12, victim="random",
                        num_partitions=8, seed=seed)


class TestSkewedData:
    @pytest.mark.parametrize("growth", ["ng-ns", "g-s"])
    def test_skewed_build(self, growth):
        build = make_skewed_records(500, hot_keys=3, lo=100, hi=300, seed=3)
        probe = make_records(500, key_range=600, lo=100, hi=300, seed=4)
        run_and_compare(build, probe, memory_frames=12, growth=growth,
                        num_partitions=8)

    def test_single_key_build_triggers_bailout(self):
        # every record in one partition → hashing can never shrink it
        build = [(7, 200, f"b{i}") for i in range(300)]
        probe = [(7, 200, f"p{i}") for i in range(100)]
        cfg = HHJConfig(memory_frames=12, frame_bytes=FRAME, num_partitions=4,
                        min_partitions=4)
        op = DynamicHybridHashJoin(cfg)
        pairs = op.run_collect(build, probe)
        assert len(pairs) == 300 * 100
        assert op.stats.bnlj_rounds >= 1

    def test_bailout_disabled_still_terminates(self):
        build = [(7, 200, f"b{i}") for i in range(300)]
        probe = [(7, 200, f"p{i}") for i in range(100)]
        cfg = HHJConfig(memory_frames=12, frame_bytes=FRAME, num_partitions=4,
                        min_partitions=4, bailout=False, max_levels=6)
        op = DynamicHybridHashJoin(cfg)
        pairs = op.run_collect(build, probe)
        assert len(pairs) == 300 * 100   # max_levels fallback bails to BNLJ


class TestOptimizations:
    def test_role_reversal_counts(self):
        # probe side much smaller per spilled pair → reversal expected
        build = make_records(1200, key_range=300, lo=100, hi=300, seed=5, tag="b")
        probe = make_records(120, key_range=300, lo=100, hi=300, seed=6, tag="p")
        cfg = HHJConfig(memory_frames=12, frame_bytes=FRAME, num_partitions=6,
                        min_partitions=4)
        op = DynamicHybridHashJoin(cfg)
        pairs = op.run_collect(build, probe)
        assert sorted(pairs) == sorted(naive_hash_join(build, probe))
        assert op.stats.role_reversals > 0

    def test_role_reversal_disabled(self):
        build, probe = small_inputs()
        stats = run_and_compare(build, probe, memory_frames=12,
                                num_partitions=6, role_reversal=False)
        assert stats.role_reversals == 0

    def test_in_memory_shortcut_used(self):
        build, probe = small_inputs()
        stats = run_and_compare(build, probe, memory_frames=16,
                                num_partitions=8)
        assert stats.in_memory_rounds > 0

    def test_in_memory_shortcut_disabled(self):
        build, probe = small_inputs()
        stats = run_and_compare(build, probe, memory_frames=16,
                                num_partitions=8, in_memory_shortcut=False)
        assert stats.in_memory_rounds == 0

    def test_reload_recovers_spilled_partition(self):
        # memory fits nearly everything: a spilled partition can come back
        build, probe = small_inputs()
        stats = run_and_compare(build, probe, memory_frames=90,
                                num_partitions=8)
        stats_noreload = run_and_compare(build, probe, memory_frames=90,
                                         num_partitions=8,
                                         reload_spilled=False)
        assert stats.frames_reloaded >= 0
        # with reload on, probe-side spill can only be lower or equal
        assert stats.probe_bytes_spilled <= stats_noreload.probe_bytes_spilled

    def test_reload_disabled_reloads_nothing(self):
        build, probe = small_inputs()
        stats = run_and_compare(build, probe, memory_frames=90,
                                num_partitions=8, reload_spilled=False)
        assert stats.frames_reloaded == 0


def wisconsin_with_ids(**kw):
    """Wisconsin records with their row ids as payloads."""
    return [(k, s, i) for i, (k, s, _) in
            enumerate(synth_data.wisconsin_record_stream(**kw))]


class TestReloadFailure:
    """§8.5: a reload whose records need more frames than the estimate
    allowed must give up without duplicating the spilled partition."""

    def test_failed_reload_keeps_spill_file_and_frees_frames(self):
        op = DynamicHybridHashJoin(HHJConfig(memory_frames=4, frame_bytes=FRAME,
                                             num_partitions=2, fudge=1.0))
        part = op._new_partitions(2)[0]
        part.spilled = True
        records = [(k, 600, f"b{k}") for k in range(4)]
        # one counted frame whose records need four: the estimate passes
        part.ensure_spill_file().write_frame(records, FRAME)
        pool = BufferPool(4)
        pool.allocate(3)
        op._reload_spilled([part], pool, level=0)
        assert part.spilled and part.frames == []
        assert pool.allocated == 3
        assert part.spill_file.frames_written == 1
        assert list(part.spill_file.read_all()) == records
        assert op.stats.reload_failures == 1
        assert op.stats.frames_reloaded == op.stats.frames_read == 0
        assert op.stats.write_trace == []

    @pytest.mark.parametrize("reload_spilled", [True, False])
    def test_loosely_packed_3_large_reload(self, reload_spilled):
        build = wisconsin_with_ids(n=1500, dataset="3-large", pct_large=0.1, seed=1)
        probe = wisconsin_with_ids(n=1500, dataset="3-large", pct_large=0.1,
                                   unique_keys=False, seed=2)
        stats = run_and_compare(build, probe, memory_frames=96,
                                frame_bytes=32 * 1024, insertion="random(10%)",
                                min_partitions=8, reload_spilled=reload_spilled)
        assert (stats.reload_failures > 0) == reload_spilled

    @pytest.mark.parametrize("reload_spilled", [True, False])
    @pytest.mark.parametrize("dataset", ["1-large", "3-large"])
    def test_random_insertion_variable_sizes_grid(self, dataset, reload_spilled):
        failures = 0
        for memory, growth, skew in itertools.product([8, 24], ["ng-ns", "g-s"],
                                                      [False, True]):
            build = wisconsin_with_ids(n=1500, dataset=dataset, pct_large=0.1,
                                       skew=skew, seed=1)
            probe = wisconsin_with_ids(n=1500, dataset=dataset, pct_large=0.1,
                                       unique_keys=False, seed=2)
            stats = run_and_compare(build, probe, memory_frames=memory,
                                    frame_bytes=32 * 1024, growth=growth,
                                    insertion="random(10%)", min_partitions=8,
                                    reload_spilled=reload_spilled)
            failures += stats.reload_failures
        # the grid must reach the failure branch it exists to cover
        assert (failures > 0) == reload_spilled


class TestRecordsStoredOnce:
    """Frames and spill files hold the callers' own record tuples: with
    int keys, nothing the operator stores is a copy or a re-wrap."""

    CFG = dict(memory_frames=12, frame_bytes=FRAME, num_partitions=6,
               min_partitions=4, insertion="next-fit")

    @staticmethod
    def inputs():
        build = make_records(1500, key_range=1000, lo=100, hi=300, seed=7, tag="b")
        probe = make_records(1500, key_range=1000, lo=100, hi=300, seed=8, tag="p")
        return build, probe

    def test_build_only(self):
        build, _ = self.inputs()
        given = {id(r) for r in build}
        cfg = HHJConfig(**dict(self.CFG, memory_frames=160))
        parts = DynamicHybridHashJoin(cfg).build_only(build)
        assert any(q.spilled for q in parts) and not all(q.spilled for q in parts)
        stored = [r for q in parts for f in q.frames for r in f.records]
        stored += [r for q in parts if q.spill_file for r in q.spill_file.read_all()]
        assert len(stored) == len(build)
        assert all(id(r) in given for r in stored)

    def test_spilling_run(self, monkeypatch):
        build, probe = self.inputs()
        given = {id(r) for r in build + probe}
        files, inserted = [], []

        class KeptSpillFile(MemorySpillFile):
            """Keeps its records after close, for inspection."""

            def __init__(self):
                super().__init__()
                files.append(self)

            def close(self):
                pass

        frame_insert = Frame.insert

        def insert(frame, record):
            inserted.append(record)
            frame_insert(frame, record)

        monkeypatch.setattr(Frame, "insert", insert)
        op = DynamicHybridHashJoin(HHJConfig(**self.CFG))
        op._spill_file_factory = lambda: KeptSpillFile
        pairs = op.run_collect(build, probe)
        assert sorted(pairs) == sorted(naive_hash_join(build, probe))
        # recursion, probe spills and §8.5 reloads all ran
        assert op.stats.rounds > 1 and op.stats.probe_bytes_spilled > 0
        assert op.stats.frames_reloaded > 0
        written = [r for f in files for r in f.read_all()]
        assert len(written) > len(build) and len(inserted) > len(build) + len(probe)
        assert all(id(r) in given for r in written)
        assert all(id(r) in given for r in inserted)


class TestChunkBoundaries:
    """Inputs are read in chunks of CHUNK_RECORDS: sizes around a chunk,
    as lists and as one-shot generators, in memory and spilling."""

    @pytest.mark.parametrize("memory", [4096, 24])
    @pytest.mark.parametrize("as_generator", [False, True])
    @pytest.mark.parametrize("n", [0, 1, CHUNK_RECORDS - 1, CHUNK_RECORDS,
                                   CHUNK_RECORDS + 1])
    def test_matches_naive(self, n, as_generator, memory):
        build = make_records(n, key_range=3000, lo=100, hi=300, seed=11, tag="b")
        probe = make_records(n, key_range=3000, lo=100, hi=300, seed=12, tag="p")
        # integral float keys send the probe through the normalizing entry
        # path; the all-int build skips it
        probe = [(float(k) if i % 7 == 0 else k, s, pl)
                 for i, (k, s, pl) in enumerate(probe)]
        cfg = HHJConfig(memory_frames=memory, frame_bytes=FRAME,
                        num_partitions=8, min_partitions=4)
        op = DynamicHybridHashJoin(cfg)
        if as_generator:
            pairs = op.run_collect((r for r in build), (r for r in probe))
        else:
            pairs = op.run_collect(build, probe)
        assert sorted(pairs) == sorted(naive_hash_join(build, probe))
        assert op.stats.records_processed >= 2 * n
        if memory == 24 and n >= CHUNK_RECORDS - 1:
            assert op.stats.rounds > 1      # spill files are re-read in chunks


class TestEdgeCases:
    def test_empty_build(self):
        probe = make_records(50, lo=100, hi=300)
        assert dynamic_hash_join([], probe, HHJConfig(
            memory_frames=8, frame_bytes=FRAME, num_partitions=4,
            min_partitions=4))[0] == []

    def test_empty_probe(self):
        build = make_records(50, lo=100, hi=300)
        assert dynamic_hash_join(build, [], HHJConfig(
            memory_frames=8, frame_bytes=FRAME, num_partitions=4,
            min_partitions=4))[0] == []

    def test_both_empty(self):
        assert dynamic_hash_join([], [], HHJConfig(
            memory_frames=8, frame_bytes=FRAME, num_partitions=4))[0] == []

    def test_no_matches(self):
        build = [(i, 200, f"b{i}") for i in range(100)]
        probe = [(i + 1000, 200, f"p{i}") for i in range(100)]
        pairs, _ = dynamic_hash_join(build, probe, HHJConfig(
            memory_frames=8, frame_bytes=FRAME, num_partitions=4,
            min_partitions=4))
        assert pairs == []

    def test_duplicate_keys_cross_product(self):
        build = [(1, 200, f"b{i}") for i in range(20)]
        probe = [(1, 200, f"p{i}") for i in range(30)]
        pairs, _ = dynamic_hash_join(build, probe, HHJConfig(
            memory_frames=64, frame_bytes=FRAME, num_partitions=4,
            min_partitions=4))
        assert len(pairs) == 600

    def test_key_type_normalization(self):
        import numpy as np
        build = [(np.int64(5), 200, "b"), (7.0, 200, "b7")]
        probe = [(5, 200, "p"), (7, 200, "p7")]
        pairs, _ = dynamic_hash_join(build, probe, HHJConfig(
            memory_frames=8, frame_bytes=FRAME, num_partitions=4,
            min_partitions=4))
        assert sorted(pairs) == [("b", "p"), ("b7", "p7")]

    def test_string_keys(self):
        build = [(f"k{i % 20}", 150, f"b{i}") for i in range(100)]
        probe = [(f"k{i % 25}", 150, f"p{i}") for i in range(100)]
        pairs, _ = dynamic_hash_join(build, probe, HHJConfig(
            memory_frames=8, frame_bytes=FRAME, num_partitions=4,
            min_partitions=4))
        assert sorted(pairs) == sorted(naive_hash_join(build, probe))

    def test_record_exceeding_frame_raises(self):
        cfg = HHJConfig(memory_frames=8, frame_bytes=FRAME, num_partitions=4)
        op = DynamicHybridHashJoin(cfg)
        with pytest.raises(ValueError):
            op.run_collect([(1, FRAME + 1, "big")], [])

    def test_record_exactly_frame_size_is_ok(self):
        pairs, _ = dynamic_hash_join([(1, FRAME, "b")], [(1, 100, "p")],
                                     HHJConfig(memory_frames=8,
                                               frame_bytes=FRAME,
                                               num_partitions=4,
                                               min_partitions=4))
        assert pairs == [("b", "p")]


class LeakyGrowth(NoGrowNoSteal):
    """NG-NS that takes one frame from the pool on its first eviction
    and never hands it to a partition."""

    leaked = False

    def free_memory(self, partitions, ctx, pool, victim, stats,
                    phase, round_no) -> int:
        freed = super().free_memory(partitions, ctx, pool, victim, stats,
                                    phase, round_no)
        if freed and not self.leaked:
            pool.allocate(1)
            self.leaked = True
        return freed


class TestBudgetInvariant:
    @pytest.mark.parametrize("entry", ["run", "build_only"])
    def test_leaked_frame_raises(self, entry):
        build, probe = small_inputs()
        op = DynamicHybridHashJoin(HHJConfig(memory_frames=8, frame_bytes=FRAME,
                                             num_partitions=4, min_partitions=4))
        op.growth = LeakyGrowth()
        with pytest.raises(RuntimeError, match="partitions hold"):
            if entry == "run":
                op.run_collect(build, probe)
            else:
                op.build_only(build)
        assert op.growth.leaked


class TestConfigValidation:
    def test_memory_floor(self):
        with pytest.raises(ValueError):
            HHJConfig(memory_frames=2)

    @pytest.mark.parametrize("p", [0, 1])
    def test_partitions_floor(self, p):
        with pytest.raises(ValueError):
            HHJConfig(memory_frames=16, num_partitions=p)

    def test_partitions_cannot_exceed_memory(self):
        with pytest.raises(ValueError):
            HHJConfig(memory_frames=16, num_partitions=17)

    def test_default_partition_policy_is_twenty(self):
        cfg = HHJConfig(memory_frames=256)
        op = DynamicHybridHashJoin(cfg)
        parts = op.build_only(make_records(50, lo=100, hi=300))
        assert len(parts) == 20


class TestStatsAccounting:
    def test_no_spill_run_has_empty_trace(self):
        build, probe = small_inputs()
        stats = run_and_compare(build, probe, memory_frames=4096,
                                num_partitions=8)
        assert stats.partitions_spilled == 0
        assert stats.build_bytes_spilled == 0
        assert stats.write_trace == []

    def test_spill_bytes_bounded_by_rounds_times_input(self):
        build, probe = small_inputs()
        build_bytes = sum(r[1] for r in build)
        stats = run_and_compare(build, probe, memory_frames=12,
                                num_partitions=6)
        assert stats.build_bytes_spilled <= stats.rounds * build_bytes * 1.5

    def test_trace_matches_frame_counters(self):
        build, probe = small_inputs()
        stats = run_and_compare(build, probe, memory_frames=12,
                                num_partitions=6)
        assert (stats.sequential_frames_written + stats.random_frames_written
                == stats.total_frames_spilled)
        assert (stats.sequential_write_ops + stats.random_write_ops
                == len(stats.write_trace))

    def test_records_processed_counts_both_sides(self):
        build, probe = small_inputs()
        stats = run_and_compare(build, probe, memory_frames=4096,
                                num_partitions=8)
        assert stats.records_processed >= len(build) + len(probe)

    def test_build_only_flushes_everything_spilled(self):
        build = make_records(800, lo=100, hi=300, seed=9)
        cfg = HHJConfig(memory_frames=12, frame_bytes=FRAME, num_partitions=6)
        op = DynamicHybridHashJoin(cfg)
        parts = op.build_only(build)
        for q in parts:
            if q.spilled:
                assert q.in_memory_bytes == 0      # nothing left unflushed
        spilled_bytes = sum(q.bytes_spilled for q in parts)
        assert spilled_bytes == op.stats.build_bytes_spilled


# stats.summary() of fixed runs: a change to how records are routed, read
# or stored must not move them. The first three were recorded before
# chunked routing landed; the other four (a successful §8.5 reload, the
# reload-failure repro, NG-NS with next-fit, first-fit(10%) on string keys)
# before frames and spill files kept the callers' records as given.
GOLDEN_SUMMARIES = {
    "no_spill": {
        "build_bytes_spilled": 0, "probe_bytes_spilled": 0,
        "total_bytes_spilled": 0, "build_frames_spilled": 0,
        "probe_frames_spilled": 0, "partitions_spilled": 0,
        "frames_searched": 790, "records_processed": 1200,
        "seq_write_ops": 0, "rand_write_ops": 0, "seq_frames_written": 0,
        "rand_frames_written": 0, "frames_read": 0, "rounds": 1,
        "bnlj_rounds": 0, "in_memory_rounds": 0, "role_reversals": 0,
    },
    "recursion_role_reversal": {
        "build_bytes_spilled": 1061536, "probe_bytes_spilled": 1170191,
        "total_bytes_spilled": 2231727, "build_frames_spilled": 1284,
        "probe_frames_spilled": 1312, "partitions_spilled": 88,
        "frames_searched": 7049, "records_processed": 15608,
        "seq_write_ops": 294, "rand_write_ops": 1697,
        "seq_frames_written": 899, "rand_frames_written": 1697,
        "frames_read": 2596, "rounds": 37, "bnlj_rounds": 0,
        "in_memory_rounds": 50, "role_reversals": 8,
    },
    "bnlj_bailout": {
        "build_bytes_spilled": 171159, "probe_bytes_spilled": 165991,
        "total_bytes_spilled": 337150, "build_frames_spilled": 190,
        "probe_frames_spilled": 182, "partitions_spilled": 7,
        "frames_searched": 955, "records_processed": 2001,
        "seq_write_ops": 4, "rand_write_ops": 336, "seq_frames_written": 36,
        "rand_frames_written": 336, "frames_read": 372, "rounds": 3,
        "bnlj_rounds": 2, "in_memory_rounds": 0, "role_reversals": 2,
    },
    "reload": {
        "build_bytes_spilled": 65709, "probe_bytes_spilled": 124149,
        "total_bytes_spilled": 189858, "build_frames_spilled": 77,
        "probe_frames_spilled": 139, "partitions_spilled": 7,
        "frames_searched": 452, "records_processed": 2113,
        "seq_write_ops": 7, "rand_write_ops": 181, "seq_frames_written": 35,
        "rand_frames_written": 181, "frames_read": 216, "rounds": 1,
        "bnlj_rounds": 0, "in_memory_rounds": 6, "role_reversals": 0,
    },
    "reload_failure": {
        "build_bytes_spilled": 2019734, "probe_bytes_spilled": 1620820,
        "total_bytes_spilled": 3640554, "build_frames_spilled": 120,
        "probe_frames_spilled": 61, "partitions_spilled": 13,
        "frames_searched": 1310, "records_processed": 4789,
        "seq_write_ops": 13, "rand_write_ops": 90, "seq_frames_written": 91,
        "rand_frames_written": 90, "frames_read": 181, "rounds": 1,
        "bnlj_rounds": 0, "in_memory_rounds": 12, "role_reversals": 11,
    },
    "ngns_next_fit": {
        "build_bytes_spilled": 585868, "probe_bytes_spilled": 578493,
        "total_bytes_spilled": 1164361, "build_frames_spilled": 665,
        "probe_frames_spilled": 645, "partitions_spilled": 40,
        "frames_searched": 1617, "records_processed": 8739,
        "seq_write_ops": 40, "rand_write_ops": 1150, "seq_frames_written": 160,
        "rand_frames_written": 1150, "frames_read": 1310, "rounds": 23,
        "bnlj_rounds": 0, "in_memory_rounds": 16, "role_reversals": 17,
    },
    "str_first_fit_pct": {
        "build_bytes_spilled": 605079, "probe_bytes_spilled": 603132,
        "total_bytes_spilled": 1208211, "build_frames_spilled": 694,
        "probe_frames_spilled": 679, "partitions_spilled": 45,
        "frames_searched": 1421, "records_processed": 8965,
        "seq_write_ops": 45, "rand_write_ops": 1187, "seq_frames_written": 186,
        "rand_frames_written": 1187, "frames_read": 1373, "rounds": 22,
        "bnlj_rounds": 0, "in_memory_rounds": 22, "role_reversals": 19,
    },
}

# (frames_reloaded, reload_failures) of the same runs; not in summary()
GOLDEN_RELOADS = {
    "no_spill": (0, 0), "recursion_role_reversal": (6, 0),
    "bnlj_bailout": (7, 0), "reload": (7, 0), "reload_failure": (6, 1),
    "ngns_next_fit": (16, 0), "str_first_fit_pct": (16, 0),
}


def golden_run(name):
    if name == "no_spill":
        build, probe = small_inputs()
        kw = dict(memory_frames=4096, num_partitions=8)
    elif name == "recursion_role_reversal":
        build = make_records(3000, key_range=2000, lo=100, hi=300, seed=5, tag="b")
        probe = make_records(1500, key_range=2000, lo=100, hi=300, seed=6, tag="p")
        kw = dict(memory_frames=8, num_partitions=4, growth="g-s")
    elif name == "bnlj_bailout":
        build = make_skewed_records(600, hot_keys=2, lo=100, hi=300, seed=3)
        probe = make_skewed_records(300, hot_keys=2, lo=100, hi=300, seed=4)
        kw = dict(memory_frames=12, num_partitions=8, insertion="best-fit",
                  victim="smallest-size")
    elif name == "reload":
        build, probe = small_inputs()
        kw = dict(memory_frames=30, num_partitions=8, victim="smallest-size")
    elif name == "reload_failure":
        build = wisconsin_with_ids(n=1500, dataset="3-large", pct_large=0.1, seed=1)
        probe = wisconsin_with_ids(n=1500, dataset="3-large", pct_large=0.1,
                                   unique_keys=False, seed=2)
        kw = dict(memory_frames=96, frame_bytes=32 * 1024,
                  insertion="random(10%)", min_partitions=8)
    elif name == "ngns_next_fit":
        build = make_records(1500, key_range=1000, lo=100, hi=300, seed=7, tag="b")
        probe = make_records(1500, key_range=1000, lo=100, hi=300, seed=8, tag="p")
        kw = dict(memory_frames=12, num_partitions=6, growth="ng-ns",
                  insertion="next-fit")
    else:
        build = [(f"k{k}", s, v) for k, s, v in
                 make_records(1500, key_range=1000, lo=100, hi=300, seed=9, tag="b")]
        probe = [(f"k{k}", s, v) for k, s, v in
                 make_records(1500, key_range=1000, lo=100, hi=300, seed=10, tag="p")]
        kw = dict(memory_frames=12, num_partitions=6, insertion="first-fit(10%)")
    return run_and_compare(build, probe, **kw)


class TestSameIO:
    """The paper-facing counters are behaviour: pinned to golden values."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_SUMMARIES))
    def test_summary_matches_golden(self, name):
        stats = golden_run(name)
        assert stats.summary() == GOLDEN_SUMMARIES[name]
        # the first three goldens predate the §8.5 reload fix; they hold
        # because those runs never take its failure branch
        assert (stats.frames_reloaded, stats.reload_failures) == GOLDEN_RELOADS[name]
