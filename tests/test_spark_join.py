"""Spark-executor integration tests: the Dynamic HHJ operator runs inside
``cogroup(...).applyInPandas`` and every result is checked against DuckDB.

The frame budgets are tiny, but most of these joins still fit in memory.
Replaying each case's partition pairs through ``_join_pair`` shows that
orders ⋈ lineitem, lineitem ⋈ orders (with role reversal) and the skewed
Wisconsin join spill and recurse; customer ⋈ orders, part ⋈ lineitem and
the unskewed Wisconsin join spill nothing, and no case reaches the BNLJ
bail-out. "It ran" is not the bar; results identical to DuckDB's are.

``TestJoinPair`` runs one partition pair through ``_join_pair`` without
Spark and compares every column with ``pandas.merge``.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.errors import PythonException

from repro import synth_data
from repro.core.join import HHJConfig
from repro.core.spark_join import _join_pair, dynamic_hhj_join
from repro.oracle import assert_equivalent

SF = 0.004


@pytest.fixture(scope="module")
def tpch(spark):
    return {
        "customer": synth_data.customer(spark, sf=SF),
        "orders": synth_data.orders(spark, sf=SF),
        "lineitem": synth_data.lineitem(spark, sf=SF),
        "part": synth_data.part(spark, sf=SF),
    }


def tight_cfg(**kw):
    base = dict(memory_frames=48, frame_bytes=4096, min_partitions=8)
    base.update(kw)
    return HHJConfig(**base)


class TestOracleJoins:
    def test_customer_orders(self, tpch):
        out = dynamic_hhj_join(tpch["customer"], tpch["orders"],
                               "c_custkey", "o_custkey", tight_cfg(),
                               num_spark_partitions=4)
        assert_equivalent(
            out.select("c_custkey", "o_orderkey", "o_totalprice"),
            "SELECT c_custkey, o_orderkey, o_totalprice FROM customer c "
            "JOIN orders o ON c.c_custkey = o.o_custkey",
            customer=tpch["customer"], orders=tpch["orders"])

    def test_orders_lineitem(self, tpch):
        out = dynamic_hhj_join(tpch["orders"], tpch["lineitem"],
                               "o_orderkey", "l_orderkey", tight_cfg(),
                               num_spark_partitions=4)
        assert_equivalent(
            out.select("o_orderkey", "l_partkey", "l_quantity"),
            "SELECT o_orderkey, l_partkey, l_quantity FROM orders o "
            "JOIN lineitem l ON o.o_orderkey = l.l_orderkey",
            orders=tpch["orders"], lineitem=tpch["lineitem"])

    def test_lineitem_orders_all_columns(self, tpch):
        """lineitem as build spills, and most spilled partitions recurse with
        roles reversed; every column, dates and strings included, must
        survive the assembly."""
        out = dynamic_hhj_join(tpch["lineitem"], tpch["orders"],
                               "l_orderkey", "o_orderkey", tight_cfg(),
                               num_spark_partitions=4)
        assert_equivalent(
            out,
            "SELECT l.*, o.* FROM lineitem l "
            "JOIN orders o ON l.l_orderkey = o.o_orderkey",
            orders=tpch["orders"], lineitem=tpch["lineitem"])

    def test_part_lineitem(self, tpch):
        out = dynamic_hhj_join(tpch["part"], tpch["lineitem"],
                               "p_partkey", "l_partkey", tight_cfg(),
                               num_spark_partitions=4)
        assert_equivalent(
            out.select("p_partkey", "p_size", "l_orderkey"),
            "SELECT p_partkey, p_size, l_orderkey FROM part p "
            "JOIN lineitem l ON p.p_partkey = l.l_partkey",
            part=tpch["part"], lineitem=tpch["lineitem"])

    @pytest.mark.parametrize("growth", ["ng-ns", "g-s"])
    def test_growth_policies_agree(self, tpch, growth):
        out = dynamic_hhj_join(tpch["customer"], tpch["orders"],
                               "c_custkey", "o_custkey",
                               tight_cfg(growth=growth),
                               num_spark_partitions=4)
        assert_equivalent(
            out.select("c_custkey", "o_orderkey"),
            "SELECT c_custkey, o_orderkey FROM customer c "
            "JOIN orders o ON c.c_custkey = o.o_custkey",
            customer=tpch["customer"], orders=tpch["orders"])

    @pytest.mark.parametrize("victim", ["largest-size", "smallest-records",
                                        "half-empty"])
    def test_victim_policies_agree(self, tpch, victim):
        out = dynamic_hhj_join(tpch["customer"], tpch["orders"],
                               "c_custkey", "o_custkey",
                               tight_cfg(victim=victim),
                               num_spark_partitions=4)
        assert_equivalent(
            out.select("c_custkey", "o_orderkey"),
            "SELECT c_custkey, o_orderkey FROM customer c "
            "JOIN orders o ON c.c_custkey = o.o_custkey",
            customer=tpch["customer"], orders=tpch["orders"])

    def test_aggregation_over_hhj_result(self, tpch):
        """Catalyst plans a real aggregation on top of the custom operator."""
        from pyspark.sql import functions as F
        out = dynamic_hhj_join(tpch["customer"], tpch["orders"],
                               "c_custkey", "o_custkey", tight_cfg(),
                               num_spark_partitions=4)
        agg = (out.groupBy("c_mktsegment")
                  .agg(F.count("*").alias("n"),
                       F.round(F.sum("o_totalprice"), 2).alias("total")))
        assert_equivalent(
            agg,
            "SELECT c_mktsegment, COUNT(*) AS n, "
            "ROUND(SUM(o_totalprice), 2) AS total FROM customer c "
            "JOIN orders o ON c.c_custkey = o.o_custkey GROUP BY c_mktsegment",
            customer=tpch["customer"], orders=tpch["orders"])


class TestWisconsinSpark:
    def test_wisconsin_join_with_size_column(self, spark):
        b = synth_data.wisconsin(spark, n=1500, dataset="all-small", seed=1)
        p = synth_data.wisconsin(spark, n=1500, dataset="all-small", seed=2)
        out = dynamic_hhj_join(b, p, "unique1", "unique1",
                               tight_cfg(memory_frames=32,
                                         frame_bytes=32 * 1024),
                               num_spark_partitions=4, size_column="rec_bytes")
        assert_equivalent(
            out.select("unique1", "unique2", "unique2_r"),
            "SELECT b.unique1 AS unique1, b.unique2 AS unique2, "
            "p.unique2 AS unique2_r FROM b JOIN p ON b.unique1 = p.unique1",
            b=b, p=p)

    def test_skewed_wisconsin_join(self, spark):
        b = synth_data.wisconsin(spark, n=1200, dataset="all-small", skew=True,
                                 seed=3)
        p = synth_data.wisconsin(spark, n=1200, dataset="all-small", seed=4)
        out = dynamic_hhj_join(b, p, "unique1", "unique1",
                               tight_cfg(memory_frames=24,
                                         frame_bytes=32 * 1024),
                               num_spark_partitions=4, size_column="rec_bytes")
        assert_equivalent(
            out.select("unique1", "unique2", "unique2_r"),
            "SELECT b.unique1 AS unique1, b.unique2 AS unique2, "
            "p.unique2 AS unique2_r FROM b JOIN p ON b.unique1 = p.unique1",
            b=b, p=p)

    def test_record_larger_than_frame_rejected(self, spark):
        b = spark.createDataFrame(pd.DataFrame({"k": [1, 2, 3],
                                                "rec_bytes": [100, 5000, 100]}))
        p = spark.createDataFrame(pd.DataFrame({"k": [1, 2, 3],
                                                "rec_bytes": [100, 100, 100]}))
        out = dynamic_hhj_join(b, p, "k", "k",
                               HHJConfig(memory_frames=8, frame_bytes=4096),
                               num_spark_partitions=1, size_column="rec_bytes")
        with pytest.raises(PythonException,
                           match="rec_bytes = 5000 B exceeds frame size 4096 B"):
            out.collect()


class TestSchemaHandling:
    def test_column_collisions_suffixed(self, spark):
        import pandas as pd
        a = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "v": ["a", "b"]}))
        b = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "v": ["x", "y"]}))
        out = dynamic_hhj_join(a, b, "k", "k",
                               HHJConfig(memory_frames=8, frame_bytes=4096,
                                         num_partitions=4, min_partitions=4),
                               num_spark_partitions=2)
        assert set(out.columns) == {"k", "v", "k_r", "v_r"}

    def test_null_keys_never_match(self, spark):
        import pandas as pd
        a = spark.createDataFrame(pd.DataFrame({"k": [1.0, None], "v": ["a", "n"]}))
        b = spark.createDataFrame(pd.DataFrame({"k": [1.0, None], "v": ["x", "m"]}))
        out = dynamic_hhj_join(a, b, "k", "k",
                               HHJConfig(memory_frames=8, frame_bytes=4096,
                                         num_partitions=4, min_partitions=4),
                               num_spark_partitions=2)
        rows = out.collect()
        assert len(rows) == 1
        assert rows[0]["v"] == "a" and rows[0]["v_r"] == "x"

    def test_empty_side_yields_empty(self, spark):
        import pandas as pd
        a = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "v": ["a", "b"]}))
        b = spark.createDataFrame([], schema="k long, w string")
        out = dynamic_hhj_join(a, b, "k", "k",
                               HHJConfig(memory_frames=8, frame_bytes=4096,
                                         num_partitions=4, min_partitions=4),
                               num_spark_partitions=2)
        assert out.count() == 0


def pair_frames(seed, n_build=3000, n_probe=750):
    """A build frame with about four rows per key and a unique-key probe
    frame; ``k`` and ``v`` collide."""
    rng = np.random.default_rng(seed)

    def floats(n):
        v = rng.random(n).round(3)
        v[rng.random(n) < 0.1] = np.nan
        return v

    def strings(choices, n):
        s = rng.choice(choices, n).astype(object)
        s[rng.random(n) < 0.05] = None
        return s

    build = pd.DataFrame({
        "k": rng.integers(0, n_probe, n_build),
        "v": floats(n_build),
        "flag": strings(["N", "R", "A"], n_build),
        "when": pd.Timestamp("1992-01-01")
        + pd.to_timedelta(rng.integers(0, 2500, n_build), unit="D"),
        "bid": np.arange(n_build),
    })
    probe = pd.DataFrame({
        "k": rng.permutation(n_probe),
        "v": floats(n_probe),
        "note": strings(["1-URGENT", "2-HIGH", "3-MEDIUM"], n_probe),
        "pid": np.arange(n_probe),
    })
    return build, probe


#: stats.summary() of each case, recorded with the row tuples as payloads
#: (the conversion that row indices replaced); keys and sizes are the same
PAIR_GOLDEN = {
    (0, 48): {
        "build_bytes_spilled": 165616, "probe_bytes_spilled": 32164,
        "total_bytes_spilled": 197780, "build_frames_spilled": 51,
        "probe_frames_spilled": 9, "partitions_spilled": 11,
        "frames_searched": 3014, "records_processed": 5675,
        "seq_write_ops": 11, "rand_write_ops": 22, "seq_frames_written": 38,
        "rand_frames_written": 22, "frames_read": 60, "rounds": 1,
        "bnlj_rounds": 0, "in_memory_rounds": 9, "role_reversals": 9,
    },
    (1, 24): {
        "build_bytes_spilled": 293128, "probe_bytes_spilled": 59856,
        "total_bytes_spilled": 352984, "build_frames_spilled": 101,
        "probe_frames_spilled": 18, "partitions_spilled": 22,
        "frames_searched": 1792, "records_processed": 7239,
        "seq_write_ops": 22, "rand_write_ops": 68, "seq_frames_written": 51,
        "rand_frames_written": 68, "frames_read": 119, "rounds": 1,
        "bnlj_rounds": 0, "in_memory_rounds": 18, "role_reversals": 18,
    },
}
PAIR_COLS = ["k", "v", "flag", "when", "bid", "k_r", "v_r", "note", "pid"]


class TestJoinPair:
    """One partition pair through ``_join_pair``, no Spark session."""

    @pytest.mark.parametrize("seed,frames", sorted(PAIR_GOLDEN))
    def test_equals_pandas_merge(self, tmp_path, seed, frames):
        build, probe = pair_frames(seed)
        cfg = tight_cfg(memory_frames=frames, use_disk_spill=True,
                        spill_dir=str(tmp_path))
        got, stats = _join_pair(build, probe, "k", "k", cfg, PAIR_COLS)
        assert stats.total_bytes_spilled > 0 and stats.role_reversals > 0
        assert stats.summary() == PAIR_GOLDEN[(seed, frames)]
        want = build.merge(probe.set_axis(PAIR_COLS[5:], axis=1),
                           left_on="k", right_on="k_r")
        assert list(got.columns) == PAIR_COLS
        pd.testing.assert_frame_equal(
            got.sort_values(["bid", "pid"]).reset_index(drop=True),
            want.sort_values(["bid", "pid"]).reset_index(drop=True))
        assert list(tmp_path.iterdir()) == []

    def test_size_column_missing_on_probe_rejected(self):
        build, probe = pair_frames(0, n_build=10, n_probe=10)
        build["size"] = 100
        with pytest.raises(ValueError, match="'size' is missing from the probe side"):
            _join_pair(build, probe, "k", "k", tight_cfg(),
                       PAIR_COLS[:5] + ["size"] + PAIR_COLS[5:],
                       size_column="size")

    def test_misspelled_size_column_rejected(self):
        build, probe = pair_frames(0, n_build=10, n_probe=10)
        # the real column holds rows larger than a 4096-B frame, so a
        # misspelled name must not fall back to estimates
        build["rec_bytes"] = 9000
        probe["rec_bytes"] = 100
        with pytest.raises(ValueError,
                           match="'rec_byte' is missing from the build side"):
            _join_pair(build, probe, "k", "k", tight_cfg(),
                       PAIR_COLS[:5] + ["rec_bytes"] + PAIR_COLS[5:] + ["rec_bytes_r"],
                       size_column="rec_byte")

    def test_empty_side_keeps_dtypes(self):
        build, probe = pair_frames(0, n_build=10, n_probe=10)
        got, stats = _join_pair(build, probe.iloc[:0], "k", "k",
                                tight_cfg(), PAIR_COLS)
        assert len(got) == 0 and stats.records_processed == 0
        assert list(got.dtypes) == list(build.dtypes) + list(probe.dtypes)
