"""Benchmark: the Spark-executor Dynamic HHJ at SF=0.1 (~100 MB inputs).

Measures the end-to-end DataFrame pipeline — Catalyst hash partitioning,
the per-partition Dynamic HHJ inside executors, and a result count —
against Spark's own shuffled hash/sort-merge join on the identical query
as the engine baseline. It does not spill: at SF 0.1 with 16 partition
pairs, each pair's customer side fits in ``memory_frames=256`` and the
operator writes 0 bytes. ``perfbench``'s ``spark_tpch_spill`` workload
covers the spilling path.
"""
import pytest

from repro import synth_data
from repro.core.join import HHJConfig
from repro.core.spark_join import dynamic_hhj_join

SF = 0.1


@pytest.fixture(scope="module")
def inputs(spark):
    o = synth_data.orders(spark, sf=SF).cache()
    c = synth_data.customer(spark, sf=SF).cache()
    o.count(), c.count()
    return c, o


def test_spark_dynamic_hhj_sf01(benchmark, inputs):
    c, o = inputs
    cfg = HHJConfig(memory_frames=256, frame_bytes=32 * 1024, min_partitions=20)

    def run():
        out = dynamic_hhj_join(c, o, "c_custkey", "o_custkey", cfg,
                               num_spark_partitions=16)
        return out.count()

    n = benchmark.pedantic(run, rounds=2, iterations=1)
    assert n == o.count()   # every order matches exactly one customer


def test_spark_builtin_join_baseline_sf01(benchmark, inputs):
    c, o = inputs

    def run():
        return c.join(o, c.c_custkey == o.o_custkey).count()

    n = benchmark.pedantic(run, rounds=2, iterations=1)
    assert n == o.count()
