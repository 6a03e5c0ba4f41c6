#!/usr/bin/env python
"""Run the Dynamic HHJ operator inside Spark executors on TPC-H-lite.

Joins customer ⋈ orders and orders ⋈ lineitem with a 64 × 4 KB frame
budget per partition pair and verifies both results against the DuckDB
oracle. At the default SF 0.01, customer ⋈ orders fits that budget and
spills nothing; orders ⋈ lineitem spills and recurses inside the
executors.

Run: ``spark-submit jobs/spark_dynamic_hhj.py [sf]`` or plain
``python jobs/spark_dynamic_hhj.py``.
"""
import os
import sys

os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    "--master local[*] --driver-memory 8g "
    "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell",
)

from pyspark.sql import SparkSession  # noqa: E402

from repro import synth_data  # noqa: E402
from repro.core.join import HHJConfig  # noqa: E402
from repro.core.spark_join import dynamic_hhj_join  # noqa: E402
from repro.oracle import assert_equivalent  # noqa: E402


def main() -> None:
    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 0.01
    spark = (SparkSession.builder.appName("dynamic-hhj")
             .config("spark.sql.shuffle.partitions", "16")
             .config("spark.sql.execution.arrow.pyspark.enabled", "true")
             .config("spark.sql.autoBroadcastJoinThreshold", -1)
             .getOrCreate())
    spark.sparkContext.setLogLevel("ERROR")

    cfg = HHJConfig(memory_frames=64, frame_bytes=4096, min_partitions=8)

    c = synth_data.customer(spark, sf=sf)
    o = synth_data.orders(spark, sf=sf)
    out = dynamic_hhj_join(c, o, "c_custkey", "o_custkey", cfg,
                           num_spark_partitions=8)
    res = out.select("c_custkey", "o_orderkey", "o_totalprice")
    assert_equivalent(
        res,
        "SELECT c_custkey, o_orderkey, o_totalprice "
        "FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey",
        customer=c, orders=o)
    print(f"customer ⋈ orders OK ({res.count()} rows, oracle-verified)")

    li = synth_data.lineitem(spark, sf=sf)
    out2 = dynamic_hhj_join(o, li, "o_orderkey", "l_orderkey", cfg,
                            num_spark_partitions=8)
    res2 = out2.select("o_orderkey", "l_partkey", "l_quantity")
    assert_equivalent(
        res2,
        "SELECT o_orderkey, l_partkey, l_quantity "
        "FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey",
        orders=o, lineitem=li)
    print(f"orders ⋈ lineitem OK ({res2.count()} rows, oracle-verified)")
    spark.stop()


if __name__ == "__main__":
    main()
