"""Local-mode Spark session for the benchmark, confined to the checkout."""
from __future__ import annotations

import os
import shlex
import subprocess
from pathlib import Path


def start_session(out: Path):
    """A session with at most 4 task slots whose JVM, Python workers,
    shuffle files and temporary files all stay under ``out``."""
    src = str(out.parent / "src")
    # executors import repro through the workers' PYTHONPATH
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    tmp = out / "tmp"
    local = out / "spark-local"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)    # shuffle and block files
    slots = min(4, os.cpu_count() or 1)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{slots}]", "--driver-memory 2g",
        "--driver-java-options", shlex.quote(f"-Djava.io.tmpdir={tmp}"),
        "--conf spark.driver.host=127.0.0.1", "pyspark-shell"])
    from pyspark.sql import SparkSession
    spark = (SparkSession.builder.appName("perfbench")
             .config("spark.ui.enabled", "false")
             .config("spark.ui.showConsoleProgress", "false")
             .config("spark.sql.shuffle.partitions", "16")
             .config("spark.sql.execution.arrow.pyspark.enabled", "true")
             # a shuffle join for the built-in reference, as in the tests
             .config("spark.sql.autoBroadcastJoinThreshold", -1)
             .config("spark.sql.warehouse.dir", str(out / "spark-warehouse"))
             .config("spark.executorEnv.PYTHONPATH", os.environ["PYTHONPATH"])
             .getOrCreate())
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop the session and wait for the JVM, which exits when its stdin
    closes; its Python workers exit with it."""
    from pyspark import SparkContext
    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
