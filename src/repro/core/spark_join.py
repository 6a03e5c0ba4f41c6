"""Dynamic HHJ as a Spark DataFrame→DataFrame operator.

AsterixDB executes a join by hash-partitioning both inputs across nodes
and running the local Dynamic HHJ per node. We mirror that exactly at the
Spark layer (per the repro plan): Catalyst hash-partitions both inputs
into N partition pairs (``pmod(xxhash64(key), N)``), and
``cogroup(...).applyInPandas`` runs one
:class:`~repro.core.join.DynamicHybridHashJoin` instance — with its own
frame budget, insertion/victim/growth policies, and real tempfile spills
— inside the executor for each pair.

Memory model: ``cogroup`` hands each partition pair to the executor's
Python worker as two pandas frames, so one cogroup group is resident in
full. The operator's records are ``(key, nominal size, row index)``: its
frames and its spill files hold keys and row positions in those frames,
not the rows, and each row is charged its nominal size. The frame budget
therefore drives the paper's spill decisions (which partitions spill,
how many frames and write operations), not executor memory. The operator
returns pairs of row indices, and the output is assembled column by
column with ``take`` on the two frames.

The result is a plain DataFrame, so Catalyst plans everything around the
operator; the operator itself is the paper's contribution and lives at
the record level where the paper defines it.
"""
from __future__ import annotations

import dataclasses
from itertools import chain
from typing import List, Optional, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import StructField, StructType

from .join import DynamicHybridHashJoin, HHJConfig
from .stats import JoinStats

_PART_COL = "__hhj_part"


def _output_schema(build: DataFrame, probe: DataFrame,
                   suffix: str) -> Tuple[StructType, List[str]]:
    """Build-side fields plus probe-side fields, renaming collisions;
    returns the schema and its column names."""
    bfields = list(build.schema.fields)
    bnames = {f.name for f in bfields}
    pfields = []
    for f in probe.schema.fields:
        name = f.name
        while name in bnames:
            name = name + suffix
        pfields.append(StructField(name, f.dataType, True))
        bnames.add(name)
    schema = StructType(bfields + pfields)
    return schema, [f.name for f in schema.fields]


def _estimate_sizes(pdf: pd.DataFrame, side: str, size_column: Optional[str],
                    frame_bytes: int) -> list:
    """Per-row byte sizes: the explicit size column, or a deep estimate.

    A ``size_column`` that this ``side`` lacks is an error, so both sides
    use explicit sizes or neither does. An explicit size larger than a
    frame is an error, as it is for the record-level operator. The
    estimate gives every row the frame's average deep memory footprint
    (at least 64 B), clipped to the frame size: it is a nominal charge,
    not a size the caller asked for.
    """
    if size_column is not None:
        if size_column not in pdf.columns:
            raise ValueError(f"size column {size_column!r} is missing from "
                             f"the {side} side")
        sizes = [int(s) for s in pdf[size_column].tolist()]
        largest = max(sizes, default=0)
        if largest > frame_bytes:
            raise ValueError(f"{size_column} = {largest} B exceeds frame size "
                             f"{frame_bytes} B")
        return sizes
    n = max(1, len(pdf))
    per_row = max(64, int(pdf.memory_usage(deep=True).sum() / n))
    return [min(per_row, frame_bytes)] * len(pdf)


def _join_pair(bpdf: pd.DataFrame, ppdf: pd.DataFrame,
               build_key: str, probe_key: str, cfg: HHJConfig,
               out_cols: List[str],
               size_column: Optional[str] = None) -> Tuple[pd.DataFrame, JoinStats]:
    """Join one partition pair with the Dynamic HHJ operator.

    Records are ``(key, size, row index)``; the operator returns
    ``(build index, probe index)`` pairs, and the result is the build rows
    taken by the first and the probe rows taken by the second, side by
    side under ``out_cols``. The operator does not run when a side is
    empty. Returns the result and the operator's stats.
    """
    fb = cfg.frame_bytes
    build = zip(bpdf[build_key].tolist(),
                _estimate_sizes(bpdf, "build", size_column, fb), range(len(bpdf)))
    probe = zip(ppdf[probe_key].tolist(),
                _estimate_sizes(ppdf, "probe", size_column, fb), range(len(ppdf)))
    op = DynamicHybridHashJoin(cfg)
    pairs = op.run_collect(build, probe) if len(bpdf) and len(ppdf) else []
    idx = np.fromiter(chain.from_iterable(pairs), np.int64,
                      2 * len(pairs)).reshape(-1, 2)
    out = pd.concat([bpdf.take(idx[:, 0]).reset_index(drop=True),
                     ppdf.take(idx[:, 1]).reset_index(drop=True)], axis=1)
    out.columns = out_cols
    return out, op.stats


def dynamic_hhj_join(build: DataFrame, probe: DataFrame,
                     build_key: str, probe_key: str,
                     cfg: Optional[HHJConfig] = None,
                     num_spark_partitions: Optional[int] = None,
                     size_column: Optional[str] = None,
                     suffix: str = "_r") -> DataFrame:
    """Equi-join ``build ⋈ probe`` with the Dynamic HHJ operator.

    Parameters mirror AsterixDB's setup: ``cfg.memory_frames`` is the
    frame budget *per Spark partition pair* (per-node budget), and
    ``num_spark_partitions`` is the cluster-level hash fan-out (defaults
    to the session's shuffle parallelism). ``size_column`` names an
    integer column carrying each record's nominal size in bytes (the
    Wisconsin datasets provide one); both sides must carry it, and a size
    above ``cfg.frame_bytes`` raises ``ValueError``. Otherwise sizes are
    estimated from the pandas memory footprint.

    Returns all build columns followed by all probe columns (collisions
    suffixed). Inner-join semantics: null keys never match.
    """
    spark = build.sparkSession
    if cfg is None:
        cfg = HHJConfig(memory_frames=256)
    n = num_spark_partitions or int(
        spark.conf.get("spark.sql.shuffle.partitions", "16")
    )
    out_schema, out_cols = _output_schema(build, probe, suffix)
    b = (build.where(F.col(build_key).isNotNull())
              .withColumn(_PART_COL, F.pmod(F.xxhash64(F.col(build_key)), F.lit(n))))
    p = (probe.where(F.col(probe_key).isNotNull())
              .withColumn(_PART_COL, F.pmod(F.xxhash64(F.col(probe_key)), F.lit(n))))
    # executors always spill to real tempfiles
    pair_cfg = dataclasses.replace(cfg, use_disk_spill=True)

    def join_pair(bpdf: pd.DataFrame, ppdf: pd.DataFrame) -> pd.DataFrame:
        return _join_pair(bpdf.drop(columns=[_PART_COL]),
                          ppdf.drop(columns=[_PART_COL]), build_key, probe_key,
                          pair_cfg, out_cols, size_column)[0]

    return (b.groupBy(_PART_COL)
             .cogroup(p.groupBy(_PART_COL))
             .applyInPandas(join_pair, schema=out_schema))
