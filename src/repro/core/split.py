"""Deterministic split (partitioning hash) functions and key normalization.

The split function routes a record to a partition from its join-key
value. Recursion levels must use *different* split functions, otherwise
every record of a spilled partition re-hashes into a single bucket and
the operator can never make progress. We derive a family of functions
from one 64-bit mixer seeded per (level, round).

Python's builtin ``hash`` is process-salted for strings, which would make
Spark-executor runs non-deterministic across workers — hence the explicit
CRC/splitmix construction.

Two entry points compute the same function:

* :func:`split_partition` — one key at a time, any key type. It is the
  definition.
* :func:`split_partitions` — a whole chunk of keys at once. The operator
  reads its inputs in chunks (its input buffer; see
  :mod:`repro.core.join`) and routes each chunk with this function: a
  numpy ``uint64`` splitmix64 over an ``int64`` view of the keys. A chunk
  holding any key that is not an ``int`` (or ``bool``), or an int outside
  int64, falls back to :func:`split_partition` per key, so the result
  equals ``[split_partition(k, p, level) for k in keys]`` for every input.

:func:`norm_key` canonicalizes join keys (``1``, ``1.0`` and
``np.int64(1)`` join together). The operator applies it once per record,
on entry, and the record-level oracle applies the same function.
"""
from __future__ import annotations

import zlib
from typing import Any, List, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SPLIT_SEED = 0xA5A5       # split function of level l: stable_hash seed 0xA5A5 + l
#: key types whose chunk takes the vectorized path of split_partitions
_INT_TYPES = frozenset((int, bool))


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D4A29B9D49AE35) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def stable_hash(key: Any, seed: int = 0) -> int:
    """64-bit deterministic hash of a join-key value.

    Integers (incl. numpy ints) take the fast arithmetic path; any other
    type is hashed from its canonical ``repr`` bytes via CRC32 and then
    mixed. Floats that are integral are first normalized to int so that
    Spark's float64 columns and DuckDB's integers agree.
    """
    if isinstance(key, bool):
        key = int(key)
    if isinstance(key, float) and key.is_integer():
        key = int(key)
    if isinstance(key, int):
        return _splitmix64((key ^ (seed * _GOLDEN)) & _MASK64)
    if isinstance(key, (bytes, bytearray)):
        base = zlib.crc32(bytes(key))
    else:
        try:
            # numpy scalar ints
            base = int(key)
            return _splitmix64((base ^ (seed * _GOLDEN)) & _MASK64)
        except (TypeError, ValueError):
            base = zlib.crc32(repr(key).encode("utf-8"))
    return _splitmix64((base ^ (seed * _GOLDEN)) & _MASK64)


def split_partition(key: Any, num_partitions: int, level: int = 0) -> int:
    """Partition id for ``key`` at recursion ``level`` (0 = first round)."""
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    return stable_hash(key, seed=_SPLIT_SEED + level) % num_partitions


def split_partitions(keys: Sequence[Any], num_partitions: int,
                     level: int = 0) -> List[int]:
    """``[split_partition(k, num_partitions, level) for k in keys]``, with
    the hash of an all-integer chunk computed in one numpy pass."""
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    if set(map(type, keys)) <= _INT_TYPES:
        try:
            x = np.fromiter(keys, dtype=np.int64, count=len(keys))
        except OverflowError:      # an int outside int64
            pass
        else:
            # the scalar path's (key ^ seed * GOLDEN) & MASK64, on two's complement
            seed = (_SPLIT_SEED + level) * _GOLDEN & _MASK64
            x = x.view(np.uint64) ^ np.uint64(seed)
            x += np.uint64(_GOLDEN)
            x ^= x >> np.uint64(30)
            x *= np.uint64(0xBF58476D1CE4E5B9)
            x ^= x >> np.uint64(27)
            x *= np.uint64(0x94D4A29B9D49AE35)
            x ^= x >> np.uint64(31)
            x %= np.uint64(num_partitions)
            return x.tolist()
    return [split_partition(k, num_partitions, level) for k in keys]


def norm_key(key: Any) -> Any:
    """Canonicalize keys so 1, 1.0 and np.int64(1) all join together."""
    if hasattr(key, "item"):
        key = key.item()
    if isinstance(key, float) and key.is_integer():
        key = int(key)
    return key


def bucket_hash(key: Any, level: int = 0) -> int:
    """Hash-table hash, independent of the same level's split function."""
    return stable_hash(key, seed=0x5A5A0 + level)
