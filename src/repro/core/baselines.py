"""Baseline join algorithms (paper §2.1 and §8.1).

The paper positions Dynamic HHJ against its ancestors; we implement each
of them over the same frame substrate so their I/O accounting is
comparable, plus a naive dict join used as the record-level correctness
oracle in tests.

* :func:`naive_hash_join` — reference result, no memory model.
* :func:`grace_hash_join` — partition *both* inputs fully to disk first,
  then join partition pairs (recursing while a build partition exceeds
  memory).
* :func:`simple_hash_join` — two partitions: fill memory with a
  hash-table partition, spill the rest, repeat over the spilled remainder.
* :func:`static_hybrid_hash_join` — original HHJ: Eq. 2 decides upfront
  which single partition stays memory-resident; the other B partitions
  write to disk from the start.
* :func:`block_nested_loop_join` — the §8.1 bail-out operator.
"""
from __future__ import annotations

import math
from typing import Any, Iterable, Iterator, List, Tuple

from .partitions import eq2_disk_partitions
from .split import norm_key, split_partition
from .stats import JoinStats

Record = Tuple[Any, int, Any]
Pair = Tuple[Any, Any]


def naive_hash_join(build: Iterable[Record], probe: Iterable[Record]) -> List[Pair]:
    """Reference equijoin: (build_payload, probe_payload) for key matches."""
    table: dict = {}
    for k, _s, pl in build:
        table.setdefault(norm_key(k), []).append(pl)
    out: List[Pair] = []
    for k, _s, pl in probe:
        for b in table.get(norm_key(k), ()):
            out.append((b, pl))
    return out


def _frames_of(records: List[Record], frame_bytes: int) -> int:
    return max(1, math.ceil(sum(r[1] for r in records) / frame_bytes))


def grace_hash_join(build: Iterable[Record], probe: Iterable[Record],
                    memory_frames: int, frame_bytes: int = 32 * 1024,
                    num_partitions: int | None = None,
                    stats: JoinStats | None = None,
                    _level: int = 0) -> List[Pair]:
    """Grace: write every partition of both inputs to disk, then join pairs."""
    stats = stats if stats is not None else JoinStats(frame_bytes)
    build = list(build)
    probe = list(probe)
    if _level == 0:
        stats.rounds += 1
    p = num_partitions or max(2, min(memory_frames - 1, 20))
    b_parts: List[List[Record]] = [[] for _ in range(p)]
    p_parts: List[List[Record]] = [[] for _ in range(p)]
    for rec in build:
        b_parts[split_partition(norm_key(rec[0]), p, _level)].append(rec)
    for rec in probe:
        p_parts[split_partition(norm_key(rec[0]), p, _level)].append(rec)
    # every partition is written out (one sequential chunk each)
    for pid in range(p):
        for side, parts in (("build", b_parts), ("probe", p_parts)):
            n = _frames_of(parts[pid], frame_bytes) if parts[pid] else 0
            by = sum(r[1] for r in parts[pid])
            if n:
                stats.record_write(n, by, side, pid, _level)  # type: ignore[arg-type]
    out: List[Pair] = []
    for pid in range(p):
        if not b_parts[pid] or not p_parts[pid]:
            continue
        b_frames = _frames_of(b_parts[pid], frame_bytes)
        stats.frames_read += b_frames + _frames_of(p_parts[pid], frame_bytes)
        if b_frames <= memory_frames or _level > 20:
            out.extend(naive_hash_join(b_parts[pid], p_parts[pid]))
        else:
            out.extend(grace_hash_join(b_parts[pid], p_parts[pid], memory_frames,
                                       frame_bytes, num_partitions, stats,
                                       _level + 1))
    grace_hash_join.last_stats = stats  # type: ignore[attr-defined]
    return out


def simple_hash_join(build: Iterable[Record], probe: Iterable[Record],
                     memory_frames: int, frame_bytes: int = 32 * 1024,
                     stats: JoinStats | None = None) -> List[Pair]:
    """Simple: keep what fits in memory, spill the rest, loop over passes."""
    stats = stats if stats is not None else JoinStats(frame_bytes)
    budget = memory_frames * frame_bytes
    b_rest = list(build)
    p_rest = list(probe)
    out: List[Pair] = []
    passno = 0
    while b_rest:
        stats.rounds += 1
        table: dict = {}
        used = 0
        b_next: List[Record] = []
        for k, s, pl in b_rest:
            if used + s <= budget:
                table.setdefault(norm_key(k), []).append(pl)
                used += s
            else:
                b_next.append((k, s, pl))
        if b_next:
            n = _frames_of(b_next, frame_bytes)
            stats.record_write(n, sum(r[1] for r in b_next), "build", 1, passno)
        p_next: List[Record] = []
        for k, s, pl in p_rest:
            hits = table.get(norm_key(k))
            if hits is not None:
                for b in hits:
                    out.append((b, pl))
            if b_next:  # probe rows may match build rows of later passes
                p_next.append((k, s, pl))
        if b_next and p_next:
            stats.record_write(_frames_of(p_next, frame_bytes),
                               sum(r[1] for r in p_next), "probe", 1, passno)
        b_rest, p_rest = b_next, p_next
        passno += 1
        if passno > 1000:
            raise RuntimeError("simple hash join did not converge")
    simple_hash_join.last_stats = stats  # type: ignore[attr-defined]
    return out


def static_hybrid_hash_join(build: Iterable[Record], probe: Iterable[Record],
                            memory_frames: int, frame_bytes: int = 32 * 1024,
                            fudge: float = 1.3,
                            stats: JoinStats | None = None,
                            _level: int = 0) -> List[Pair]:
    """Original HHJ with perfect a-priori sizing (Shapiro Eq. 2).

    Partition 0 is memory-resident; partitions 1..B stream to disk.
    """
    stats = stats if stats is not None else JoinStats(frame_bytes)
    build = list(build)
    probe = list(probe)
    stats.rounds += 1
    r_frames = _frames_of(build, frame_bytes)
    b = max(0, eq2_disk_partitions(r_frames, memory_frames, fudge))
    p = b + 1
    out: List[Pair] = []
    if p == 1:
        static_hybrid_hash_join.last_stats = stats  # type: ignore[attr-defined]
        return naive_hash_join(build, probe)
    b_parts: List[List[Record]] = [[] for _ in range(p)]
    p_parts: List[List[Record]] = [[] for _ in range(p)]
    for rec in build:
        b_parts[split_partition(norm_key(rec[0]), p, _level)].append(rec)
    for rec in probe:
        p_parts[split_partition(norm_key(rec[0]), p, _level)].append(rec)
    for pid in range(1, p):
        for side, parts in (("build", b_parts), ("probe", p_parts)):
            if parts[pid]:
                stats.record_write(_frames_of(parts[pid], frame_bytes),
                                   sum(r[1] for r in parts[pid]),
                                   side, pid, _level)  # type: ignore[arg-type]
    out.extend(naive_hash_join(b_parts[0], p_parts[0]))
    for pid in range(1, p):
        if not b_parts[pid] or not p_parts[pid]:
            continue
        stats.frames_read += (_frames_of(b_parts[pid], frame_bytes)
                              + _frames_of(p_parts[pid], frame_bytes))
        if _level > 20:
            out.extend(naive_hash_join(b_parts[pid], p_parts[pid]))
        else:
            out.extend(static_hybrid_hash_join(b_parts[pid], p_parts[pid],
                                               memory_frames, frame_bytes, fudge,
                                               stats, _level + 1))
    static_hybrid_hash_join.last_stats = stats  # type: ignore[attr-defined]
    return out


def block_nested_loop_join(build: Iterable[Record], probe: Iterable[Record],
                           memory_frames: int, frame_bytes: int = 32 * 1024,
                           stats: JoinStats | None = None) -> List[Pair]:
    """§8.1 bail-out operator as a standalone baseline."""
    stats = stats if stats is not None else JoinStats(frame_bytes)
    block_bytes = max(frame_bytes, (memory_frames - 2) * frame_bytes)
    probe_cache = list(probe)
    out: List[Pair] = []
    block: dict = {}
    used = 0

    def flush() -> None:
        for k, _s, pl in probe_cache:
            stats.comparisons += 1
            for bpl in block.get(norm_key(k), ()):
                out.append((bpl, pl))

    for k, s, pl in build:
        stats.records_processed += 1
        if used + s > block_bytes and block:
            flush()
            block, used = {}, 0
        block.setdefault(norm_key(k), []).append(pl)
        used += s
    if block:
        flush()
    block_nested_loop_join.last_stats = stats  # type: ignore[attr-defined]
    return out
