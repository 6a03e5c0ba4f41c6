"""Growth policies for spilled partitions (paper §6).

* **NG-NS (No Grow – No Steal)** — once a partition has spilled it keeps
  exactly one frame, its output buffer. When the buffer fills, it is
  flushed to the partition's spill file as a single-frame (random) write.
  Victims under memory pressure are always memory-resident partitions.
* **G-S (Grow – Steal)** — spilled partitions may keep acquiring frames
  while memory allows. Under memory pressure, spilled partitions are
  victimized *first* (steal): the spilled partition holding the most
  frames flushes them as one multi-frame (sequential) write, shrinking
  back to a single buffer. Only when no spilled partition has more than
  one frame is a memory-resident victim selected.

Both policies issue the partition's *initial* spill the same way: all of
its in-memory frames go to disk in one chunk, and the partition keeps
one cleared frame as its output buffer. That matches the paper's §6.1
analysis where both policies write (M−x)/(P−x) frames sequentially on
first spill and differ only in how the remainder is written.
"""
from __future__ import annotations

from typing import List, Optional, Sequence

from ..frames.frame import Record
from ..frames.partition import Partition
from ..frames.pool import BufferPool
from ..core.stats import JoinStats, Phase
from ..victim.policies import VictimContext, VictimPolicy


class GrowthPolicy:
    """Base growth policy: shared initial-spill mechanics."""

    name = "base"

    def initial_spill(self, part: Partition, pool: BufferPool, stats: JoinStats,
                      phase: Phase, round_no: int) -> int:
        """Spill a memory-resident partition for the first time.

        Writes all its frames as one sequential chunk, keeps one cleared
        output-buffer frame, releases the rest. Returns frames freed.
        """
        assert not part.spilled, f"partition {part.pid} already spilled"
        n = part.num_frames
        payload = part.in_memory_bytes
        if n > 0:
            nonempty = [f for f in part.frames if f.used > 0]
            part.flush_frames(nonempty)
            stats.record_write(len(nonempty), payload, phase, part.pid, round_no)
            # keep the newest frame object as the (cleared) output buffer
            buffer = part.frames[-1]
            buffer.clear()
            part.frames = [buffer]
            pool.release(n - 1)
            freed = n - 1
        else:
            # spilling an empty partition still needs a buffer eventually;
            # allocate lazily on first insert instead.
            freed = 0
        part.spilled = True
        stats.partitions_spilled += 1
        return freed

    def flush_spilled(self, part: Partition, pool: BufferPool, stats: JoinStats,
                      phase: Phase, round_no: int, keep_buffer: bool = True) -> int:
        """Flush a spilled partition's current frames to its file.

        One write op covering all its frames (sequential iff >1 frame).
        Returns frames freed.
        """
        n = part.num_frames
        if n == 0:
            return 0
        payload = part.in_memory_bytes
        if payload == 0:
            # only empty frames — nothing to write, just shrink
            if keep_buffer:
                pool.release(n - 1)
                part.frames = part.frames[-1:]
                return n - 1
            pool.release(n)
            part.frames = []
            return n
        nonempty = [f for f in part.frames if f.used > 0]
        part.flush_frames(nonempty)
        stats.record_write(len(nonempty), payload, phase, part.pid, round_no)
        if keep_buffer:
            buffer = part.frames[-1]
            buffer.clear()
            part.frames = [buffer]
            pool.release(n - 1)
            return n - 1
        part.frames = []
        pool.release(n)
        return n

    # -- hooks the operator calls ---------------------------------------
    def insert_into_spilled(self, part: Partition, record: Record,
                            pool: BufferPool, insertion, stats: JoinStats,
                            phase: Phase, round_no: int) -> bool:
        """Insert a ``(key, size, payload)`` record routed to an
        already-spilled partition.

        Returns True on success; False means memory pressure (caller must
        free memory and retry — only possible under G-S).
        """
        raise NotImplementedError

    def free_memory(self, partitions: Sequence[Partition], ctx: VictimContext,
                    pool: BufferPool, victim: VictimPolicy, stats: JoinStats,
                    phase: Phase, round_no: int) -> int:
        """Free at least some frames; returns the number freed (0 = stuck)."""
        raise NotImplementedError


class NoGrowNoSteal(GrowthPolicy):
    """NG-NS: spilled partitions own exactly one output-buffer frame."""

    name = "ng-ns"

    def insert_into_spilled(self, part, record, pool, insertion, stats,
                            phase, round_no) -> bool:
        if part.num_frames == 0:
            if not pool.can_allocate(1):
                return False
            pool.allocate(1)
            part.new_frame()
        assert part.num_frames == 1, "NG-NS invariant: one buffer per spilled partition"
        buf = part.frames[0]
        if not buf.fits(record[1]):
            # single-frame flush → random write (§6.1)
            part.flush_frames([buf])
            stats.record_write(1, buf.used, phase, part.pid, round_no)
            buf.clear()
        buf.insert(record)
        return True

    def free_memory(self, partitions, ctx, pool, victim, stats,
                    phase, round_no) -> int:
        candidates = [p for p in partitions if not p.spilled and p.num_frames >= 1]
        if not candidates:
            return 0
        target = victim.choose(candidates, ctx)
        freed = self.initial_spill(target, pool, stats, phase, round_no)
        if target_insertion := getattr(target, "insertion", None):
            target_insertion.notify_spilled()
        return freed


class GrowSteal(GrowthPolicy):
    """G-S: spilled partitions grow while memory lasts; steal from them first."""

    name = "g-s"

    def insert_into_spilled(self, part, record, pool, insertion, stats,
                            phase, round_no) -> bool:
        size = record[1]
        idx: Optional[int] = insertion.find_frame(part.frames, size) if part.frames else None
        if idx is not None:
            part.frames[idx].insert(record)
            insertion.notify_inserted(idx, size, appended=False)
            return True
        if pool.can_allocate(1):
            pool.allocate(1)
            part.new_frame().insert(record)
            insertion.notify_inserted(part.num_frames - 1, size, appended=True)
            return True
        return False

    def free_memory(self, partitions, ctx, pool, victim, stats,
                    phase, round_no) -> int:
        # Steal: flush the spilled partition holding the most frames.
        spilled = [p for p in partitions if p.spilled and p.num_frames > 1]
        if spilled:
            target = max(spilled, key=lambda p: (p.num_frames, -p.pid))
            freed = self.flush_spilled(target, pool, stats, phase, round_no)
            if target_insertion := getattr(target, "insertion", None):
                target_insertion.notify_spilled()
            return freed
        candidates = [p for p in partitions if not p.spilled and p.num_frames >= 1]
        if not candidates:
            return 0
        target = victim.choose(candidates, ctx)
        freed = self.initial_spill(target, pool, stats, phase, round_no)
        if target_insertion := getattr(target, "insertion", None):
            target_insertion.notify_spilled()
        return freed


def make_policy(name: str) -> GrowthPolicy:
    """Construct a growth policy from its canonical name."""
    table = {"ng-ns": NoGrowNoSteal, "g-s": GrowSteal}
    if name not in table:
        raise KeyError(f"unknown growth policy {name!r}; choose from {sorted(table)}")
    return table[name]()
