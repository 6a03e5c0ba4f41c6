"""The Dynamic Hybrid Hash Join operator (paper §2.3, §5–§8).

A faithful record-at-a-time implementation of AsterixDB's Dynamic HHJ
with every design knob the paper studies made pluggable:

* number of partitions (§4): explicit, or the paper's robust policy
  (default 20; Eq. 2 with a lower bound of 20 for later rounds);
* partition insertion (§5): any :mod:`repro.insertion` policy;
* growth policy for spilled partitions (§6): NG-NS or G-S;
* victim selection (§7): any of the 13 :mod:`repro.victim` policies;
* the §8 optimizations: role reversal, bail-out to block-nested-loop
  join, in-memory hash join shortcut, and reloading spilled partitions.

Records are ``(key, size_bytes, payload)`` triples. In *stats-only* use
(the experiment harnesses) payloads may be ``None``; the operator's
control flow depends only on keys and sizes, so measurements are
identical either way. Each record is stored once: frames, probe buffers
and spill files hold the tuples the operator was given (or re-read from
a spill file), never a re-wrapped copy. All I/O is accounted in
:class:`JoinStats` and the actual write trace, which the storage model
replays into device times.

The operator reads both inputs, and every spill file it re-reads, in
chunks of :data:`CHUNK_RECORDS` records and routes a whole chunk to its
partitions with one :func:`~repro.core.split.split_partitions` call. The
chunk is the operator's input buffer. Like the input frame of AsterixDB's
operator, it sits outside the frame budget ``memory_frames``: it holds
records that have been read but not yet placed in a partition frame, and
no policy sees it. Keys are normalized once, when a record enters the
operator; spilled records keep the normalized key.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from ..frames.frame import Record
from ..frames.partition import Partition
from ..frames.pool import BufferPool
from ..frames.spillfile import DiskSpillFile, MemorySpillFile
from ..growth.policies import GrowthPolicy
from ..growth.policies import make_policy as make_growth
from ..insertion.policies import InsertionPolicy, RandomPct
from ..insertion.policies import make_policy as make_insertion
from ..victim.policies import VictimContext, VictimPolicy
from ..victim.policies import make_policy as make_victim
from .partitions import TABLE1_FUDGE, robust_num_partitions
from .split import norm_key, split_partitions
from .stats import JoinStats

Pair = Tuple[Any, Any]

#: records per input chunk: the operator's input buffer (module docstring)
CHUNK_RECORDS = 4096


@dataclass
class HHJConfig:
    """All knobs of one Dynamic HHJ execution."""

    memory_frames: int
    frame_bytes: int = 32 * 1024
    num_partitions: Optional[int] = None     # None → robust §4 policy
    insertion: str = "append(8)"
    victim: str = "largest-size"
    growth: str = "ng-ns"
    fudge: float = TABLE1_FUDGE
    min_partitions: int = 20                 # §4 lower bound for later rounds
    role_reversal: bool = True               # §8.2
    bailout: bool = True                     # §8.1
    bailout_threshold: float = 0.2           # <20% shrink → BNLJ
    in_memory_shortcut: bool = True          # §8.3
    reload_spilled: bool = True              # §8.5
    max_levels: int = 30
    use_disk_spill: bool = False             # real tempfiles (Spark executors)
    spill_dir: Optional[str] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.memory_frames < 3:
            raise ValueError("Dynamic HHJ needs >= 3 memory frames")
        if self.num_partitions is not None and not (
            2 <= self.num_partitions <= self.memory_frames
        ):
            raise ValueError(
                f"num_partitions must lie in [2, memory_frames={self.memory_frames}]"
            )


def _chunks(records: Iterable[Record]) -> Iterator[List[Record]]:
    """Consecutive lists of up to CHUNK_RECORDS records (an input, or a
    spill file's records for a later round, keys already normalized)."""
    it = iter(records)
    while chunk := list(islice(it, CHUNK_RECORDS)):
        yield chunk


def _entry_chunks(records: Iterable[Record]) -> Iterator[List[Record]]:
    """Input chunks with normalized keys; a chunk of plain ints is as given."""
    for chunk in _chunks(records):
        if {type(r[0]) for r in chunk} <= {int}:
            yield chunk
        else:
            yield [(norm_key(k), size, payload) for k, size, payload in chunk]


def _check_budget(partitions: List[Partition], pool: BufferPool) -> None:
    """Every frame the pool counts is held by a partition, and none more.

    A policy that drops a partition's frames without releasing them, or
    allocates frames it never hands to a partition, breaks the budget the
    operator advertises; raise rather than ``assert``, which ``-O`` strips.
    """
    held = sum(q.num_frames for q in partitions)
    if pool.allocated != held:
        raise RuntimeError(f"buffer pool counts {pool.allocated} frames but "
                           f"partitions hold {held}")


class DynamicHybridHashJoin:
    """One (multi-round) Dynamic HHJ execution with its statistics."""

    def __init__(self, cfg: HHJConfig) -> None:
        self.cfg = cfg
        self.stats = JoinStats(frame_bytes=cfg.frame_bytes)
        self.growth: GrowthPolicy = make_growth(cfg.growth)
        self.victim: VictimPolicy = make_victim(cfg.victim)
        self.victim.reset()

    # -- factories -------------------------------------------------------
    def _spill_file_factory(self) -> Callable[[], Any]:
        if self.cfg.use_disk_spill:
            return lambda: DiskSpillFile(dir=self.cfg.spill_dir)
        return MemorySpillFile

    def _insertion_for(self, pid: int) -> InsertionPolicy:
        ins = self.cfg.insertion
        if callable(ins):
            # experiment harnesses pass a factory pid → policy instance
            return ins(pid)
        pol = make_insertion(ins)
        if isinstance(pol, RandomPct):
            # distinct deterministic stream per partition
            pol = RandomPct(pol.pct, seed=self.cfg.seed * 1000003 + pid)
        return pol

    def _new_partitions(self, p: int) -> List[Partition]:
        parts = []
        for pid in range(p):
            part = Partition(pid, self.cfg.frame_bytes, self._spill_file_factory())
            part.insertion = self._insertion_for(pid)  # type: ignore[attr-defined]
            parts.append(part)
        return parts

    # -- public API ------------------------------------------------------
    def run(self, build: Iterable[Record], probe: Iterable[Record]) -> Iterator[Pair]:
        """Execute the join; yields (build_payload, probe_payload) pairs."""
        yield from self._round(_entry_chunks(build), _entry_chunks(probe), level=0,
                               build_frames=None, probe_frames=None,
                               parent_build_frames=None, swapped=False)

    def run_collect(self, build: Iterable[Record], probe: Iterable[Record]) -> List[Pair]:
        return list(self.run(build, probe))

    def build_only(self, build: Iterable[Record]) -> List[Partition]:
        """Run just the round-0 build phase (victim/growth experiments).

        Includes the end-of-build flush of spilled partitions so the
        write trace covers the whole build phase, then returns the
        partitions for inspection.
        """
        cfg = self.cfg
        p = cfg.num_partitions or robust_num_partitions(cfg.memory_frames)
        p = min(p, cfg.memory_frames)
        partitions = self._new_partitions(p)
        pool = BufferPool(cfg.memory_frames)
        self._build(_entry_chunks(build), partitions, pool, level=0)
        _check_budget(partitions, pool)
        self._flush_spilled_tails(partitions, pool, "build", 0)
        self._collect_search_stats(partitions)
        return partitions

    # -- one round -------------------------------------------------------
    def _round(self, build: Iterator[List[Record]], probe: Iterator[List[Record]],
               level: int, build_frames: Optional[int], probe_frames: Optional[int],
               parent_build_frames: Optional[int], swapped: bool) -> Iterator[Pair]:
        cfg = self.cfg
        if level > cfg.max_levels:
            yield from self._bnlj(build, probe, level, swapped)
            return

        # §8.1 bail-out: hashing is not shrinking the data — stop hashing.
        if (cfg.bailout and level > 0 and parent_build_frames is not None
                and build_frames is not None and parent_build_frames > 0
                and build_frames >= (1.0 - cfg.bailout_threshold) * parent_build_frames):
            yield from self._bnlj(build, probe, level, swapped)
            return

        # §8.3 in-memory shortcut: known-small build skips partitioning.
        if (cfg.in_memory_shortcut and level > 0 and build_frames is not None
                and build_frames * cfg.fudge <= cfg.memory_frames):
            yield from self._in_memory_join(build, probe, swapped)
            return

        self.stats.rounds += 1
        if build_frames is not None:
            p = robust_num_partitions(cfg.memory_frames, build_frames,
                                      cfg.fudge, cfg.min_partitions)
        else:
            p = cfg.num_partitions or robust_num_partitions(cfg.memory_frames)
        p = max(2, min(p, cfg.memory_frames))

        partitions = self._new_partitions(p)
        pool = BufferPool(cfg.memory_frames)

        # ---------------- build phase ----------------
        build_bytes = self._build(build, partitions, pool, level)
        _check_budget(partitions, pool)
        this_build_frames = max(1, -(-build_bytes // cfg.frame_bytes))

        self._flush_spilled_tails(partitions, pool, "build", level)

        # §8.5 reload spilled partitions that fit the leftover memory.
        if cfg.reload_spilled:
            self._reload_spilled(partitions, pool, level)

        # Make room for one probe output buffer per spilled partition.
        self._reserve_probe_buffers(partitions, pool, level)

        resident = [q for q in partitions if not q.spilled]
        spilled = [q for q in partitions if q.spilled]
        table = self._hash_table(resident)

        # ---------------- probe phase ----------------
        probe_files = {q.pid: self._spill_file_factory()() for q in spilled}
        probe_bufs = {q.pid: q.frames[0] if q.frames else None for q in spilled}
        for q in spilled:
            if probe_bufs[q.pid] is None:
                pool.allocate(1)
                probe_bufs[q.pid] = q.new_frame()
        stats = self.stats
        for chunk in probe:
            stats.records_processed += len(chunk)
            pids = split_partitions([r[0] for r in chunk], p, level)
            for rec, pid in zip(chunk, pids):
                key, size, payload = rec
                if pid in probe_files:
                    buf = probe_bufs[pid]
                    if not buf.fits(size):
                        probe_files[pid].write_frame(buf.records, cfg.frame_bytes)
                        stats.record_write(1, buf.used, "probe", pid, level)
                        buf.clear()
                    buf.insert(rec)
                else:
                    stats.hash_probes += 1
                    for bpayload in table.get(key, ()):
                        yield ((bpayload, payload) if not swapped
                               else (payload, bpayload))
        for pid, buf in probe_bufs.items():
            if buf.used > 0:
                probe_files[pid].write_frame(buf.records, cfg.frame_bytes)
                self.stats.record_write(1, buf.used, "probe", pid, level)
                buf.clear()

        del table
        for q in resident:
            q.close()

        # ---------------- recursion on spilled pairs ----------------
        for q in spilled:
            bfile, pfile = q.spill_file, probe_files[q.pid]
            b_frames = bfile.frames_written if bfile else 0
            p_frames = pfile.frames_written
            if b_frames == 0 or p_frames == 0:
                if bfile:
                    bfile.close()
                pfile.close()
                continue
            self.stats.frames_read += b_frames + p_frames
            b_records = _chunks(bfile.read_all())
            p_records = _chunks(pfile.read_all())
            child_build, child_probe = b_records, p_records
            child_bf, child_pf = b_frames, p_frames
            child_swapped = swapped
            if cfg.role_reversal and p_frames < b_frames:
                child_build, child_probe = p_records, b_records
                child_bf, child_pf = p_frames, b_frames
                child_swapped = not swapped
                self.stats.role_reversals += 1
            yield from self._round(child_build, child_probe, level + 1,
                                   child_bf, child_pf, this_build_frames,
                                   child_swapped)
            if bfile:
                bfile.close()
            pfile.close()

        self._collect_search_stats(partitions)

    # -- record insertion (build side) -----------------------------------
    def _build(self, build: Iterator[List[Record]], partitions: List[Partition],
               pool: BufferPool, level: int) -> int:
        """Route every build record to its partition; returns the bytes read."""
        p = len(partitions)
        build_bytes = 0
        for chunk in build:
            pids = split_partitions([r[0] for r in chunk], p, level)
            for rec, pid in zip(chunk, pids):
                build_bytes += rec[1]
                self._insert(rec, pid, partitions, pool, level)
        return build_bytes

    def _insert(self, rec: Record, pid: int, partitions: List[Partition],
                pool: BufferPool, level: int) -> None:
        cfg = self.cfg
        size = rec[1]
        if size > cfg.frame_bytes:
            raise ValueError(
                f"record of {size} B exceeds frame size {cfg.frame_bytes} B"
            )
        self.stats.records_processed += 1
        part = partitions[pid]

        if part.spilled:
            self._insert_spilled(part, rec, partitions, pool, level)
            return

        idx = part.insertion.find_frame(part.frames, size)
        if idx is not None:
            part.frames[idx].insert(rec)
            part.insertion.notify_inserted(idx, size, appended=False)
            return
        # need a new frame
        while not pool.can_allocate(1):
            has_resident = any(not q.spilled and q.num_frames >= 1 for q in partitions)
            has_grown = any(q.spilled and q.num_frames > 1 for q in partitions)
            if not (has_resident or has_grown):
                raise MemoryError(
                    "cannot free memory: all partitions spilled and pool full "
                    f"(budget={pool.budget}, P={len(partitions)})"
                )
            ctx = VictimContext(pid, sum(1 for q in partitions if q.spilled),
                                len(partitions))
            self.growth.free_memory(partitions, ctx, pool, self.victim,
                                    self.stats, "build", level)
            if part.spilled:
                # our own partition was victimized while freeing memory
                self._insert_spilled(part, rec, partitions, pool, level)
                return
        pool.allocate(1)
        part.new_frame().insert(rec)
        part.insertion.notify_inserted(part.num_frames - 1, size, appended=True)

    def _insert_spilled(self, part: Partition, rec: Record,
                        partitions: List[Partition], pool: BufferPool,
                        level: int) -> None:
        ok = self.growth.insert_into_spilled(part, rec, pool,
                                             part.insertion, self.stats,
                                             "build", level)
        while not ok:
            has_resident = any(not q.spilled and q.num_frames >= 1 for q in partitions)
            has_grown = any(q.spilled and q.num_frames > 1 for q in partitions)
            if has_resident or has_grown:
                ctx = VictimContext(part.pid,
                                    sum(1 for q in partitions if q.spilled),
                                    len(partitions))
                self.growth.free_memory(partitions, ctx, pool, self.victim,
                                        self.stats, "build", level)
            elif part.num_frames >= 1:
                # last resort: recycle our own (full) buffer via a flush
                self.growth.flush_spilled(part, pool, self.stats, "build", level)
            else:
                raise MemoryError("spilled-partition insert cannot make progress")
            ok = self.growth.insert_into_spilled(part, rec, pool,
                                                 part.insertion, self.stats,
                                                 "build", level)

    # -- build-phase epilogue --------------------------------------------
    def _flush_spilled_tails(self, partitions: List[Partition], pool: BufferPool,
                             phase: str, level: int) -> None:
        """End of build: every spilled partition's leftover frames go to disk."""
        for q in partitions:
            if q.spilled and q.num_frames > 0 and q.in_memory_bytes > 0:
                self.growth.flush_spilled(q, pool, self.stats, phase, level,
                                          keep_buffer=False)
            elif q.spilled and q.num_frames > 0:
                pool.release(q.num_frames)
                q.frames = []

    def _reload_spilled(self, partitions: List[Partition], pool: BufferPool,
                        level: int) -> None:
        """§8.5: pull back spilled partitions that now fit in free memory."""
        cfg = self.cfg
        reloadable = sorted(
            (q for q in partitions
             if q.spilled and q.spill_file and q.spill_file.frames_written > 0),
            key=lambda q: (q.spill_file.frames_written, q.pid),
        )
        for q in reloadable:
            need = q.spill_file.frames_written
            if need * cfg.fudge > pool.free:
                continue
            records = list(q.spill_file.read_all())
            ok = True
            for rec in records:
                size = rec[1]
                idx = q.insertion.find_frame(q.frames, size)
                if idx is not None:
                    q.frames[idx].insert(rec)
                    q.insertion.notify_inserted(idx, size, appended=False)
                    continue
                if not pool.can_allocate(1):
                    ok = False
                    break
                pool.allocate(1)
                q.new_frame().insert(rec)
                q.insertion.notify_inserted(q.num_frames - 1, size, appended=True)
            if ok:
                q.spilled = False
                q.spill_file.close()
                q.spill_file = None
                q.records_spilled = 0
                q.bytes_spilled = 0
                self.stats.frames_read += need
                self.stats.frames_reloaded += need
            else:
                # Does not fit after all (loosely packed frames). The spill
                # file still holds every record, so drop the partial copy
                # rather than writing it out a second time.
                pool.release(q.num_frames)
                q.frames = []
                q.insertion.notify_spilled()
                self.stats.reload_failures += 1

    def _reserve_probe_buffers(self, partitions: List[Partition],
                               pool: BufferPool, level: int) -> None:
        """Spill more residents until each spilled partition can hold one
        probe output buffer within the budget."""
        while True:
            n_spilled = sum(1 for q in partitions if q.spilled)
            if pool.allocated + n_spilled <= pool.budget:
                break
            candidates = [q for q in partitions if not q.spilled and q.num_frames >= 1]
            if not candidates:
                raise MemoryError("cannot reserve probe buffers: no resident victims")
            ctx = VictimContext(-1, n_spilled, len(partitions))
            target = self.victim.choose(candidates, ctx)
            self.growth.initial_spill(target, pool, self.stats, "build", level)
            self.growth.flush_spilled(target, pool, self.stats, "build", level,
                                      keep_buffer=False)

    def _hash_table(self, resident: List[Partition]) -> dict:
        table: dict = {}
        for q in resident:
            for f in q.frames:
                for key, _, payload in f.records:
                    table.setdefault(key, []).append(payload)
        return table

    def _collect_search_stats(self, partitions: List[Partition]) -> None:
        for q in partitions:
            pol = getattr(q, "insertion", None)
            if pol is not None:
                self.stats.frames_searched += pol.frames_searched
                pol.reset_stats()

    # -- fallback operators ----------------------------------------------
    def _in_memory_join(self, build: Iterator[List[Record]],
                        probe: Iterator[List[Record]],
                        swapped: bool) -> Iterator[Pair]:
        """§8.3: skip partitioning, hash the whole build input directly."""
        self.stats.in_memory_rounds += 1
        table: dict = {}
        for key, size, payload in chain.from_iterable(build):
            self.stats.records_processed += 1
            table.setdefault(key, []).append(payload)
        for key, size, payload in chain.from_iterable(probe):
            self.stats.records_processed += 1
            self.stats.hash_probes += 1
            for bpayload in table.get(key, ()):
                yield (bpayload, payload) if not swapped else (payload, bpayload)

    def _bnlj(self, build: Iterator[List[Record]], probe: Iterator[List[Record]],
              level: int, swapped: bool) -> Iterator[Pair]:
        """§8.1 bail-out: block-nested-loop equijoin.

        Loads the build side block-by-block (a block = the memory budget
        minus an input and an output frame) and scans the probe side once
        per block. Key equality is evaluated with an in-block index —
        same output as a tuple-at-a-time NLJ for an equijoin, without the
        quadratic constant.
        """
        self.stats.bnlj_rounds += 1
        cfg = self.cfg
        block_bytes = max(cfg.frame_bytes, (cfg.memory_frames - 2) * cfg.frame_bytes)
        probe_cache: List[Record] = list(chain.from_iterable(probe))
        block: dict = {}
        used = 0

        def flush_block() -> Iterator[Pair]:
            for pkey, psize, ppayload in probe_cache:
                self.stats.comparisons += 1
                for bpayload in block.get(pkey, ()):
                    yield (bpayload, ppayload) if not swapped else (ppayload, bpayload)

        for key, size, payload in chain.from_iterable(build):
            self.stats.records_processed += 1
            if used + size > block_bytes and block:
                yield from flush_block()
                block, used = {}, 0
            block.setdefault(key, []).append(payload)
            used += size
        if block:
            yield from flush_block()


def dynamic_hash_join(build: Iterable[Record], probe: Iterable[Record],
                      cfg: HHJConfig) -> Tuple[List[Pair], JoinStats]:
    """Convenience wrapper: run one join, return (pairs, stats)."""
    op = DynamicHybridHashJoin(cfg)
    pairs = op.run_collect(build, probe)
    return pairs, op.stats
