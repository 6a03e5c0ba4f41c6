"""In-memory span tracing around the public entry points of each layer.

The wrappers live here, in the benchmark, and are installed by rebinding
the program's functions and methods for the length of one traced run;
nothing under ``src/`` knows about them. A span is
``(id, parent_id, name, layer, start_ns, duration_ns)``; its parent is
the span that was open when it started. Spans stay in memory until
:meth:`Tracer.write` dumps them at the end of the run.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack = [0]          # id 0: no parent
        self._next_id = 1
        self._patches: list = []   # (owner, attribute, original)

    # -- recording -------------------------------------------------------
    def _open(self) -> tuple:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, layer, start, dur) -> None:
        self._stack.pop()
        self.spans.append((sid, parent, name, layer, start, dur))

    @contextmanager
    def span(self, name: str, layer: str):
        sid, parent = self._open()
        start = _now()
        try:
            yield
        finally:
            self._close(sid, parent, name, layer, start, _now() - start)

    def wrap(self, fn, name: str, layer: str):
        """One span per call of ``fn``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, layer, start, _now() - start)
        return traced

    def wrap_iter(self, fn, name: str, layer: str):
        """One span per iterator that ``fn`` returns.

        The work of a lazy reader or a generator happens while it is
        consumed, not when it is created, so the span's duration is the
        time spent inside its ``next()`` calls, and spans opened during
        those calls are its children. Its parent is the span open when
        ``fn`` was called.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1]
            sid = tracer._next_id
            tracer._next_id += 1
            inner = iter(fn(*args, **kwargs))
            start = _now()

            def consume():
                busy = 0
                try:
                    while True:
                        tracer._stack.append(sid)
                        t0 = _now()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            busy += _now() - t0
                            tracer._stack.pop()
                        yield item
                finally:
                    tracer.spans.append((sid, parent, name, layer, start, busy))
            return consume()
        return traced

    # -- installing wrappers ---------------------------------------------
    def patch_function(self, fn, name: str, layer: str) -> None:
        """Rebind ``fn`` in every loaded ``repro`` module that imported it."""
        traced = self.wrap(fn, name, layer)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, traced)

    def patch_method(self, cls, attr: str, name: str, layer: str,
                     iterator: bool = False) -> None:
        """Wrap ``attr`` on ``cls`` and on every subclass that overrides it."""
        todo, seen = [cls], set()
        while todo:
            c = todo.pop()
            if c in seen:
                continue
            seen.add(c)
            todo.extend(c.__subclasses__())
            if attr in vars(c):
                orig = vars(c)[attr]
                wrapper = self.wrap_iter if iterator else self.wrap
                self._patches.append((c, attr, orig))
                setattr(c, attr, wrapper(orig, name, layer))

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- reading ---------------------------------------------------------
    def totals(self) -> dict:
        """name -> (calls, total seconds)."""
        out: dict = defaultdict(lambda: [0, 0])
        for _sid, _parent, name, _layer, _start, dur in self.spans:
            out[name][0] += 1
            out[name][1] += dur
        return {k: (c, ns / 1e9) for k, (c, ns) in out.items()}

    def self_seconds(self) -> dict:
        """layer -> seconds spent in its spans minus their child spans."""
        child: dict = defaultdict(int)
        for _sid, parent, *_rest, dur in self.spans:
            child[parent] += dur
        out: dict = defaultdict(int)
        for sid, _parent, _name, layer, _start, dur in self.spans:
            out[layer] += dur - child[sid]
        return {k: ns / 1e9 for k, ns in out.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        # one dumps and one write: streaming json.dump is several times slower
        path.write_text(json.dumps({
            "fields": ["id", "parent", "name", "layer", "start_ns", "duration_ns"],
            "spans": self.spans}, separators=(",", ":")))


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (see BENCHMARK.json's layers)."""
    from repro import synth_data
    from repro.core import ideal, sim_partitions, split
    from repro.core.join import DynamicHybridHashJoin
    from repro.frames.spillfile import DiskSpillFile, MemorySpillFile
    from repro.growth.policies import GrowthPolicy
    from repro.insertion.policies import InsertionPolicy
    from repro.storage import device, elevator
    from repro.victim.policies import VictimPolicy

    tracer.patch_method(DynamicHybridHashJoin, "run", "operator.run",
                        "core.join", iterator=True)
    tracer.patch_method(DynamicHybridHashJoin, "build_only",
                        "operator.build_only", "core.join")
    tracer.patch_function(split.split_partition, "split_partition", "core.split")
    tracer.patch_method(InsertionPolicy, "find_frame", "find_frame", "insertion")
    tracer.patch_method(GrowthPolicy, "free_memory", "free_memory", "growth")
    tracer.patch_method(GrowthPolicy, "flush_spilled", "flush_spilled", "growth")
    tracer.patch_method(VictimPolicy, "choose", "choose", "victim")
    for cls in (MemorySpillFile, DiskSpillFile):
        tracer.patch_method(cls, "write_frame", "write_frame", "frames")
        tracer.patch_method(cls, "read_all", "read_all", "frames", iterator=True)
    tracer.patch_function(device.response_time, "response_time", "storage")
    tracer.patch_function(elevator.elevator_coalesce, "elevator_coalesce", "storage")
    tracer.patch_function(sim_partitions.simulate_join, "simulate_join",
                          "core.sim_partitions")
    tracer.patch_function(sim_partitions.in_memory_after_first_round,
                          "in_memory_after_first_round", "core.sim_partitions")
    tracer.patch_function(ideal.spill_ratio, "spill_ratio", "core.ideal")
    tracer.patch_function(synth_data.wisconsin_record_stream,
                          "wisconsin_record_stream", "synth_data")
