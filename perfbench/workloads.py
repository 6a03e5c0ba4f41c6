"""The benchmark's four workloads.

Each reaches the program only through its public API:
``repro.core.spark_join.dynamic_hhj_join``,
``repro.core.join.DynamicHybridHashJoin`` (``run``, ``build_only``,
``stats``), ``repro.experiments.*`` and ``repro.synth_data``.

* ``spark_tpch_spill`` — orders ⋈ lineitem at SF 0.02 through the Spark
  wrapper with a 64 × 4 KB frame budget per partition pair, so every pair
  spills to ``DiskSpillFile`` and recurses.
* ``operator_inmem`` — the record-level operator, 40k × 40k all-small
  records, unique keys, ample memory: nothing spills (the Fig 9 regime).
* ``operator_spill_skew`` — the record-level operator on 1-Large records
  with Normal-skewed build keys and one heavy key on both sides, memory
  about build/32: spilling, recursion, role reversal and BNLJ bail-out.
* ``paper_figures`` — a fixed reduced sweep of ``repro.experiments``.

Per-layer metrics a workload does not exercise are reported as 0.
"""
from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from repro import synth_data
from repro.core.baselines import naive_hash_join
from repro.core.join import DynamicHybridHashJoin, HHJConfig

from tracer import Tracer, install_layer_wrappers

CHECK_MOD = 2_147_483_647
FRAME_BYTES = 32 * 1024
TRACED_OPS = 2      # traced repetitions; their exact counts must agree
SETUP_REPEATS = 3   # setup_s is the median of this many set-ups
#: the reference loop's seconds on a quiet host (a 4-vCPU Xeon VM); a
#: scaled second is a wall second times REF_S over the loop's seconds
#: measured next to it
REF_S = 0.011

#: per-layer metrics and their units, in BENCHMARK.json order
LAYERS = ("core.spark_join", "core.join", "core.split", "insertion", "growth",
          "victim", "frames", "storage", "core.sim_partitions", "core.ideal",
          "experiments", "synth_data")
PER_LAYER = {
    "spark.noop_cogroup_s": "s", "spark.builtin_join_s": "s",
    "spark.udf_residual_s": "s", "spark.to_records_s": "s",
    "spark.pair_rows.max_over_mean": "ratio", "spark.pair_op_s.max": "s",
    "spark.op_serial_s": "s",
    "operator.build_s": "s", "operator.probe_recurse_s": "s",
    "operator.rounds": "count", "operator.in_memory_rounds": "count",
    "operator.bnlj_rounds": "count", "operator.role_reversals": "count",
    "operator.records_processed": "count", "operator.hash_probes": "count",
    "operator.output_pairs": "count", "operator.partitions_spilled": "count",
    "split.calls": "count", "split.s": "s",
    "insertion.find_frame.calls": "count", "insertion.find_frame_s": "s",
    "insertion.frames_searched": "count", "insertion.avg_frame_fullness": "ratio",
    "growth.free_memory.calls": "count", "growth.free_memory_s": "s",
    "growth.flush.calls": "count", "growth.flush_s": "s",
    "spill.seq_write_ops": "count", "spill.rand_write_ops": "count",
    "victim.choose.calls": "count", "victim.choose_s": "s",
    "spillfile.write_s": "s", "spillfile.read_s": "s",
    "spill.bytes_written": "B", "spill.frames_read": "count",
    "spill_write_amp": "ratio",
    "experiments.table1_s": "s", "experiments.fig345_s": "s",
    "experiments.fig9_s": "s", "experiments.fig12_s": "s",
    "experiments.fig13_s": "s", "experiments.fig16_s": "s",
    "storage.response_time_s": "s", "storage.elevator_s": "s",
    "synth.generate_s": "s",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "trace.overhead_s": "s", "trace.spans": "count", "error_rate": "ratio",
    "wall_s.p50": "s", "wall_s.tail": "s", "records_per_s": "1/s",
    "setup_wall_s": "s", "ref_loop_s": "s",
}
#: span name -> (calls metric, seconds metric)
SPAN_METRICS = {
    "split_partition": ("split.calls", "split.s"),
    "find_frame": ("insertion.find_frame.calls", "insertion.find_frame_s"),
    "free_memory": ("growth.free_memory.calls", "growth.free_memory_s"),
    "flush_spilled": ("growth.flush.calls", "growth.flush_s"),
    "choose": ("victim.choose.calls", "victim.choose_s"),
    "write_frame": (None, "spillfile.write_s"),
    "read_all": (None, "spillfile.read_s"),
    "response_time": (None, "storage.response_time_s"),
    "elevator_coalesce": (None, "storage.elevator_s"),
}


def reference_loop() -> float:
    """Wall seconds of a fixed pure-Python loop of dict probes and
    inserts: the gauge of the host's current speed. The host is shared and
    its speed drifts by up to 1.8x within minutes; the ratio of a
    single-threaded operation's time to this loop's time next to it
    drifts by a few per cent."""
    t0 = time.perf_counter()
    seen: dict = {}
    pairs = []
    for i in range(60_000):
        k = i * 2_654_435_761 % 100_003
        if k in seen:
            pairs.append((seen[k], i))
        else:
            seen[k] = i
    return time.perf_counter() - t0


def scaled(seconds: float, ref_s: float) -> float:
    """Wall seconds at the host speed at which the reference loop takes
    REF_S, given the loop's seconds ``ref_s`` measured next to them."""
    return seconds * REF_S / ref_s


def tail(samples: list) -> tuple:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile), but not below the median: with fewer than 21
    samples the tail is the median."""
    ordered = sorted(samples)
    n = len(ordered)
    i = max(n - 11, n // 2)
    return ordered[i], 100.0 * (i + 1) / n


def stat_counts(stats) -> dict:
    """The operator's exact counters, under their per-layer names."""
    return {
        "operator.rounds": stats.rounds,
        "operator.in_memory_rounds": stats.in_memory_rounds,
        "operator.bnlj_rounds": stats.bnlj_rounds,
        "operator.role_reversals": stats.role_reversals,
        "operator.records_processed": stats.records_processed,
        "operator.hash_probes": stats.hash_probes,
        "operator.partitions_spilled": stats.partitions_spilled,
        "insertion.frames_searched": stats.frames_searched,
        "spill.seq_write_ops": stats.sequential_write_ops,
        "spill.rand_write_ops": stats.random_write_ops,
        "spill.bytes_written": stats.total_bytes_spilled,
        "spill.frames_read": stats.frames_read,
    }


def add_counts(total: dict, counts: dict) -> None:
    for k, v in counts.items():
        total[k] = total.get(k, 0) + v


def frame_fullness(partitions) -> float:
    """Bytes used over bytes allocated, across the partitions' frames."""
    frames = [f for q in partitions for f in q.frames]
    if not frames:
        return 0.0
    return sum(f.used for f in frames) / (len(frames) * frames[0].capacity)


def span_metrics(tracer: Tracer) -> dict:
    out = {}
    for name, (calls, secs) in tracer.totals().items():
        if name in SPAN_METRICS:
            c_metric, s_metric = SPAN_METRICS[name]
            if c_metric:
                out[c_metric] = calls
            out[s_metric] = secs
    for layer, secs in tracer.self_seconds().items():
        out[f"self_s.{layer}"] = secs
    out["trace.spans"] = len(tracer.spans)
    return out


class Workload:
    name = ""
    records = 0          # input records (build + probe) of one operation
    setup_s = 0.0        # scaled seconds
    setup_wall_s = 0.0

    def __init__(self, seed: int, out: Path) -> None:
        self.seed = seed
        self.out = out
        self.problems: list = []     # failed path assertions

    def run_ops(self, seconds: float) -> tuple:
        """Closed loop: one checked operation at a time until ``seconds``
        pass (at least one). Returns (wall seconds per op, reference-loop
        seconds around each op, failed ops)."""
        samples, refs, failed = [], [], 0
        deadline = time.perf_counter() + seconds
        while not samples or time.perf_counter() < deadline:
            ok, dt, ref_s = self.timed_op()
            samples.append(dt)
            refs.append(ref_s)
            failed += not ok
        return samples, refs, failed

    def timed_op(self) -> tuple:
        """(output correct, wall seconds, mean seconds of the reference
        loop run just before and just after)."""
        gc.collect()
        before = reference_loop()
        t0 = time.perf_counter()
        try:
            out = self.op()
            dt = time.perf_counter() - t0
            ok = self.check(out)
        except Exception:
            dt = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            ok = False
        return ok, dt, (before + reference_loop()) / 2

    def end_to_end(self, seconds: float) -> dict:
        samples, refs, failed = self.run_ops(seconds)
        ops_s = [scaled(dt, r) for dt, r in zip(samples, refs)]
        n = len(ops_s)
        tail_s, pct = tail(ops_s)
        print(f"# {self.name}: scaled_s.tail is p{pct:.0f} of {n} samples; "
              f"error_rate = {failed}/{n}", flush=True)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {
            "correct": failed == 0 and not self.problems,
            "attempted": n,
            "failed": failed,
            "metrics": {
                "scaled_s.p50": {"value": statistics.median(ops_s), "unit": "s"},
                "scaled_s.tail": {"value": tail_s, "unit": "s"},
                "records_per_scaled_s": {"value": self.records * n / sum(ops_s),
                                         "unit": "1/s"},
                "setup_s": {"value": self.setup_s, "unit": "s"},
                # this process only: Spark's JVM and Python workers
                # are separate processes and are not counted
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            },
        }

    def wall_metrics(self, samples: list, refs: list) -> dict:
        """The end-to-end timings in wall seconds, and the host's speed."""
        return {
            "wall_s.p50": statistics.median(samples),
            "wall_s.tail": tail(samples)[0],
            "records_per_s": self.records * len(samples) / sum(samples),
            "setup_wall_s": self.setup_wall_s,
            "ref_loop_s": statistics.median(refs),
        }

    def require(self, cond: bool, what: str) -> None:
        if not cond:
            self.problems.append(what)
            print(f"# path assertion failed: {what}", file=sys.stderr)

    def result(self, metrics: dict, attempted: int, failed: int) -> dict:
        metrics["error_rate"] = failed / attempted
        return {
            "correct": failed == 0 and not self.problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics.get(k, 0), "unit": u}
                        for k, u in PER_LAYER.items()},
        }

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# record-level operator
# ---------------------------------------------------------------------------
def with_row_ids(stream) -> list:
    """Give each generated (key, size, None) record its row id as payload,
    so that the output pairs can be checked."""
    return [(k, s, i) for i, (k, s, _) in enumerate(stream)]


def pair_checksum(pairs) -> int:
    """Order-independent checksum of (build row id, probe row id) pairs."""
    return sum((b * 1_000_003 + p) % CHECK_MOD for b, p in pairs)


class OperatorWorkload(Workload):
    def generate(self) -> tuple:
        raise NotImplementedError

    def config(self) -> HHJConfig:
        raise NotImplementedError

    def setup(self) -> None:
        gen_s, wall_s, setup_s = [], [], []
        self.counts_seen: list = []
        for i in range(SETUP_REPEATS):
            before = reference_loop()
            t0 = time.perf_counter()
            self.build, self.probe = self.generate()
            gen_s.append(time.perf_counter() - t0)
            if i == 0:   # the oracle, not part of setup_s
                self.cfg = self.config()
                ref = naive_hash_join(self.build, self.probe)
                self.expected = (len(ref), pair_checksum(ref))
                del ref
            ok, warm_s, _ = self.timed_op()
            self.require(ok, "warm-up operation output is correct")
            wall_s.append(gen_s[-1] + warm_s)
            setup_s.append(scaled(wall_s[-1], (before + reference_loop()) / 2))
        self.generate_s = statistics.median(gen_s)
        self.setup_wall_s = statistics.median(wall_s)
        self.setup_s = statistics.median(setup_s)
        self.records = len(self.build) + len(self.probe)
        self.input_bytes = sum(r[1] for r in self.build) + \
            sum(r[1] for r in self.probe)

    def op(self) -> tuple:
        join = DynamicHybridHashJoin(self.cfg)
        return join.run_collect(self.build, self.probe), join.stats

    def check(self, out) -> bool:
        pairs, stats = out
        counts = stat_counts(stats)
        counts["operator.output_pairs"] = len(pairs)
        self.counts_seen.append(counts)
        return (len(pairs), pair_checksum(pairs)) == self.expected

    def path_assertions(self, counts: dict) -> None:
        pass

    def traced(self, seconds: float) -> dict:
        samples, refs, failed = self.run_ops(seconds)
        tracer = Tracer()
        install_layer_wrappers(tracer)
        traced_s = []
        try:
            for _ in range(TRACED_OPS):
                tracer.spans.clear()
                ok, dt, _ = self.timed_op()
                traced_s.append(dt)
                failed += not ok
        finally:
            tracer.restore()
        tracer.write(self.out / f"trace-{self.name}-{self.seed}.json")

        gc.collect()
        t0 = time.perf_counter()
        parts = DynamicHybridHashJoin(self.cfg).build_only(self.build)
        build_s = time.perf_counter() - t0
        wall = statistics.median(samples)

        counts = self.counts_seen[-1]
        self.require(all(c == counts for c in self.counts_seen),
                     "exact counts repeat across all operations")
        self.path_assertions(counts)
        m = dict(counts)
        m.update(span_metrics(tracer))
        m.update(self.wall_metrics(samples, refs))
        m.update({
            "operator.build_s": build_s,
            "operator.probe_recurse_s": wall - build_s,
            "insertion.avg_frame_fullness": frame_fullness(parts),
            "spill_write_amp": counts["spill.bytes_written"] / self.input_bytes,
            "synth.generate_s": self.generate_s,
            "trace.overhead_s": statistics.median(traced_s) - wall,
        })
        return self.result(m, len(samples) + len(traced_s), failed)


class OperatorInMemory(OperatorWorkload):
    name = "operator_inmem"
    # small enough for dozens of operations in one run
    N = 40_000

    def generate(self) -> tuple:
        s = 10 * self.seed
        return (with_row_ids(synth_data.wisconsin_record_stream(
                    n=self.N, dataset="all-small", seed=s)),
                with_row_ids(synth_data.wisconsin_record_stream(
                    n=self.N, dataset="all-small", seed=s + 1)))

    def config(self) -> HHJConfig:
        build_frames = sum(r[1] for r in self.build) // FRAME_BYTES + 1
        # ample memory, as in Fig 9: nothing spills
        return HHJConfig(memory_frames=2 * build_frames + 64, num_partitions=20)

    def path_assertions(self, counts: dict) -> None:
        self.require(counts["spill.bytes_written"] == 0,
                     "operator_inmem spills 0 bytes")


class OperatorSpillSkew(OperatorWorkload):
    name = "operator_spill_skew"
    N = 15_000
    # one heavy key on both sides, 150 large (18-20 KB) records each: more
    # than the memory budget on either side, so recursion cannot split it
    # and role reversal cannot shrink it, and the operator bails out to BNLJ
    HEAVY = 150
    HEAVY_KEY = 0       # outside the generated key domain [1, N]

    def generate(self) -> tuple:
        s = 10 * self.seed
        stream = synth_data.wisconsin_record_stream
        build = with_row_ids(stream(n=self.N, dataset="1-large", pct_large=0.1,
                                    skew=True, seed=s))
        probe = with_row_ids(stream(n=self.N, dataset="1-large", pct_large=0.1,
                                    seed=s + 1))
        for side, seed in ((build, s + 2), (probe, s + 3)):
            heavy = stream(n=self.HEAVY, dataset="1-large", pct_large=1.0,
                           seed=seed)
            side.extend((self.HEAVY_KEY, size, self.N + i)
                        for i, (_k, size, _p) in enumerate(heavy))
        return build, probe

    def config(self) -> HHJConfig:
        build_bytes = sum(r[1] for r in self.build)
        return HHJConfig(memory_frames=build_bytes // 32 // FRAME_BYTES)

    def path_assertions(self, counts: dict) -> None:
        self.require(counts["operator.rounds"] > 1, "operator_spill_skew: rounds > 1")
        self.require(counts["operator.role_reversals"] > 0,
                     "operator_spill_skew: role_reversals > 0")
        self.require(counts["operator.bnlj_rounds"] >= 1,
                     "operator_spill_skew: bnlj_rounds >= 1")


# ---------------------------------------------------------------------------
# paper-figure sweep
# ---------------------------------------------------------------------------
class OperatorLog:
    """Records every operator the experiments run and the records fed to it,
    by rebinding ``run`` and ``build_only`` while the context is open."""

    def __enter__(self):
        self.ops, self.records, self.bytes = [], 0, 0
        self._orig = (DynamicHybridHashJoin.run, DynamicHybridHashJoin.build_only)
        orig_run, orig_build = self._orig
        log = self

        def run(op, build, probe):
            log._add(op, build, probe)
            return orig_run(op, build, probe)

        def build_only(op, build):
            log._add(op, build)
            return orig_build(op, build)

        DynamicHybridHashJoin.run, DynamicHybridHashJoin.build_only = run, build_only
        return self

    def _add(self, op, *inputs) -> None:
        self.ops.append(op)
        for recs in inputs:
            self.records += len(recs)
            self.bytes += sum(r[1] for r in recs)

    def __exit__(self, *exc) -> None:
        DynamicHybridHashJoin.run, DynamicHybridHashJoin.build_only = self._orig


class PaperFigures(Workload):
    name = "paper_figures"
    # the kwargs of benchmarks/bench_fig*.py at an eighth of their memory
    # (half for fig12, whose growth-policy ordering is lost at 16 frames),
    # fig9 at 3k records (at 2k, random(10%) overtakes best-fit as the
    # slowest) and figs 3-5 at three small input sizes,
    # so that one sweep takes about half a second
    K345 = dict(input_sizes_mb=(128, 512, 2048))
    K13 = dict(memory_frames=16, ratios=(1.2, 4.0),
               policies=("largest-size", "largest-records", "smallest-size",
                         "smallest-records", "median-size", "random"))
    K16 = dict(memory_frames=16, ratios=(2.0, 4.0), pcts_large=(0.1, 0.9),
               policies=("largest-size", "largest-records", "smallest-size",
                         "median-records", "half-empty"))

    def figures(self) -> list:
        from repro.experiments import fig9, fig12, fig13, fig14_17, fig345, table1
        s = self.seed
        return [
            ("table1", "table1", table1.table1, {}),
            ("fig3", "fig345", fig345.fig3, self.K345),
            ("fig4", "fig345", fig345.fig4, self.K345),
            ("fig5", "fig345", fig345.fig5, self.K345),
            ("fig9", "fig9", fig9.fig9, dict(n=3_000, seed=s)),
            ("fig12", "fig12", fig12.fig12,
             dict(memory_frames=32, ratios=(1.2, 2.0, 10.0), cache_frames=256,
                  seed=s)),
            ("fig13a", "fig13", fig13.fig13a, dict(self.K13, seed=s)),
            ("fig13b", "fig13", fig13.fig13b, dict(self.K13, seed=s)),
            ("fig16", "fig16", fig14_17.fig16, dict(self.K16, seed=s)),
        ]

    def setup(self) -> None:
        self.fig_times: list = []
        self.first = None
        wall_s, setup_s = [], []
        for _ in range(SETUP_REPEATS):
            before = reference_loop()
            t0 = time.perf_counter()
            with OperatorLog() as log:
                ok, _, _ = self.timed_op()
            wall_s.append(time.perf_counter() - t0)
            setup_s.append(scaled(wall_s[-1], (before + reference_loop()) / 2))
            self.require(ok, "warm-up sweep reproduces the paper orderings")
        self.setup_wall_s = statistics.median(wall_s)
        self.setup_s = statistics.median(setup_s)
        self.records, self.input_bytes = log.records, log.bytes

    def op(self) -> dict:
        tables, times = {}, {}
        for name, group, fn, kw in self.figures():
            t0 = time.perf_counter()
            tables[name] = fn(**kw)
            times[group] = times.get(group, 0.0) + time.perf_counter() - t0
        self.fig_times.append(times)
        return tables

    def check(self, t: dict) -> bool:
        """The orderings benchmarks/bench_*.py assert, and every table
        identical to the warm-up's."""
        fig9 = t["fig9"].set_index("algorithm")
        big = t["fig12"][t["fig12"].ratio >= 10].set_index("growth")
        ok = (bool(t["table1"]["match"].all())
              and (t["fig3"]["total_spill_mb"] >= 0).all()
              and (t["fig4"]["total_spill_mb"] >= 0).all()
              and (t["fig5"]["memory_utilization"] <= 1.0).all()
              and fig9.loc["best-fit", "time_hdd_s"] == t["fig9"]["time_hdd_s"].max()
              and fig9.loc["append(8)", "frames_searched"]
              < fig9.loc["best-fit", "frames_searched"]
              and big.loc["ng-ns", "rand_write_ops"] > big.loc["g-s", "rand_write_ops"]
              and big.loc["g-s", "time_hdd_direct_s"] < big.loc["ng-ns", "time_hdd_direct_s"]
              and (t["fig13a"]["spill_over_ideal"] >= 0.99).all()
              and (t["fig13b"]["spill_over_ideal"] >= 0.99).all()
              and (t["fig16"]["spill_over_ideal"] > 0).all())
        if self.first is None:
            self.first = t
        same = all(t[k].equals(self.first[k]) for k in t)
        return bool(ok) and same

    def traced(self, seconds: float) -> dict:
        self.fig_times.clear()
        samples, refs, failed = self.run_ops(seconds)
        tracer = Tracer()
        with OperatorLog() as log:
            install_layer_wrappers(tracer)
            try:
                gc.collect()
                t0 = time.perf_counter()
                with tracer.span("sweep", "experiments"):
                    tables = self.op()
                traced_s = time.perf_counter() - t0
            finally:
                tracer.restore()
        failed += not self.check(tables)
        tracer.write(self.out / f"trace-{self.name}-{self.seed}.json")

        m: dict = {}
        for op in log.ops:
            add_counts(m, stat_counts(op.stats))
        m.update(span_metrics(tracer))
        m.update(self.wall_metrics(samples, refs))
        for group in self.fig_times[0]:
            m[f"experiments.{group}_s"] = statistics.median(
                ft[group] for ft in self.fig_times[:len(samples)])
        totals = tracer.totals()
        m.update({
            "operator.build_s": totals.get("operator.build_only", (0, 0.0))[1],
            "insertion.avg_frame_fullness":
                float(tables["fig9"].set_index("algorithm")
                      .loc["append(8)", "avg_frame_fullness"]),
            "spill_write_amp": m["spill.bytes_written"] / log.bytes,
            "synth.generate_s": totals.get("wisconsin_record_stream", (0, 0.0))[1],
            "trace.overhead_s": traced_s - statistics.median(samples),
        })
        return self.result(m, len(samples) + 1, failed)


# ---------------------------------------------------------------------------
# Spark
# ---------------------------------------------------------------------------
class SparkTpchSpill(Workload):
    name = "spark_tpch_spill"
    # SF 0.02 (30k x 120k rows): one join takes 2-3 s on 4 cores, most of
    # it Spark's fixed cost, so that a run holds several operations
    SF = 0.02
    N_PAIRS = 8
    # the JVM keeps compiling for several joins: the first is up to 3x
    # slower, and the next few are still 10-20 % slower than later ones
    WARMUP_OPS = 3
    PART = "__bench_part"

    def hhj_config(self, **kw) -> HHJConfig:
        return HHJConfig(memory_frames=64, frame_bytes=4096, min_partitions=8, **kw)

    def setup(self) -> None:
        from spark_env import start_session
        before = reference_loop()
        t0 = time.perf_counter()
        self.spark = start_session(self.out)
        session_s = time.perf_counter() - t0
        from pyspark.sql import functions as F
        # the inputs are made and cached SETUP_REPEATS times, and the
        # median of that counts towards setup_s; the session starts once,
        # as each start costs 7-10 s
        gen_s, cache_s = [], []
        for i in range(SETUP_REPEATS):
            if i:
                self.o.unpersist(blocking=True)
                self.li.unpersist(blocking=True)
            tg = time.perf_counter()
            o = synth_data.orders(self.spark, sf=self.SF, seed=10 * self.seed)
            li = synth_data.lineitem(self.spark, sf=self.SF,
                                     seed=10 * self.seed + 1)
            gen_s.append(time.perf_counter() - tg)
            self.o, self.li = o.cache(), li.cache()
            self.records = self.o.count() + self.li.count()
            cache_s.append(time.perf_counter() - tg)
        self.generate_s = statistics.median(gen_s)

        # oracle, not part of setup_s: DuckDB over the same rows, which
        # also carry the wrapper's partition id for the traced replay
        import duckdb
        self.opd = self.o.withColumn(self.PART, self._part("o_orderkey")).toPandas()
        self.lpd = self.li.withColumn(self.PART, self._part("l_orderkey")).toPandas()
        con = duckdb.connect()
        try:
            con.register("o", self.opd)
            con.register("l", self.lpd)
            self.expected = tuple(con.execute(
                "SELECT count(*), sum((o_custkey * 1000003 + l_partkey * 31"
                " + l_linenumber) % 2147483647)"
                " FROM o JOIN l ON o_orderkey = l_orderkey").fetchone())
        finally:
            con.close()
        self.checksum = F.sum((F.col("o_custkey") * 1000003 + F.col("l_partkey") * 31
                               + F.col("l_linenumber")) % 2147483647)
        warm_s = 0.0
        for _ in range(self.WARMUP_OPS):
            ok, dt, _ = self.timed_op()
            self.require(ok, "warm-up operation output is correct")
            warm_s += dt
        self.setup_wall_s = session_s + statistics.median(cache_s) + warm_s
        self.setup_s = scaled(self.setup_wall_s, (before + reference_loop()) / 2)

    def _part(self, key: str):
        from pyspark.sql import functions as F
        return F.pmod(F.xxhash64(F.col(key)), F.lit(self.N_PAIRS))

    def op(self):
        from pyspark.sql import functions as F
        from repro.core.spark_join import dynamic_hhj_join
        out = dynamic_hhj_join(self.o, self.li, "o_orderkey", "l_orderkey",
                               self.hhj_config(), num_spark_partitions=self.N_PAIRS)
        return out.agg(F.count(F.lit(1)), self.checksum).collect()[0]

    def check(self, row) -> bool:
        return (row[0], row[1]) == self.expected

    # -- traced run ------------------------------------------------------
    def _timed(self, fn) -> tuple:
        gc.collect()
        t0 = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - t0

    def noop_cogroup(self):
        """The wrapper's partitioning and cogroup with a no-op function."""
        import pandas as pd
        from pyspark.sql import functions as F

        def count_rows(b: pd.DataFrame, p: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"n": [len(b) + len(p)]})
        b = self.o.where(F.col("o_orderkey").isNotNull()) \
            .withColumn(self.PART, self._part("o_orderkey"))
        p = self.li.where(F.col("l_orderkey").isNotNull()) \
            .withColumn(self.PART, self._part("l_orderkey"))
        return (b.groupBy(self.PART).cogroup(p.groupBy(self.PART))
                .applyInPandas(count_rows, schema="n long")
                .agg(F.sum("n")).collect()[0][0])

    def builtin_join(self):
        from pyspark.sql import functions as F
        return self.o.join(self.li, F.col("o_orderkey") == F.col("l_orderkey")) \
            .agg(F.count(F.lit(1)), self.checksum).collect()[0]

    def to_records(self, pdf, key: str) -> list:
        """join_pair's conversion: one average deep-memory size per row,
        capped at the frame size; the row tuple as payload."""
        pdf = pdf.drop(columns=[self.PART]).reset_index(drop=True)
        fb = self.hhj_config().frame_bytes
        per_row = max(64, int(pdf.memory_usage(deep=True).sum() / max(1, len(pdf))))
        size = min(per_row, fb)
        k = list(pdf.columns).index(key)
        return [(row[k], size, row) for row in pdf.itertuples(index=False, name=None)]

    def replay(self, pairs, cfg: HHJConfig) -> list:
        """Run partition pairs through the operator in this process, as the
        executors do. Returns (seconds, counts, output rows, checksum) per
        pair."""
        ci = list(self.o.columns).index("o_custkey")
        pi = list(self.li.columns).index("l_partkey")
        ni = list(self.li.columns).index("l_linenumber")
        gc.collect()
        per_pair = []
        for build, probe in pairs:
            op = DynamicHybridHashJoin(cfg)
            t0 = time.perf_counter()
            out = op.run_collect(build, probe)
            dt = time.perf_counter() - t0
            per_pair.append((dt, stat_counts(op.stats), len(out),
                             sum((b[ci] * 1000003 + p[pi] * 31 + p[ni]) % CHECK_MOD
                                 for b, p in out)))
        return per_pair

    def traced(self, seconds: float) -> dict:
        samples, refs, failed = self.run_ops(seconds)
        wall = statistics.median(samples)
        noop_rows, noop_s = self._timed(self.noop_cogroup)
        self.require(noop_rows == self.records, "no-op cogroup sees every row")
        row, builtin_s = self._timed(self.builtin_join)
        failed += not self.check(row)

        t0 = time.perf_counter()
        pairs = [(self.to_records(self.opd[self.opd[self.PART] == i], "o_orderkey"),
                  self.to_records(self.lpd[self.lpd[self.PART] == i], "l_orderkey"))
                 for i in range(self.N_PAIRS)]
        to_records_s = time.perf_counter() - t0
        cfg = self.hhj_config(use_disk_spill=True)

        build_s, fullness = 0.0, []
        for build, _ in pairs:
            t0 = time.perf_counter()
            parts = DynamicHybridHashJoin(cfg).build_only(build)
            build_s += time.perf_counter() - t0
            fullness.append(frame_fullness(parts))
            for q in parts:
                q.close()
        untraced = self.replay(pairs, cfg)
        tracer = Tracer()
        install_layer_wrappers(tracer)
        try:
            replayed = self.replay(pairs, cfg)
        finally:
            tracer.restore()
        tracer.write(self.out / f"trace-{self.name}-{self.seed}.json")

        secs = [r[0] for r in untraced]
        rows = sum(r[2] for r in untraced)
        failed += (rows, sum(r[3] for r in untraced)) != self.expected
        self.require([r[1:] for r in untraced] == [r[1:] for r in replayed],
                     "exact counts and outputs repeat in the traced replay")
        counts: dict = {}
        for r in untraced:
            add_counts(counts, r[1])
        self.require(counts["spill.bytes_written"] > 0, "the replay spills")
        recursion = counts["operator.rounds"] + counts["operator.in_memory_rounds"] \
            + counts["operator.bnlj_rounds"]
        self.require(recursion > self.N_PAIRS, "the replay recurses")

        sizes = [len(b) + len(p) for b, p in pairs]
        input_bytes = sum(r[1] for b, p in pairs for r in b + p)
        m = dict(counts)
        m.update(span_metrics(tracer))
        m.update(self.wall_metrics(samples, refs))
        m.update({
            "spark.noop_cogroup_s": noop_s,
            "spark.builtin_join_s": builtin_s,
            "spark.udf_residual_s": wall - noop_s,
            "spark.to_records_s": to_records_s,
            "spark.pair_rows.max_over_mean": max(sizes) / statistics.mean(sizes),
            "spark.pair_op_s.max": max(secs),
            "spark.op_serial_s": sum(secs),
            "operator.output_pairs": rows,
            "operator.build_s": build_s,
            "operator.probe_recurse_s": sum(secs) - build_s,
            "insertion.avg_frame_fullness": statistics.mean(fullness),
            "spill_write_amp": counts["spill.bytes_written"] / input_bytes,
            "synth.generate_s": self.generate_s,
            "trace.overhead_s": sum(r[0] for r in replayed) - sum(secs),
        })
        # timed ops, the built-in join and the replay are each checked
        return self.result(m, len(samples) + 2, failed)

    def close(self) -> None:
        if getattr(self, "spark", None) is not None:
            from spark_env import stop_session
            stop_session(self.spark)
            self.spark = None


WORKLOADS = {w.name: w for w in (SparkTpchSpill, OperatorInMemory,
                                 OperatorSpillSkew, PaperFigures)}
