"""Serve-plane benchmark: one workload against real ``repro serve`` daemons.

Run from the repository root::

    python3 perfbench/run.py --workload popular --seed 1 --seconds 30 --trace 0

One load-generator process, five times over: builds the workload's
index, saves it, starts a daemon, warms it up, runs a timed closed loop
for a fifth of ``--seconds`` (two connections, each with exactly one
request outstanding), on ``popular`` times a WAL write, and stops the
daemon; ``distinct`` first times reloads on one more daemon.
It then checks the daemons' answers against the in-process engine and
prints one JSON result line (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  NOTES.md says what each workload
and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import random
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: program source {ROOT / 'src' / 'repro'} not found")
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from daemon import Conn, Daemon  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    DistinctPairs,
    popular_triples,
    write_batches,
    zipf_stream,
)

from repro.core.index import build_index  # noqa: E402
from repro.core.serialization import load_index, save_index  # noqa: E402
from repro.network.datasets import make_dataset  # noqa: E402
from repro.serve.lifecycle import wal_for  # noqa: E402

#: Daemons per run.  Each is set up from scratch, measured for
#: ``--seconds / DAEMONS`` and stopped.  ``setup_s`` is the median of the
#: set-ups; the timing metrics are medians over the windows of all
#: daemons, so neither one process's luck (hash seed, memory layout) nor
#: one slow stretch of the host decides a run.
DAEMONS = 5
#: ``distinct``: reloads of the unchanged file timed for ``fresh_p50_ms``.
RELOADS = 3
#: ``qps`` and the latency percentiles are medians over consecutive
#: windows of this many timed queries (by completion time): a burst of
#: host noise that covers less than half of the windows does not move
#: them, and each window's p99 has ten samples beyond it.
WINDOW = 1000
#: Replies whose digest a ``distinct`` run re-computes in-process.
CHECK_SAMPLE = 200
#: Requests the traced run's in-process layer probes use.
PROBE_SAMPLE = 200
#: Writes the traced run of ``distinct`` times in-process.
PROBE_WRITES = 3
#: Upper bound on any thread join; a run must end within 180 s.
JOIN_TIMEOUT_S = 150.0

E2E_UNITS = {
    "setup_s": "s", "qps": "q/s", "lat_p50_ms": "ms", "lat_p99_ms": "ms",
    "ok_frac": "ratio", "rss_mb": "MB", "fresh_p50_ms": "ms",
}
LAYER_UNITS = {
    "construction.build_s": "s", "serialization.save_s": "s",
    "serialization.load_s": "s", "serialization.file_mb": "MB",
    "lifecycle.ready_s": "s", "labelstore.index_mb": "MB",
    "labelstore.k_p99": "paths", "treedec.treewidth": "vertices",
    "engine.plan_us": "us", "engine.execute_us": "us",
    "engine.plan_cache.hit_ratio": "ratio", "engine.survivor_ratio": "ratio",
    "engine.concatenations_per_q": "count", "protocol.decode_us": "us",
    "protocol.encode_us": "us", "serve.wait_us": "us", "serve.server_us": "us",
    "serve.handoff_us": "us", "serve.outside_us": "us", "serve.batch_mean": "count",
    "serve.shed": "count", "maintenance.update_ms": "ms",
    "maintenance.labels_rebuilt": "count", "wal.append_ms": "ms",
    "daemon.cpu_us_per_q": "us", "daemon.util": "ratio", "host.calib_ms": "ms",
    "driver.cpu_us_per_op": "us", "trace.qps": "q/s", "trace.lat_p50_ms": "ms",
}


class Spans:
    """Spans (name, start, end, id, parent, request id) kept in memory.

    Off in untraced runs; ``add`` is then never called on the hot path.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.rows: list[tuple] = []
        self._ids = itertools.count(1)

    def new_id(self) -> int:
        return next(self._ids)

    def add(self, name: str, start: int, end: int, parent: int = 0, rid=None,
            span_id: "int | None" = None) -> None:
        if span_id is None:
            span_id = next(self._ids)
        self.rows.append((name, start, end, span_id, parent, rid))

    def timed(self, name: str, fn, *args):
        """Call ``fn``; returns ``(result, seconds)`` and records a span."""
        start = perf_counter_ns()
        result = fn(*args)
        end = perf_counter_ns()
        if self.enabled:
            self.add(name, start, end)
        return result, (end - start) / 1e9

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start_ns", "end_ns", "id", "parent", "rid"]
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({**meta, "fields": fields, "spans": self.rows}))
        tmp.replace(path)


class Reads:
    """What one read connection saw: per-request timings and replies."""

    def __init__(self) -> None:
        self.sent: list[int] = []
        self.done: list[int] = []
        self.triples: list[tuple] = []
        self.digests: list[int] = []
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.rss_mb: "float | None" = None

    @property
    def ok(self) -> int:
        return len(self.digests)

    @property
    def attempted(self) -> int:
        return self.ok + self.failed

    def fail(self, kind: str) -> None:
        self.failed += 1
        self.errors[kind] = self.errors.get(kind, 0) + 1


def query_line(rid: int, q: tuple) -> bytes:
    return b'{"op":"query","id":%d,"s":%d,"t":%d,"alpha":%s}\n' % (
        rid, q[0], q[1], repr(q[2]).encode())


def read_loop(conn: Conn, stream, reads: Reads, stop, rid0: int, spans: Spans,
              parent: int = 0, rss_at: "int | None" = None,
              daemon: "Daemon | None" = None) -> None:
    """Closed loop: send one query, wait for its reply, until ``stop(n)``.

    ``rss_at``: read the daemon's peak RSS after that many requests.
    """
    n = 0
    while not stop(n):
        q = next(stream)
        rid = rid0 + n
        line = query_line(rid, q)
        t0 = perf_counter_ns()
        try:
            conn.sock.sendall(line)
            obj = json.loads(conn.rfile.readline())
        except (OSError, ValueError):
            obj = {"error": "transport"}
            conn.reopen()
        t1 = perf_counter_ns()
        n += 1
        if spans.enabled:
            spans.add("query", t0, t1, parent, rid)
        if obj.get("ok"):
            reads.sent.append(t0)
            reads.done.append(t1)
            reads.triples.append(q)
            reads.digests.append(obj["digest"])
        else:
            reads.fail(str(obj.get("error")))
        if n == rss_at:
            reads.rss_mb = daemon.peak_rss_mb()


def run_pair(here, there) -> None:
    """Run ``here`` on this thread and ``there`` on one more; re-raise errors."""
    errors: list[BaseException] = []

    def target() -> None:
        try:
            there()
        except BaseException as exc:
            errors.append(exc)

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    try:
        here()
    finally:
        worker.join(JOIN_TIMEOUT_S)
    if worker.is_alive():
        raise RuntimeError("benchmark thread did not finish")
    if errors:
        raise errors[0]


def percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Served:
    """What one daemon's warm-up and timed phase saw."""

    def __init__(self) -> None:
        self.warm = [Reads(), Reads()]
        self.reads = [Reads(), Reads()]
        self.before: tuple = ()
        self.after: tuple = ()
        self.calib_ms = 0.0
        self.start = 0
        self.phase_s = 0.0
        self.rss_mb = 0.0
        self.daemon_cpu_s = 0.0
        self.driver_cpu_s = 0.0
        #: Untimed top-up queries outside ``warm``/``reads`` (``rss_mb``).
        self.top_up = Reads()

    def windows(self) -> "tuple[list, list, list]":
        """Throughput, p50 and p99 of each window of ``WINDOW`` completions."""
        done = sorted((t1, t1 - t0) for r in self.reads for t0, t1 in zip(r.sent, r.done))
        if not done:
            raise RuntimeError("no timed query was answered")
        size = min(WINDOW, len(done))
        qps, p50, p99 = [], [], []
        for i in range(0, len(done) - size + 1, size):
            window = done[i:i + size]
            opened = done[i - 1][0] if i else self.start
            qps.append(size / ((window[-1][0] - opened) / 1e9))
            lat = [d / 1e6 for _, d in window]
            p50.append(percentile(lat, 0.5))
            p99.append(percentile(lat, 0.99))
        return qps, p50, p99


class Run:
    """Everything the daemon-facing part of a run observed."""

    def __init__(self) -> None:
        self.setup: dict[str, list[float]] = {
            "setup_s": [], "construction.build_s": [], "serialization.save_s": [],
            "lifecycle.ready_s": [],
        }
        self.served: list[Served] = []
        #: ``(milliseconds, ok)`` per timed write (``popular``) or reload
        #: of the unchanged file (``distinct``).
        self.fresh: list[tuple[float, bool]] = []
        #: ``popular``: the triples, each daemon's batch, the WAL append
        #: times, and each daemon's replies to every triple after its write.
        self.triples: list = []
        self.batches: list = []
        self.append_ms: list[float] = []
        self.after_writes: list[Reads] = []


def set_up(workload, run: Run, spans: Spans, index_path: Path, log_path: Path):
    """Build, save, start the daemon, first ``ping``; returns ``(daemon, index, graph)``."""
    net = workload.network()
    wal_for(index_path).path.unlink(missing_ok=True)
    started = perf_counter()
    graph, _ = make_dataset(net["dataset"], scale=net["scale"], cv=net["cv"],
                            seed=net["seed"])
    index, build_s = spans.timed("construction.build", build_index, graph)
    _, save_s = spans.timed("serialization.save", save_index, index, index_path)
    daemon, _ = spans.timed("lifecycle.ready", Daemon, ROOT, index_path, log_path)
    run.setup["setup_s"].append(perf_counter() - started)
    run.setup["construction.build_s"].append(build_s)
    run.setup["serialization.save_s"].append(save_s)
    run.setup["lifecycle.ready_s"].append(daemon.ready_s)
    return daemon, index, graph


class Streams:
    """The run's seeded request streams, continued from daemon to daemon."""

    def __init__(self, workload, n: int, seed: int) -> None:
        if workload.name == "distinct":
            # Never-repeating pairs, across all daemons of the run.
            pairs = [DistinctPairs(n, seed, 2, c) for c in range(2)]
            self.triples: list = []
            self.warm = [p.stream(p.warm_rng) for p in pairs]
            self.timed = [p.stream(p.timed_rng) for p in pairs]
        else:
            self.triples = popular_triples(n)
            self.warm = [zipf_stream(self.triples, seed, f"warm{c}") for c in range(2)]
            self.timed = [zipf_stream(self.triples, seed, c) for c in range(2)]


def traffic(workload, served: Served, streams: Streams, seconds: float, spans: Spans,
            daemon: Daemon, rid0: int) -> None:
    """Warm up, scrape, run the timed closed loop, scrape again."""
    # Every popular triple once, so every plan is cached, then draws.
    warm_count = len(streams.triples) + workload.warmup
    conns = [Conn(daemon.port), Conn(daemon.port)]
    try:
        run_pair(*[
            lambda c=c: read_loop(conns[c], itertools.chain(streams.triples, streams.warm[c]),
                                  served.warm[c], lambda k: k >= warm_count,
                                  rid0 + (c << 36), spans)
            for c in range(2)])

        # The second connection is closed while /metrics is scraped, so
        # the load generator never holds more than two connections.
        conns[1].close()
        served.before = daemon.metrics(), conns[0].call({"op": "stats"})
        conns[1] = Conn(daemon.port)

        # No collector pauses in the load generator while it times requests.
        gc.collect()
        gc.disable()
        served.calib_ms = layers.calibrate_host()
        cpu_daemon0, cpu_driver0 = daemon.cpu_s(), time.process_time()
        phase_id = spans.new_id()
        start = perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        rss_at = workload.rss_after
        run_pair(*[
            lambda c=c: read_loop(conns[c], streams.timed[c], served.reads[c],
                                  lambda k: perf_counter_ns() >= deadline,
                                  rid0 + (1 << 40) + (c << 36), spans, phase_id,
                                  rss_at=rss_at, daemon=daemon)
            for c in range(2)])
        end = perf_counter_ns()
        served.daemon_cpu_s = daemon.cpu_s() - cpu_daemon0
        served.driver_cpu_s = time.process_time() - cpu_driver0
        gc.enable()
        served.start, served.phase_s = start, (end - start) / 1e9
        if spans.enabled:
            spans.add("timed", start, end, span_id=phase_id)

        if rss_at is None:
            served.rss_mb = daemon.peak_rss_mb()
        else:
            for c, reads in enumerate(served.reads):
                if reads.rss_mb is None:  # the phase ended first: top up, untimed
                    more = rss_at - reads.attempted
                    read_loop(conns[c], streams.timed[c], served.top_up,
                              lambda k: k >= more, rid0 + (2 << 40) + (c << 36), spans,
                              rss_at=more, daemon=daemon)
                    reads.rss_mb = served.top_up.rss_mb
            served.rss_mb = max(r.rss_mb for r in served.reads)

        conns[1].close()
        served.after = daemon.metrics(), conns[0].call({"op": "stats"})
    finally:
        gc.enable()
        for conn in conns:
            conn.close()


def call_timed(conn: Conn, request: dict) -> "tuple[dict, int]":
    """One request/reply; returns the reply (``{}`` if lost) and its end time."""
    try:
        reply = conn.call(request)
    except (OSError, ValueError):
        reply = {}
        conn.reopen()
    return reply, perf_counter_ns()


def write_and_reload(run: Run, spans: Spans, daemon: Daemon, index_path: Path,
                     batch: list, rid0: int) -> None:
    """``popular``, after the timed phase: time one WAL write until visible.

    Append ``batch`` to the index's WAL, ``reload``, expect
    ``replayed == 1``; then ask for every triple once, to check against a
    mirror that applied the same batch.  One write per daemon: on one
    daemon each reload takes longer than the one before (NOTES.md).
    """
    conn = Conn(daemon.port)
    try:
        a0 = perf_counter_ns()
        wal_for(index_path).append_batch(batch)
        a1 = perf_counter_ns()
        reply, r1 = call_timed(conn, {"op": "reload", "id": rid0})
        if spans.enabled:
            spans.add("wal.append", a0, a1, rid=rid0)
            spans.add("reload", a1, r1, rid=rid0)
        run.append_ms.append((a1 - a0) / 1e6)
        run.fresh.append(((r1 - a0) / 1e6,
                          bool(reply.get("ok") and reply.get("replayed") == 1)))
        after = Reads()
        read_loop(conn, iter(run.triples), after, lambda k: k >= len(run.triples),
                  rid0 + (1 << 20), spans)
        run.after_writes.append(after)
    finally:
        conn.close()


def reload_unchanged(run: Run, spans: Spans, daemon: Daemon, rid0: int) -> None:
    """``distinct``: time operator reloads of the unchanged file (load,
    verify, swap; no maintenance) on a daemon that serves nothing.

    Not on the serving daemons: before the warm-up a reload would set
    their peak RSS, and after the timed phase it also frees every plan
    they memoised, which took either ~550 or ~830 ms at random.
    """
    conn = Conn(daemon.port)
    try:
        for i in range(RELOADS):
            r0 = perf_counter_ns()
            reply, r1 = call_timed(conn, {"op": "reload", "id": rid0 + i})
            if spans.enabled:
                spans.add("reload", r0, r1, rid=rid0 + i)
            run.fresh.append(((r1 - r0) / 1e6,
                              bool(reply.get("ok") and reply.get("replayed") == 0)))
    finally:
        conn.close()


def check(workload, run: Run, seed: int, spans: Spans, graph, base_path: Path,
          work: Path, backend: str) -> "tuple[int, dict]":
    """Re-answer the daemons' replies in-process; returns ``(wrong, layer metrics)``.

    A traced run also times the in-process layer probes here.
    """
    rng = random.Random(f"perfbench-check:{seed}")
    index, load_s = spans.timed("serialization.load", load_index, base_path)
    layer: dict = {"serialization.load_s": load_s}
    timed = [r for served in run.served for r in served.reads]
    if spans.enabled:
        pool = [q for r in timed for q in r.triples]
        sample = rng.sample(pool, min(PROBE_SAMPLE, len(pool)))
        layer.update(layers.query_probe(
            index, [(query_line(i, q), q) for i, q in enumerate(sample)], backend))
    if workload.name == "distinct":
        per_conn = CHECK_SAMPLE // len(timed)
        replies = [(r.triples[i], r.digests[i]) for r in timed
                   for i in rng.sample(range(r.ok), min(per_conn, r.ok))]
    else:  # popular: every reply, warm-up included
        replies = [pair for served in run.served for r in served.warm + served.reads
                   for pair in zip(r.triples, r.digests)]
    wrong = layers.count_wrong(replies, layers.digests(index, {q for q, _ in replies}))
    if workload.writes:
        # A mirror per daemon: the base index with that daemon's batch applied.
        reports = []
        for d, (batch, after) in enumerate(zip(run.batches, run.after_writes)):
            mirror = index if d == 0 else load_index(base_path)
            versions, report = layers.replay(mirror, [batch], run.triples)
            wrong += layers.count_wrong(zip(after.triples, after.digests), versions[-1])
            reports += report
        if spans.enabled:
            layer["wal.append_ms"] = statistics.median(run.append_ms)
    elif spans.enabled:
        batches = list(itertools.islice(write_batches(graph, seed, PROBE_WRITES),
                                        PROBE_WRITES))
        layer["wal.append_ms"] = statistics.median(
            layers.wal_append_ms(work / "probe.wal", batches))
        _, reports = layers.replay(index, batches, [])
    if spans.enabled:
        layer["maintenance.update_ms"] = statistics.median(r.seconds * 1e3 for r in reports)
        layer["maintenance.labels_rebuilt"] = statistics.mean(
            r.labels_rebuilt for r in reports)
    return wrong, layer


def metrics(run: Run, index, base_path: Path, wrong: int) -> dict:
    """End-to-end and daemon-side layer metrics, plus the run's context."""
    served = run.served
    timed = [r for s in served for r in s.reads]
    every = [r for s in served for r in s.warm + s.reads + [s.top_up]] + run.after_writes
    timed_ok = sum(r.ok for r in timed)
    timed_ops = sum(r.attempted for r in timed)
    attempted = sum(r.attempted for r in every) + len(run.fresh)
    failed = sum(r.failed for r in every) + sum(not ok for _, ok in run.fresh) + wrong
    windows = [s.windows() for s in served]
    fresh_ms = [ms for ms, ok in run.fresh if ok] or [ms for ms, _ in run.fresh]
    setup = {k: statistics.median(v) for k, v in run.setup.items()}
    e2e = {
        "setup_s": setup["setup_s"],
        "qps": statistics.median(v for w in windows for v in w[0]),
        "lat_p50_ms": statistics.median(v for w in windows for v in w[1]),
        "lat_p99_ms": statistics.median(v for w in windows for v in w[2]),
        "ok_frac": (attempted - failed) / attempted,
        "rss_mb": statistics.median(s.rss_mb for s in served),
        "fresh_p50_ms": statistics.median(fresh_ms),
    }

    def delta(series: str, scrape: int = 0) -> float:
        return sum(s.after[scrape][series] - s.before[scrape][series] for s in served)

    def mean_us(series: str) -> float:
        return delta(series + "_sum") / delta(series + "_count") * 1e6

    plan_us = mean_us("repro_engine_plan_seconds")
    execute_us = mean_us("repro_engine_execute_seconds")
    wait_us = mean_us("repro_serve_wait")
    server_us = mean_us("repro_serve_latency")
    hits = delta("repro_engine_plan_cache_hit_total")
    misses = delta("repro_engine_plan_cache_miss_total")
    lat_ms = [(t1 - t0) / 1e6 for r in timed for t0, t1 in zip(r.sent, r.done)]
    k_sizes = [len(ls) for plane in index.planes() for entry in plane.labels.values()
               for ls in entry.values()]
    daemon_cpu_s = sum(s.daemon_cpu_s for s in served)
    driver_us = sum(s.driver_cpu_s for s in served) / timed_ops * 1e6
    daemon_us = daemon_cpu_s / timed_ok * 1e6
    calib_ms = statistics.median(s.calib_ms for s in served)
    layer = {
        "construction.build_s": setup["construction.build_s"],
        "serialization.save_s": setup["serialization.save_s"],
        "serialization.file_mb": base_path.stat().st_size / 1e6,
        "lifecycle.ready_s": setup["lifecycle.ready_s"],
        "labelstore.index_mb": index.size_info().exact_bytes / 1e6,
        "labelstore.k_p99": percentile(k_sizes, 0.99),
        "treedec.treewidth": index.treewidth,
        "engine.plan_us": plan_us,
        "engine.execute_us": execute_us,
        "engine.plan_cache.hit_ratio": hits / (hits + misses),
        "serve.wait_us": wait_us,
        "serve.server_us": server_us,
        "serve.handoff_us": server_us - wait_us - plan_us - execute_us,
        "serve.outside_us": statistics.fmean(lat_ms) * 1e3 - server_us,
        "serve.batch_mean": delta("batch_queries", 1) / delta("batches", 1),
        "serve.shed": delta("shed", 1),
        "daemon.cpu_us_per_q": daemon_us,
        "daemon.util": daemon_cpu_s / sum(s.phase_s for s in served),
        "host.calib_ms": calib_ms,
        "driver.cpu_us_per_op": driver_us,
        "trace.qps": e2e["qps"],
        "trace.lat_p50_ms": e2e["lat_p50_ms"],
    }
    context = {
        "phase_s": [round(s.phase_s, 3) for s in served],
        "timed_queries": timed_ok, "fresh_ms": [round(ms, 1) for ms, _ in run.fresh],
        "wrong": wrong,
        "errors": {k: v for r in every for k, v in r.errors.items()},
        "per_daemon_qps": [round(statistics.median(w[0]), 1) for w in windows],
        "per_daemon_p99_ms": [round(statistics.median(w[2]), 3) for w in windows],
        "host.calib_ms": calib_ms, "driver.cpu_us_per_op": driver_us,
        "daemon.cpu_us_per_q": daemon_us,
    }
    return {"e2e": e2e, "layer": layer, "context": context,
            "attempted": attempted, "failed": failed}


def run_workload(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    spans = Spans(trace)
    index_path = work / "index.nrp.json"
    base_path = work / "base.nrp.json"
    log_path = work / "daemon.log"
    run = Run()
    daemon = None
    # ``distinct`` sets up one more daemon, first, that only reloads.
    roles = ([] if workload.writes else ["reload"]) + ["serve"] * DAEMONS
    try:
        for d, role in enumerate(roles):
            daemon, index, graph = set_up(workload, run, spans, index_path, log_path)
            if d == 0:
                # Reloads rewrite the served file; the check reads this copy.
                shutil.copyfile(index_path, base_path)
                backend = daemon.ping["backend"]
                streams = Streams(workload, graph.num_vertices, seed)
                if workload.writes:
                    run.triples = streams.triples
                    run.batches = list(itertools.islice(
                        write_batches(graph, seed, DAEMONS), DAEMONS))
            rid0 = d << 44
            if role == "reload":
                reload_unchanged(run, spans, daemon, rid0)
            else:
                run.served.append(Served())
                traffic(workload, run.served[-1], streams, seconds / DAEMONS, spans,
                        daemon, rid0)
                if workload.writes:
                    write_and_reload(run, spans, daemon, index_path, run.batches[d],
                                     rid0 + (3 << 40))
            daemon.stop()  # SIGINT and wait; teardown is not an operation
    except BaseException:
        if log_path.exists():
            sys.stderr.write(log_path.read_text(errors="replace")[-4000:])
        raise
    finally:
        if daemon is not None:
            daemon.stop()
    wrong, layer = check(workload, run, seed, spans, graph, base_path, work, backend)
    out = metrics(run, index, base_path, wrong)
    layer.update(out["layer"])
    context = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "network": {**workload.network(), "vertices": graph.num_vertices,
                    "treewidth": index.treewidth},
        "backend": backend, **out["context"],
    }
    if trace:
        spans.write(ROOT / ".perfbench" / "spans" / f"{workload.name}-seed{seed}.json",
                    context)
    units, values = (LAYER_UNITS, layer) if trace else (E2E_UNITS, out["e2e"])
    return {
        "context": context,
        "result": {
            "correct": wrong == 0,
            "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        },
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Load generator and daemon (which inherits this) share one CPU; see NOTES.md.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        out = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"context": out["context"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
