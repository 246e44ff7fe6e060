"""Serving-plane benchmark: sustained closed-loop load on a live daemon.

Spawns a real :class:`repro.serve.server.QueryServer` (real sockets, real
worker pool) and drives it with closed-loop client threads over a
repeated-triple workload — the regime road-network serving actually
sees, where a small set of popular ``(s, t, alpha)`` triples dominates
the stream.  Two configurations run on the same index and workload, in
alternating rounds (the order flips every round, so host drift biases
neither):

- ``batch_max=1`` — one uncached ``answer`` per request: the CLI-parity
  baseline, no micro-batching, no plan memoisation;
- ``batch_max=32`` — the daemon's micro-batching path through
  ``answer_batch`` with plan memoisation.

Reported per configuration, from its median-throughput round:
queries/sec, client-side p50/p95/p99 latency, degraded fraction, and
shed fraction.  The acceptance bar from the serve PR: micro-batching
must beat one-query-per-request throughput on the repeated-triple
workload — compared on the medians, because one back-to-back pair of
640-query runs is too short to separate the two reliably.

Artefacts: ``benchmarks/results/serve.txt`` (+ metrics sidecar) and one
record appended to the ``BENCH_serve.json`` trajectory at the repo root.
"""

from __future__ import annotations

import json
import random
import threading
import time
from pathlib import Path

from conftest import QUERIES, SCALE, save_report
from repro.core.index import NRPIndex
from repro.experiments.replay import percentile
from repro.experiments.reporting import format_table
from repro.network.datasets import make_dataset
from repro.resilience.atomic import atomic_write_text
from repro.serve.client import ServeClient
from repro.serve.server import QueryServer

#: Closed-loop client threads (each its own connection).
_CLIENTS = 8

#: Queries per client per configuration — scaled by REPRO_BENCH_QUERIES
#: so the default run stays a few seconds.
_PER_CLIENT = max(40, QUERIES * 4)

#: Distinct triples in the repeated workload: small on purpose, so plan
#: memoisation has something to bite on (popular-pair regime).
_DISTINCT = 12

_ALPHA = 0.9

#: Alternating rounds per configuration; the gate compares medians.
_ROUNDS = 5

_TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
_TRAJECTORY_SCHEMA = "repro.bench.serve/1"


def _append_trajectory(record: dict) -> None:
    document = {"schema": _TRAJECTORY_SCHEMA, "runs": []}
    if _TRAJECTORY.exists():
        loaded = json.loads(_TRAJECTORY.read_text(encoding="utf-8"))
        if loaded.get("schema") == _TRAJECTORY_SCHEMA:
            document = loaded
    document["runs"].append(record)
    atomic_write_text(_TRAJECTORY, json.dumps(document, indent=1) + "\n")


def _repeated_workload(index: NRPIndex, seed: int, count: int):
    """``count`` triples drawn from ``_DISTINCT`` popular pairs."""
    rng = random.Random(seed)
    n = index.graph.num_vertices
    distinct = []
    while len(distinct) < _DISTINCT:
        s, t = rng.randrange(n), rng.randrange(n)
        if s != t:
            distinct.append((s, t, _ALPHA))
    return [distinct[rng.randrange(_DISTINCT)] for _ in range(count)]


def _drive(index: NRPIndex, batch_max: int, deadline_ms: "float | None") -> dict:
    """One closed-loop run against a fresh server; returns its figures."""
    index.engine.invalidate_plans()  # both configurations start cold
    latencies: list[float] = []
    outcome = {"ok": 0, "degraded": 0, "shed": 0, "error": 0}
    lock = threading.Lock()

    with QueryServer(index, workers=2, batch_max=batch_max) as server:
        port = server.port

        def client_loop(seed: int) -> None:
            workload = _repeated_workload(index, seed, _PER_CLIENT)
            with ServeClient(port=port) as client:
                for i, (s, t, alpha) in enumerate(workload):
                    started = time.perf_counter()
                    response = client.query(
                        s, t, alpha, id=i, deadline_ms=deadline_ms
                    )
                    elapsed = time.perf_counter() - started
                    with lock:
                        latencies.append(elapsed)
                        if response.get("ok"):
                            outcome["ok"] += 1
                            if response.get("degraded"):
                                outcome["degraded"] += 1
                        elif response.get("error") == "shed":
                            outcome["shed"] += 1
                        else:
                            outcome["error"] += 1

        threads = [
            threading.Thread(target=client_loop, args=(500 + i,))
            for i in range(_CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        server_stats = server.stats.snapshot()

    total = len(latencies)
    assert outcome["error"] == 0, f"unexpected errors: {outcome}"
    return {
        "batch_max": batch_max,
        "total": total,
        "wall_s": wall,
        "qps": total / wall if wall > 0 else 0.0,
        "p50_ms": percentile(latencies, 0.50) * 1e3,
        "p95_ms": percentile(latencies, 0.95) * 1e3,
        "p99_ms": percentile(latencies, 0.99) * 1e3,
        "degraded_frac": outcome["degraded"] / total,
        "shed_frac": outcome["shed"] / total,
        "mean_batch": server_stats["mean_batch"],
        "max_batch": server_stats["max_batch"],
    }


def test_serve_throughput():
    graph, _ = make_dataset("NY", scale=min(SCALE, 0.4), cv=0.5, seed=7)
    from repro import build_index

    index = build_index(graph)

    runs: dict[int, list[dict]] = {1: [], 32: []}
    for round_ in range(_ROUNDS):
        order = (1, 32) if round_ % 2 == 0 else (32, 1)
        for batch_max in order:
            runs[batch_max].append(_drive(index, batch_max=batch_max, deadline_ms=None))

    def median_run(figures: list[dict]) -> dict:
        return sorted(figures, key=lambda f: f["qps"])[len(figures) // 2]

    unbatched = median_run(runs[1])
    batched = median_run(runs[32])

    def row(label: str, figures: dict) -> list[str]:
        return [
            label,
            f"{figures['qps']:.0f} q/s",
            f"{figures['p50_ms']:.2f} ms",
            f"{figures['p95_ms']:.2f} ms",
            f"{figures['p99_ms']:.2f} ms",
            f"{figures['degraded_frac']:.1%}",
            f"{figures['shed_frac']:.1%}",
            f"{figures['mean_batch']:.1f}",
        ]

    speedup = batched["qps"] / unbatched["qps"] if unbatched["qps"] else float("inf")
    report = format_table(
        ["mode", "throughput", "p50", "p95", "p99", "degraded", "shed", "q/batch"],
        [
            row("one-per-request", unbatched),
            row("micro-batched", batched),
        ],
        title=(
            f"repro serve: {_CLIENTS} closed-loop clients x {_PER_CLIENT} "
            f"queries, {_DISTINCT} distinct triples, median of {_ROUNDS} "
            f"alternating rounds (batched = {speedup:.2f}x throughput)"
        ),
    )
    save_report("serve", report)

    _append_trajectory(
        {
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "scale": min(SCALE, 0.4),
            "clients": _CLIENTS,
            "per_client": _PER_CLIENT,
            "distinct_triples": _DISTINCT,
            "rounds": _ROUNDS,
            "unbatched_qps": [round(f["qps"], 1) for f in runs[1]],
            "batched_qps": [round(f["qps"], 1) for f in runs[32]],
            "unbatched": {k: round(v, 4) if isinstance(v, float) else v
                          for k, v in unbatched.items()},
            "batched": {k: round(v, 4) if isinstance(v, float) else v
                        for k, v in batched.items()},
            "batched_speedup": round(speedup, 3),
        }
    )

    # The acceptance bar: micro-batching (plan memoisation across
    # repeated triples) must beat the one-query-per-request baseline.
    assert batched["qps"] > unbatched["qps"], (
        f"micro-batching must beat one-per-request on the repeated-triple "
        f"workload: {batched['qps']:.0f} vs {unbatched['qps']:.0f} q/s"
    )
