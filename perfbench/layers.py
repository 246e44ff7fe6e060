"""In-process measurements, made by the load generator outside the timed phase.

Everything here calls the program's public API on the workload's own
index file and a seeded sample of its requests: the answer check that
every run makes, and the per-layer probes of a traced run.
"""

from __future__ import annotations

import statistics
import time

from repro.core.maintenance import IndexMaintainer
from repro.core.query import QueryStats
from repro.resilience.wal import WriteAheadLog
from repro.serve.protocol import decode_request, encode_message, query_response


def calibrate_host() -> float:
    """Milliseconds a fixed pure-Python loop takes (median of 5)."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((time.perf_counter() - started) * 1e3)
    return statistics.median(times)


def digests(index, triples) -> dict:
    """``{(s, t, alpha): digest}`` from the in-process engine."""
    return {q: index.query(*q).digest() for q in triples}


def count_wrong(replies, expected: dict) -> int:
    """Replies ``(triple, digest)`` whose digest differs from ``expected``."""
    return sum(1 for q, digest in replies if digest != expected[q])


def query_probe(index, sample, backend: str) -> dict:
    """Pruning counts and protocol costs on a sample of the requests.

    ``sample`` holds ``(request_line, (s, t, alpha))``.
    """
    stats = QueryStats()
    results = [index.query(*q, stats=stats) for _, q in sample]
    lines = [line for line, _ in sample]
    reps = 10
    decode, encode = [], []
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(reps):
            for line in lines:
                decode_request(line)
        decode.append(time.perf_counter() - started)
        started = time.perf_counter()
        for _ in range(reps):
            for i, result in enumerate(results):
                encode_message(query_response(i, result, backend=backend, wait_us=0, batch=1))
        encode.append(time.perf_counter() - started)
    ops = reps * len(sample)
    return {
        "engine.survivor_ratio": stats.surviving_paths / stats.candidate_paths,
        "engine.concatenations_per_q": stats.concatenations / len(sample),
        "protocol.decode_us": statistics.median(decode) / ops * 1e6,
        "protocol.encode_us": statistics.median(encode) / ops * 1e6,
    }


def replay(index, batches, triples) -> "tuple[list[dict], list]":
    """Apply ``batches`` in order with ``IndexMaintainer.update_batch``.

    Returns the expected digests of ``triples`` after each prefix of the
    batches (``versions[k]`` after ``k`` writes) and the maintenance
    reports.
    """
    maintainer = IndexMaintainer(index)
    versions = [digests(index, triples)]
    reports = []
    for batch in batches:
        reports.append(maintainer.update_batch(batch))
        versions.append(digests(index, triples))
    return versions, reports


def wal_append_ms(wal_path, batches) -> list[float]:
    """Milliseconds per ``append_batch`` (fsync included) on a scratch WAL."""
    wal = WriteAheadLog(wal_path)
    out = []
    for batch in batches:
        started = time.perf_counter()
        wal.append_batch(batch)
        out.append((time.perf_counter() - started) * 1e3)
    return out
