"""Workload definitions and their seeded request and write streams.

A workload fixes the road network (dataset, scale, cv, generator seed),
so index size and set-up time are comparable across seeds; the ``--seed``
argument only drives the query and write streams drawn from it.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

#: Generator seed of every workload's network (fixed, recorded in each run).
NETWORK_SEED = 7
#: Coefficient-of-variation bound of the synthetic edge weights.
NETWORK_CV = 0.5

POPULAR_TRIPLES = 64
POPULAR_ALPHAS = (0.8, 0.9, 0.95)
ZIPF_S = 1.1
DISTINCT_ALPHA = (0.5, 0.99)
#: Edges whose weights one write changes.
WRITE_EDGES = 8
#: Each written edge gets its original mean times a factor in this range
#: (variance scaled by the factor squared, so its CV is kept).
WRITE_FACTOR = (0.8, 1.25)


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    scale: float
    #: Warm-up requests per read connection (count, not time).
    warmup: int
    #: ``rss_mb`` is read once every read connection has completed this
    #: many timed queries; ``None`` reads it when the timed phase ends.
    rss_after: "int | None"
    #: ``fresh_p50_ms`` times WAL writes (append, ``reload``, replay) if
    #: set, else reloads of the unchanged index file.
    writes: bool

    def network(self) -> dict:
        return {
            "dataset": self.dataset,
            "scale": self.scale,
            "cv": NETWORK_CV,
            "seed": NETWORK_SEED,
        }


#: Why each workload exists is in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("popular", "NY", 0.6, warmup=1000, rss_after=None, writes=True),
        # Every distinct plan is memoised, so daemon memory grows with the
        # queries answered; reading it at a fixed count keeps a faster
        # engine from reading as a memory regression.
        Workload("distinct", "NY", 1.0, warmup=150, rss_after=2000, writes=False),
    )
}


def _rng(seed: int, *tags: object) -> random.Random:
    return random.Random(f"perfbench:{seed}:" + ":".join(map(str, tags)))


def popular_triples(n: int) -> list[tuple[int, int, float]]:
    """The 64 ``(s, t, alpha)`` triples popular traffic draws from, by rank.

    Like the network they belong to, they are fixed: the seed drives the
    draws.  A per-seed triple set made the mean query cost, and so
    ``qps``, depend on which pairs happened to be popular (up to 26%
    apart across five seeds).
    """
    rng = _rng(NETWORK_SEED, "popular-triples")
    pairs: set[tuple[int, int]] = set()
    triples = []
    while len(triples) < POPULAR_TRIPLES:
        s, t = rng.randrange(n), rng.randrange(n)
        if s == t or (s, t) in pairs:
            continue
        pairs.add((s, t))
        triples.append((s, t, rng.choice(POPULAR_ALPHAS)))
    return triples


def zipf_stream(triples: list, seed: int, caller: int):
    """Endless Zipf(1.1) draws over ``triples`` (rank 1 = first triple)."""
    rng = _rng(seed, "zipf", caller)
    cum = list(itertools.accumulate(r ** -ZIPF_S for r in range(1, len(triples) + 1)))
    total = cum[-1]
    while True:
        yield triples[bisect.bisect_left(cum, rng.random() * total)]


class DistinctPairs:
    """Never-repeating pairs for one caller (callers split sources by parity).

    Warm-up and timed draws share the ``seen`` set but come from separately
    seeded generators, so no timed triple can hit a plan or separator the
    warm-up cached.
    """

    def __init__(self, n: int, seed: int, callers: int, caller: int) -> None:
        self.n = n
        self.callers = callers
        self.caller = caller
        self.seen: set[tuple[int, int]] = set()
        self.warm_rng = _rng(seed, "distinct-warmup", caller)
        self.timed_rng = _rng(seed, "distinct-timed", caller)

    def stream(self, rng: random.Random):
        lo, hi = DISTINCT_ALPHA
        while True:
            s = rng.randrange(self.caller, self.n, self.callers)
            t = rng.randrange(self.n)
            if s == t or (s, t) in self.seen:
                continue
            self.seen.add((s, t))
            yield (s, t, rng.uniform(lo, hi))


def write_batches(graph, seed: int, fixed: int):
    """Endless batches of absolute edge-weight changes.

    The first ``fixed`` batches are drawn with the network, like the
    popular triples, and the seed only orders them; later batches come
    from the seed.  Per-seed batches would make the writes' cost depend
    on which edges happened to change.
    """
    edges = sorted(graph.edge_keys())
    lo, hi = WRITE_FACTOR

    def draw(rng: random.Random) -> list:
        batch = []
        for u, v in rng.sample(edges, WRITE_EDGES):
            weight = graph.edge(u, v)
            f = rng.uniform(lo, hi)
            batch.append((u, v, weight.mu * f, weight.variance * f * f))
        return batch

    network_rng = _rng(NETWORK_SEED, "writes")
    pool = [draw(network_rng) for _ in range(fixed)]
    rng = _rng(seed, "writes")
    rng.shuffle(pool)
    yield from pool
    while True:
        yield draw(rng)
