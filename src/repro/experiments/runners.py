"""Uniform driver around NRP and the four baselines.

:class:`AlgorithmSuite` builds whatever indexes a configuration needs once
(NRP, TBS) and exposes every algorithm as ``fn(Query) -> value`` so the
figure/table runners can sweep workloads uniformly.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.baselines.astar import ersp_query, sdrsp_query
from repro.baselines.smoga import smoga_query
from repro.baselines.tbs import TBSIndex
from repro.core.index import NRPIndex
from repro.core.query import QueryStats
from repro.experiments.workloads import Query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.covariance import CovarianceStore
    from repro.network.graph import StochasticGraph

__all__ = ["AlgorithmSuite", "run_workload", "ALGORITHM_ORDER"]

#: Paper ordering: fastest-claimed first.
ALGORITHM_ORDER = ("NRP", "TBS", "ERSP-A*", "SDRSP-A*", "SMOGA")


@dataclass
class WorkloadResult:
    """Timing (and values, for cross-validation) of one algorithm sweep."""

    algorithm: str
    seconds: float
    values: list[float] = field(default_factory=list)

    @property
    def ms_per_query(self) -> float:
        return 1000.0 * self.seconds / max(1, len(self.values))


class AlgorithmSuite:
    """All five RSP algorithms over one network configuration."""

    def __init__(
        self,
        graph: "StochasticGraph",
        cov: "CovarianceStore | None" = None,
        *,
        window: int = 4,
        algorithms: tuple[str, ...] = ALGORITHM_ORDER,
        smoga_rounds: int = 20,
    ) -> None:
        self.graph = graph
        self.cov = cov
        self.window = window
        self.nrp: NRPIndex | None = None
        self.tbs: TBSIndex | None = None
        if "NRP" in algorithms:
            self.nrp = NRPIndex(graph, cov, window=window)
        if "TBS" in algorithms:
            self.tbs = TBSIndex(graph)
        self._smoga_rounds = smoga_rounds
        self.nrp_stats = QueryStats()
        self._fns: dict[str, Callable[[Query], float]] = {}
        for name in algorithms:
            self._fns[name] = self._make(name)

    def _make(self, name: str) -> Callable[[Query], float]:
        graph, cov, window = self.graph, self.cov, self.window
        if name == "NRP":
            index = self.nrp
            stats = self.nrp_stats

            def run(q: Query) -> float:
                return index.query(q.source, q.target, q.alpha, stats=stats).value

        elif name == "TBS":
            tbs = self.tbs

            def run(q: Query) -> float:
                return tbs.query(q.source, q.target, q.alpha, cov, window=window)[0]

        elif name == "ERSP-A*":

            def run(q: Query) -> float:
                return ersp_query(graph, q.source, q.target, q.alpha, cov, window=window)[0]

        elif name == "SDRSP-A*":

            def run(q: Query) -> float:
                return sdrsp_query(graph, q.source, q.target, q.alpha, cov, window=window)[0]

        elif name == "LC":
            from repro.baselines.labelcorrecting import label_correcting_query

            def run(q: Query) -> float:
                return label_correcting_query(
                    graph, q.source, q.target, q.alpha, cov, window=window
                )[0]

        elif name == "SMOGA":
            rounds = self._smoga_rounds

            def run(q: Query) -> float:
                return smoga_query(
                    graph, q.source, q.target, q.alpha, cov, rounds=rounds
                )[0]

        else:
            raise KeyError(f"unknown algorithm {name!r}")
        return run

    @property
    def algorithms(self) -> tuple[str, ...]:
        return tuple(self._fns)

    def query_fn(self, name: str) -> Callable[[Query], float]:
        """The ``Query -> value`` callable for one algorithm."""
        return self._fns[name]

    def run(self, name: str, queries: list[Query]) -> WorkloadResult:
        """Time one algorithm over a workload.

        Garbage left by earlier work (an index build, another algorithm's
        run) is collected first, so a full collection it owes does not
        land inside — and get charged to — this algorithm's timing.
        """
        fn = self._fns[name]
        values: list[float] = []
        gc.collect()
        start = time.perf_counter()
        for q in queries:
            values.append(fn(q))
        elapsed = time.perf_counter() - start
        return WorkloadResult(name, elapsed, values)


def run_workload(
    suite: AlgorithmSuite, queries: list[Query]
) -> dict[str, WorkloadResult]:
    """Run every algorithm of the suite over the same workload."""
    return {name: suite.run(name, queries) for name in suite.algorithms}
