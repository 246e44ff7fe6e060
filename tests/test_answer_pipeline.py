"""The one answer pipeline: validate → plan → execute, one per-query record.

- A query that carries a deadline moves the engine metrics exactly as one
  without, and a slow one reaches the slow-query log (the deadline path
  used to feed only the flight recorder).
- An unknown vertex is refused with :class:`QueryValidationError` on
  every path — ``query``, ``query_batch``, the daemon and the CLI — not
  only when a deadline is set (it used to escape as a bare ``KeyError``).
- The daemon's code path answers queries without importing numpy.
"""

from __future__ import annotations

import logging
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import build_index, obs
from repro.cli import main
from repro.obs.profiling import SLOW_QUERY_LOGGER
from repro.resilience.errors import QueryValidationError
from repro.serve.client import ServeClient
from repro.serve.server import QueryServer
from conftest import make_random_instance, random_query

_SRC = Path(__file__).resolve().parent.parent / "src"
_COUNTERS = ("engine.queries",)
_TIMERS = ("engine.plan", "engine.execute")


@pytest.fixture(scope="module")
def index():
    return build_index(make_random_instance(31, n=24, extra=30))


@pytest.fixture(autouse=True)
def _obs_clean():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _queries(index, count=10, seed=8):
    rng = random.Random(seed)
    return [random_query(index.graph, rng) for _ in range(count)]


def _moved(run) -> dict:
    """How far ``run()`` moved the three engine metrics."""
    obs.reset()
    obs.enable(metrics=True, tracing=False)
    run()
    registry = obs.registry()
    moved = {name: registry.counter(name).value for name in _COUNTERS}
    moved.update({name: registry.timer(name).count for name in _TIMERS})
    obs.disable()
    return moved


class TestDeadlineMetrics:
    def test_single_and_batch_deadline_queries_move_engine_metrics(self, index):
        queries = _queries(index)
        engine = index.engine
        expected = {name: len(queries) for name in _COUNTERS + _TIMERS}
        assert _moved(lambda: [engine.answer(*q) for q in queries]) == expected
        assert _moved(
            lambda: [engine.answer(*q, deadline_s=60.0) for q in queries]
        ) == expected
        assert _moved(lambda: engine.answer_batch(queries)) == expected
        assert _moved(
            lambda: engine.answer_batch(queries, deadline_s=60.0)
        ) == expected

    def test_slow_deadline_query_reaches_slow_log(self, index, caplog):
        s, t, alpha = _queries(index, count=1)[0]
        obs.slow_query_log().configure(0.0)  # every query is slow
        with caplog.at_level(logging.WARNING, logger=SLOW_QUERY_LOGGER):
            index.query(s, t, alpha, deadline_s=60.0)
        assert obs.slow_query_log().logged == 1
        assert any(
            r.getMessage().startswith(f"slow query s={s} t={t}")
            for r in caplog.records
        )


class TestUnknownVertex:
    def test_query_and_batch_raise_typed_error(self, index):
        s = next(iter(index.graph.vertices()))
        with pytest.raises(QueryValidationError, match="target vertex"):
            index.query(s, 10**6, 0.9)
        with pytest.raises(QueryValidationError, match="source vertex"):
            index.query(10**6, s, 0.9)
        with pytest.raises(QueryValidationError, match="target vertex"):
            index.query_batch([(s, 10**6, 0.9)])

    def test_daemon_answers_invalid(self, index):
        s = next(iter(index.graph.vertices()))
        with QueryServer(index, workers=1, batch_max=4) as qs:
            with ServeClient(port=qs.port) as client:
                reply = client.request(
                    {"op": "query", "s": s, "t": 10**6, "alpha": 0.9}
                )
            assert qs.stats.snapshot()["invalid"] == 1
        assert reply["ok"] is False and reply["error"] == "invalid"
        assert "not in the indexed graph" in reply["detail"]

    def test_cli_exits_2(self, tmp_path, capsys):
        index_file = tmp_path / "v.nrp.json"
        assert main(
            ["build", "--dataset", "NY", "--scale", "0.15", "--output", str(index_file)]
        ) == 0
        capsys.readouterr()
        code = main(
            ["query", "--index", str(index_file), "--source", "0",
             "--target", "1000000", "--alpha", "0.9"]
        )
        assert code == 2
        assert "not in the indexed graph" in capsys.readouterr().err


def test_daemon_path_runs_without_numpy(tmp_path):
    """The serve path imports and answers with numpy absent from
    ``sys.modules``: the reference kernels need nothing outside stdlib."""
    script = f"""
import sys
from repro.cli import main
from repro.serve.client import ServeClient
from repro.serve.server import QueryServer
from repro.serve.lifecycle import open_with_recovery
assert main(["build", "--dataset", "NY", "--scale", "0.15",
             "--output", {str(tmp_path / "n.nrp.json")!r}]) == 0
index, _ = open_with_recovery({str(tmp_path / "n.nrp.json")!r})
with QueryServer(index, workers=1) as qs:
    with ServeClient(port=qs.port) as client:
        assert client.ping()["backend"] == "python"
        vertices = sorted(index.graph.vertices())
        for t in vertices[1:6]:
            assert client.query(vertices[0], t, 0.9)["ok"]
assert "numpy" not in sys.modules, "numpy was imported"
print("ok")
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(_SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip().endswith("ok")
