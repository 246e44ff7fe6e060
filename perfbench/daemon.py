"""The daemon under test: a real ``python -m repro serve`` process.

Spawned with default flags and without ``NRP_KERNELS`` in its
environment, so the ``auto`` kernel choice and the default-on metrics
registry run as deployed.  Stopped with SIGINT, never the ``shutdown``
op, whose ack can be lost (see NOTES.md).
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.serve.client import http_get

#: Read timeout per request; a reply slower than this counts as failed.
REQUEST_TIMEOUT_S = 20.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


class Conn:
    """One NDJSON connection with exactly one request outstanding."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._dial()

    def _dial(self) -> None:
        self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=10.0)
        self.sock.settimeout(REQUEST_TIMEOUT_S)
        self.rfile = self.sock.makefile("rb")

    def call(self, obj: dict) -> dict:
        self.sock.sendall(json.dumps(obj, separators=(",", ":")).encode() + b"\n")
        line = self.rfile.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def reopen(self) -> None:
        """Drop a connection whose framing is lost (timeout) and redial."""
        self.close()
        self._dial()

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class Daemon:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, root: Path, index_path: Path, log_path: Path) -> None:
        env = {k: v for k, v in os.environ.items() if k != "NRP_KERNELS"}
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.log_path = log_path
        self._log = open(log_path, "ab")
        started = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--index", str(index_path),
                 "--port", "0"],
                cwd=root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=self._log,
            )
        except BaseException:
            self._log.close()
            raise
        try:
            self.port = self._read_port()
            conn = Conn(self.port)
            try:
                self.ping = conn.call({"op": "ping"})
            finally:
                conn.close()
        except BaseException:
            self.stop()
            raise
        #: Spawn to first ``ping`` reply.
        self.ready_s = time.perf_counter() - started
        if not self.ping.get("ok"):
            self.stop()
            raise RuntimeError(f"daemon ping failed: {self.ping}")

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("repro-serve listening "):
            raise RuntimeError(f"daemon did not start ({line!r}); see {self.log_path}")
        return int(line.rsplit(":", 1)[1])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_s(self) -> float:
        """utime + stime of every daemon thread, in seconds."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def metrics(self) -> dict[str, float]:
        """``GET /metrics`` parsed to ``{series: value}``."""
        status, body = http_get("127.0.0.1", self.port, "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics answered {status}")
        return {
            name: float(value)
            for name, value in (line.rsplit(" ", 1) for line in body.splitlines()
                                if line and not line.startswith("#"))
        }

    def stop(self) -> None:
        """SIGINT, then wait for exit (kill only if it hangs)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
