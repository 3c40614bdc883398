"""Server process control and the HTTP load generator.

The server is the real one, started the way a user starts it
(``python -m repro serve ...`` as a subprocess) and observed only from
outside: HTTP responses and ``/proc``.  The generator is this process,
one keep-alive connection, no threads.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------- /proc


def _stat_fields(pid: int) -> list[str] | None:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # comm may contain spaces/parens; fields after the last ")" are fixed.
    return text.rsplit(")", 1)[1].split()


def process_tree(root: int) -> list[int]:
    """``root`` and all its live descendants."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU consumed so far by ``pids``."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += int(fields[11]) + int(fields[12])
    return ticks / _CLK_TCK


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the high-water resident sizes of ``pids``."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


# --------------------------------------------------------------- server


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``python -m repro serve`` subprocess."""

    def __init__(self, flags: list[str], *, src: Path, log: Path):
        self.port = free_port()
        self._argv = [
            sys.executable, "-m", "repro", "serve", "--port", str(self.port), *flags,
        ]
        self._env = dict(os.environ, PYTHONPATH=str(src))
        self._log = log
        self._process: subprocess.Popen | None = None
        self._pids: list[int] = []

    def start(self, *, timeout: float = 120.0) -> float:
        """Spawn and wait for ``/readyz`` 200; returns the seconds taken."""
        started = time.perf_counter()
        with open(self._log, "ab") as log:
            self._process = subprocess.Popen(
                self._argv, env=self._env, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        while True:
            if self._process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self._process.returncode}; see {self._log}"
                )
            if time.perf_counter() - started > timeout:
                self.stop()
                raise RuntimeError(f"server not ready after {timeout}s; see {self._log}")
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=1.0)
                conn.request("GET", "/readyz")
                ready = conn.getresponse().status == 200
                conn.close()
                if ready:
                    break
            except (OSError, http.client.HTTPException):
                pass
            time.sleep(0.01)
        elapsed = time.perf_counter() - started
        self._pids = process_tree(self._process.pid)
        return elapsed

    def pids(self) -> list[int]:
        """The server's process tree (refreshed: workers may restart)."""
        self._pids = process_tree(self._process.pid)
        return self._pids

    def get_json(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10.0)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM, wait, then SIGKILL whatever of the tree is left."""
        process, self._process = self._process, None
        if process is None:
            return
        tree = self._pids or [process.pid]
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        for pid in tree:
            if pid != process.pid and _stat_fields(pid) is not None:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass


# ------------------------------------------------------------ generator


@dataclass
class Sample:
    """One request as the client saw it."""

    request: int  # index into the workload's request pool
    tenant: int  # index into the tenants (gated workloads)
    start: float  # send time (closed) or due time (paced)
    end: float
    status: int  # 0 = transport failure
    body: bytes
    late_s: float = 0.0  # paced only: how long after due it was sent


class Connection:
    """A keep-alive HTTP/1.1 connection that counts its (re)connects."""

    def __init__(self, port: int):
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
        self.connects = 0
        self.requests = 0

    def post(self, body: bytes, headers: dict) -> tuple[int, bytes]:
        if self._conn.sock is None:
            self.connects += 1
        self.requests += 1
        try:
            self._conn.request("POST", "/translate", body, headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            return 0, b""

    def close(self) -> None:
        self._conn.close()


class LoadGenerator:
    """Sends request streams over one keep-alive connection.

    One client, so that at any instant either the client or the server is
    busy, never both: the sizing machine's two vCPUs slow each other down
    erratically when both run (see README, "Reading the numbers").

    ``encoded[i]`` is the wire form of pool request ``i`` as
    ``(body, [headers per tenant])``; a stream yields ``(request index,
    tenant index)``.
    """

    def __init__(self, port: int, encoded: list):
        self._encoded = encoded
        self.connection = Connection(port)

    def send(self, item: tuple[int, int], start: float, late_s: float = 0.0) -> Sample:
        body, headers = self._encoded[item[0]]
        status, payload = self.connection.post(body, headers[item[1]])
        return Sample(*item, start, time.perf_counter(), status, payload, late_s)

    def sequence(self, stream, count: int) -> list[Sample]:
        """The next ``count`` requests of ``stream``, back to back."""
        return [self.send(next(stream), time.perf_counter()) for _ in range(count)]

    def closed(self, stream, seconds: float) -> list[Sample]:
        """Closed loop for ``seconds``: the next request goes out as soon
        as the previous one completed."""
        stop = time.perf_counter() + seconds
        samples = []
        while (now := time.perf_counter()) < stop:
            samples.append(self.send(next(stream), now))
        return samples

    def paced(self, stream, rate: float, count: int) -> list[Sample]:
        """Open loop: request ``i`` of ``count`` is due at ``i / rate``
        whatever happened to the earlier ones, and its latency counts
        from that due time, so the wait a stall imposes on later requests
        is counted."""
        begin = time.perf_counter() + 0.02
        samples = []
        for i in range(count):
            due = begin + i / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            samples.append(
                self.send(next(stream), due, max(0.0, time.perf_counter() - due))
            )
        return samples

    def reuse_ratio(self) -> float:
        c = self.connection
        return 1.0 - c.connects / c.requests if c.requests else 0.0

    def close(self) -> None:
        self.connection.close()


# ------------------------------------------------------------ statistics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def median_slice_rate(
    times: list[float], begin: float, seconds: float, slices: int = 5
) -> float:
    """Events per second in the median of ``slices`` equal time slices.

    One slow slice (a GC pause, a noisy neighbour) moves a mean over the
    whole phase but not the median slice.
    """
    width = seconds / slices
    counts = [0] * slices
    for t in times:
        k = int((t - begin) / width)
        if 0 <= k < slices:
            counts[k] += 1
    return statistics.median(counts) / width
