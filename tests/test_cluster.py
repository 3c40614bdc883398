"""Cluster subsystem tests: protocol, routing, supervision policies, a
real forked 2-worker cluster (heartbeats, failover, deadline propagation),
and the one-owner request lifecycle (what every exit of an attempt gives
back, who holds which thread, the two-worker scaling bar).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import sqlite3
import statistics
import threading
import time

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterService,
    HashRing,
    WorkerSpec,
    WorkerStatus,
    protocol,
    supervisor,
)
from repro.cluster.health import CircuitBreaker
from repro.cluster.worker import ServingStack, WorkerProcess
from repro.concurrency import ExponentialBackoff
from repro.index.registry import get_default_registry, set_default_registry
from repro.serving import QueueFullError, UnknownDatabaseError


class TestProtocol:
    def test_round_trip_frames(self):
        left, right = socket.socketpair()
        try:
            frames = [
                protocol.request_frame(
                    7, "how many?", "pets", beam_size=2, execute=True,
                    budget_s=1.5,
                ),
                protocol.response_frame(7, {"sql": "SELECT 1"}),
                protocol.reject_frame(8, "queue full"),
                protocol.ping_frame(1),
                protocol.pong_frame(1, {"status": "ok"}, {"x": 1}),
                protocol.ready_frame(0, 0.25, ["pets"]),
                protocol.shutdown_frame(),
            ]
            for frame in frames:
                protocol.send_frame(left, frame)
            for frame in frames:
                assert protocol.recv_frame(right) == frame
        finally:
            left.close()
            right.close()

    def test_out_of_order_ids_survive_the_wire(self):
        left, right = socket.socketpair()
        try:
            protocol.send_frame(left, protocol.response_frame(2, {"a": 1}))
            protocol.send_frame(left, protocol.response_frame(1, {"b": 2}))
            assert protocol.recv_frame(right)["id"] == 2
            assert protocol.recv_frame(right)["id"] == 1
        finally:
            left.close()
            right.close()

    def test_oversized_frame_refused_on_send(self):
        left, right = socket.socketpair()
        try:
            with pytest.raises(protocol.ProtocolError):
                protocol.send_frame(
                    left, {"type": "x", "blob": "a" * (protocol.MAX_FRAME_BYTES + 1)}
                )
        finally:
            left.close()
            right.close()

    def test_clean_eof_raises_peer_closed(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(protocol.PeerClosedError):
                protocol.recv_frame(right)
        finally:
            right.close()

    def test_non_object_frame_rejected(self):
        left, right = socket.socketpair()
        try:
            body = b'["not", "an", "object"]'
            left.sendall(len(body).to_bytes(4, "big") + body)
            with pytest.raises(protocol.ProtocolError):
                protocol.recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_dribbled_frame_one_byte_at_a_time(self):
        # A peer that trickles one byte per write must not confuse the
        # stateless reader: recv_into loops until the frame completes.
        left, right = socket.socketpair()
        try:
            frame = protocol.response_frame(3, {"sql": "SELECT 1", "k": "v" * 40})
            body = json.dumps(frame, separators=(",", ":")).encode("utf-8")
            payload = len(body).to_bytes(4, "big") + body
            done = threading.Event()

            def dribble():
                for i in range(len(payload)):
                    left.sendall(payload[i:i + 1])
                done.set()

            thread = threading.Thread(target=dribble, daemon=True)
            thread.start()
            assert protocol.recv_frame(right) == frame
            done.wait(5.0)
            thread.join(5.0)
        finally:
            left.close()
            right.close()

    def test_budget_re_anchoring_is_clock_skew_immune(self):
        # Sender: 1.5 s left on its own clock.
        budget = protocol.remaining_budget_s(100.0 + 1.5, now=100.0)
        assert budget == pytest.approx(1.5)
        # Receiver re-anchors against a completely different clock.
        deadline = protocol.budget_to_deadline(budget, now=5000.0)
        assert deadline == pytest.approx(5001.5)
        # Expired budgets clamp at zero rather than going negative.
        assert protocol.remaining_budget_s(99.0, now=100.0) == 0.0


class TestFrameConnection:
    def _pair(self):
        left, right = socket.socketpair()
        return protocol.FrameConnection(left), protocol.FrameConnection(right)

    def test_json_round_trip(self):
        sender, receiver = self._pair()
        try:
            frame = protocol.request_frame(
                1, "count pets", "pets", beam_size=None, execute=False,
                budget_s=2.0,
            )
            sender.send(frame)
            assert receiver.recv() == frame
        finally:
            sender.close()
            receiver.close()

    def test_large_fields_round_trip(self):
        sender, receiver = self._pair()
        try:
            frame = protocol.response_frame(
                9,
                {
                    "sql": 'SELECT "' + "x" * 4096 + '"',
                    "rows": [[1, "a"], [2, "b\u00e9\n" * 512]],
                    "small": "inline",
                },
            )
            sender.send(frame)
            assert receiver.recv() == frame
        finally:
            sender.close()
            receiver.close()

    def test_non_json_payload_rejected(self):
        # A payload that is not a JSON object (here: a leading NUL and
        # binary junk) is a protocol error, never a decoded message.
        left, right = socket.socketpair()
        conn = protocol.FrameConnection(right)
        try:
            body = b"\x00\x00\x00\x00\x02{}"
            left.sendall(len(body).to_bytes(4, "big") + body)
            with pytest.raises(protocol.ProtocolError):
                conn.recv()
            left.sendall(len(body).to_bytes(4, "big") + body)
            with pytest.raises(protocol.ProtocolError):
                protocol.recv_frame(right)
        finally:
            conn.close()
            left.close()

    def test_dribbled_bytes_resume_across_timeouts(self):
        # The satellite regression: a reader interrupted mid-frame
        # (socket timeout standing in for EINTR) must resume cleanly,
        # even when the peer dribbles one byte at a time.
        left, right = socket.socketpair()
        conn = protocol.FrameConnection(right)
        right.settimeout(0.005)
        try:
            frame = protocol.response_frame(5, {"sql": "SELECT 1"})
            body = json.dumps(frame, separators=(",", ":")).encode("utf-8")
            payload = len(body).to_bytes(4, "big") + body

            def dribble():
                for i in range(len(payload)):
                    left.sendall(payload[i:i + 1])
                    time.sleep(0.015)

            thread = threading.Thread(target=dribble, daemon=True)
            thread.start()
            deadline = time.monotonic() + 10.0
            timeouts = 0
            while True:
                try:
                    got = conn.recv()
                    break
                except TimeoutError:
                    timeouts += 1
                    assert time.monotonic() < deadline, "dribble never completed"
            assert got == frame
            assert timeouts > 0, "test must actually interrupt mid-frame"
            thread.join(5.0)
        finally:
            conn.close()
            left.close()

    def test_back_to_back_frames_reuse_the_buffer(self):
        sender, receiver = self._pair()
        try:
            # Sizes cycle 1 B .. 128 KiB: past the initial buffer, so the
            # growth path runs and later small frames reuse the grown one.
            frames = [
                protocol.response_frame(i, {"sql": "S" * (1 << (i % 18))})
                for i in range(36)
            ]
            def pump():
                for frame in frames:
                    sender.send(frame)
            thread = threading.Thread(target=pump, daemon=True)
            thread.start()
            for frame in frames:
                assert receiver.recv() == frame
            thread.join(5.0)
        finally:
            sender.close()
            receiver.close()

    def test_eof_mid_frame_is_protocol_error(self):
        left, right = socket.socketpair()
        conn = protocol.FrameConnection(right)
        try:
            left.sendall((100).to_bytes(4, "big") + b"{")  # truncated body
            left.close()
            with pytest.raises(protocol.ProtocolError):
                conn.recv()
        finally:
            conn.close()

    def test_clean_eof_is_peer_closed(self):
        left, right = socket.socketpair()
        conn = protocol.FrameConnection(right)
        left.close()
        try:
            with pytest.raises(protocol.PeerClosedError):
                conn.recv()
        finally:
            conn.close()


class TestHashRing:
    DB_IDS = [f"db_{i}" for i in range(50)]

    def test_routing_is_deterministic_and_total(self):
        ring = HashRing([0, 1, 2])
        for db_id in self.DB_IDS:
            assert ring.route(db_id) == ring.route(db_id)
            assert ring.route(db_id) in (0, 1, 2)

    def test_shards_partition_the_databases(self):
        ring = HashRing([0, 1, 2])
        shards = ring.shards(self.DB_IDS)
        flat = [db_id for shard in shards.values() for db_id in shard]
        assert sorted(flat) == sorted(self.DB_IDS)

    def test_worker_death_only_remaps_its_own_shard(self):
        ring = HashRing([0, 1, 2])
        before = {db_id: ring.route(db_id) for db_id in self.DB_IDS}
        for db_id, owner in before.items():
            after = ring.preference(db_id, alive=[w for w in (0, 1, 2) if w != 1])[0]
            if owner != 1:
                # Consistency: survivors keep their shard (and warm caches).
                assert after == owner
            else:
                assert after != 1

    def test_preference_lists_distinct_failover_order(self):
        ring = HashRing([0, 1, 2, 3])
        order = ring.preference("some_db")
        assert sorted(order) == [0, 1, 2, 3]
        assert ring.preference("some_db", alive=[2]) == [2]
        assert ring.preference("some_db", alive=[]) == []

    def test_rejects_bad_worker_ids(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing([1, 1])


class TestSupervisionPolicies:
    def test_backoff_doubles_and_caps(self):
        backoff = ExponentialBackoff(initial=0.25, factor=2.0, max_delay=1.0)
        assert [backoff.next_delay() for _ in range(4)] == [0.25, 0.5, 1.0, 1.0]
        backoff.reset()
        assert backoff.next_delay() == 0.25

    def test_breaker_trips_inside_window(self):
        clock = [0.0]
        breaker = CircuitBreaker(max_failures=3, window_s=10.0, clock=lambda: clock[0])
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True
        assert breaker.open

    def test_old_failures_age_out_of_the_window(self):
        clock = [0.0]
        breaker = CircuitBreaker(max_failures=3, window_s=10.0, clock=lambda: clock[0])
        breaker.record_failure()
        breaker.record_failure()
        clock[0] = 11.0  # first two fall out of the sliding window
        assert breaker.record_failure() is False
        assert breaker.recent_failures == 1

    def test_success_closes_the_breaker(self):
        clock = [0.0]
        breaker = CircuitBreaker(max_failures=1, window_s=10.0, clock=lambda: clock[0])
        assert breaker.record_failure() is True
        breaker.record_success()
        assert not breaker.open


def _make_sqlite(path, table: str, rows: int = 12) -> None:
    connection = sqlite3.connect(path)
    connection.executescript(
        f"""
        CREATE TABLE {table} (
            {table}_id INTEGER PRIMARY KEY,
            name VARCHAR(40),
            score INTEGER
        );
        """
    )
    connection.executemany(
        f"INSERT INTO {table} VALUES (?, ?, ?)",
        [(i, f"{table}_{i}", i * 3) for i in range(1, rows + 1)],
    )
    connection.commit()
    connection.close()


@pytest.fixture(scope="module")
def databases(tmp_path_factory):
    root = tmp_path_factory.mktemp("cluster")
    _make_sqlite(root / "left.sqlite", "city")
    _make_sqlite(root / "right.sqlite", "pet")
    return [("left", str(root / "left.sqlite")), ("right", str(root / "right.sqlite"))]


def _start_cluster(databases, **spec_defaults) -> ClusterService:
    service = ClusterService(
        databases, config=ClusterConfig(workers=2), **spec_defaults
    )
    service.start()
    assert service.wait_ready(timeout=60.0), service.worker_states()
    return service


@pytest.fixture(scope="module")
def cluster(databases):
    """A real 2-worker forked cluster over two tiny databases."""
    service = _start_cluster(databases)
    yield service
    service.stop(timeout=10.0)


@pytest.fixture
def fresh_cluster(databases):
    """A cluster of its own for tests that kill or stop workers."""
    service = _start_cluster(databases)
    yield service
    service.stop(timeout=10.0)


def _wait_until(predicate, label: str, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {label}"
        time.sleep(0.01)


_COUNTERS = ("requests", "expired", "requeued", "rejected")


def _counters(service: ClusterService) -> dict[str, int]:
    return {
        name: service.registry.counter(f"cluster_{name}_total").value
        for name in _COUNTERS
    }


def _moved(service: ClusterService, before: dict[str, int]) -> dict[str, int]:
    after = _counters(service)
    return {name: after[name] - before[name] for name in _COUNTERS}


def _assert_nothing_held(service: ClusterService) -> None:
    """Every exit of an attempt gave back what it took."""
    for handle in service.handles:
        with handle.pending_lock:
            assert handle.pending == {}
            assert handle.callers == 0
        slots = 0
        while handle.window.acquire(blocking=False):
            slots += 1
        for _ in range(slots):
            handle.window.release()
        assert slots == supervisor._MAX_INFLIGHT


def _in_background(service: ClusterService, *args, **kwargs):
    """Run one ``translate`` on a thread; returns (thread, outcome list)."""
    outcome: list = []

    def call() -> None:
        try:
            outcome.append(service.translate(*args, **kwargs))
        except Exception as exc:
            outcome.append(exc)

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    return thread, outcome


class TestClusterIntegration:
    def test_translates_across_both_shards(self, cluster):
        for db_id in ("left", "right"):
            response = cluster.translate(
                "How many rows are there?", db_id, execute=True,
                timeout_ms=30_000,
            )
            assert response.sql is not None
            assert response.error is None
            assert response.rows == [(12,)]

    def test_unknown_database_rejected_without_ipc(self, cluster):
        with pytest.raises(UnknownDatabaseError):
            cluster.translate("hi", "nope", timeout_ms=5_000)

    def test_concurrent_load_spread_over_workers(self, cluster):
        errors = []

        def client(index: int) -> None:
            db_id = ("left", "right")[index % 2]
            try:
                response = cluster.translate(
                    "List all names.", db_id, timeout_ms=30_000
                )
                assert response.sql is not None
            except Exception as exc:  # pragma: no cover - diagnostic path
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors

    def test_expired_deadline_rejected_without_occupying_a_worker(self, cluster):
        """Deadline propagation: a request that is already expired when its
        caller reaches for a worker is rejected retriably and never sent."""
        before = _counters(cluster)
        with pytest.raises(QueueFullError, match="before reaching a worker"):
            cluster.translate(
                "this deadline is already gone", "left", timeout_ms=0.0
            )
        assert _moved(cluster, before) == {
            "requests": 1, "expired": 1, "requeued": 0, "rejected": 1,
        }
        _assert_nothing_held(cluster)
        # No worker slot was consumed: everything still answers promptly.
        response = cluster.translate(
            "How many rows are there?", "left", timeout_ms=30_000
        )
        assert response.sql is not None

    def test_health_and_metrics_aggregate_across_workers(self, cluster):
        # Generate some traffic, then wait for a pong to carry snapshots.
        cluster.translate("How many rows are there?", "left", timeout_ms=30_000)
        cluster.translate("How many rows are there?", "right", timeout_ms=30_000)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            fleet = cluster.metrics.snapshot()["fleet"]
            if fleet.get("serving_requests_total", 0) >= 2:
                break
            time.sleep(0.2)
        else:
            pytest.fail(f"worker metrics never aggregated: {fleet}")
        health = cluster.health()
        assert health["mode"] == "cluster"
        assert health["ready"] is True
        assert set(health["workers"]) == {"0", "1"}
        for worker_id, state in health["workers"].items():
            # Each worker's own health block rides its pongs.
            assert state["service"]["worker_id"] == int(worker_id)
            assert "hits" in state["service"]["cache"]
            assert "build_count" in state["service"]["registry"]
            value_search = state["service"]["value_search"]
            assert set(value_search) == set(state["service"]["databases"])
            for stats in value_search.values():
                assert stats["cache_hits"] + stats["cache_misses"] == stats["searches"]
        text = cluster.metrics.render_text()
        assert 'cluster_worker_up{worker="0"} 1' in text
        assert "serving_requests_total" in text

    def test_drain_waits_for_callers_inside_translate(self, fresh_cluster):
        cluster = fresh_cluster
        victim = cluster.handles[cluster.ring.route("left")]
        os.kill(victim.pid, signal.SIGSTOP)  # the answer cannot come yet
        try:
            caller, outcome = _in_background(
                cluster, "How many rows are there?", "left", timeout_ms=30_000
            )
            _wait_until(lambda: victim.load() == (1, 0), "request in flight")
            stopped: list = []
            stopper = threading.Thread(
                target=lambda: stopped.append(cluster.stop(timeout=20.0)),
                daemon=True,
            )
            stopper.start()
            time.sleep(0.3)
            assert stopper.is_alive() and not outcome, "stop() did not wait"
        finally:
            os.kill(victim.pid, signal.SIGCONT)
        caller.join(timeout=30.0)
        stopper.join(timeout=30.0)
        assert not caller.is_alive() and not stopper.is_alive()
        assert outcome[0].rows is None and outcome[0].sql is not None
        assert stopped == [True]
        _assert_nothing_held(cluster)

    def test_worker_kill_fails_over_and_restarts(self, cluster):
        victim = cluster.ring.route("left")
        cluster.kill_worker(victim)
        # Failover: the surviving worker adopts the shard (lazily), so
        # requests keep being answered while the victim is down.
        deadline = time.monotonic() + 30.0
        answered = False
        while time.monotonic() < deadline:
            try:
                response = cluster.translate(
                    "How many rows are there?", "left", timeout_ms=30_000
                )
            except QueueFullError:
                time.sleep(0.1)  # retriable shedding during the blip
                continue
            if response.sql is not None:
                answered = True
                break
        assert answered, "no request answered after the worker kill"
        # Supervision: the victim comes back READY with a restart recorded.
        # (restart_count gates the loop: the slot still looks READY for a
        # beat after the SIGKILL, until the receiver thread sees the EOF.)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if (
                cluster.handles[victim].restart_count >= 1
                and cluster.handles[victim].status is WorkerStatus.READY
            ):
                break
            time.sleep(0.1)
        assert cluster.handles[victim].status is WorkerStatus.READY
        assert cluster.handles[victim].restart_count >= 1
        assert cluster.registry.counter("cluster_worker_restarts_total").value >= 1


def _unforked(status: WorkerStatus) -> ClusterService:
    """A started-looking one-worker service with no process behind it."""
    service = ClusterService([("a", "x.sqlite")], config=ClusterConfig(workers=1))
    service._started = True
    service.handles[0].status = status
    if status is WorkerStatus.READY:
        service.handles[0].ready_event.set()
    return service


class TestRequestOwnership:
    """The calling thread owns its request: every exit of an attempt gives
    back the admission count, the window slot and the pending entry, and
    moves the supervisor's counters as the relayed design did."""

    def test_ready_wait_expiry(self):
        service = _unforked(WorkerStatus.STARTING)
        with pytest.raises(QueueFullError, match="waiting for a live worker"):
            service.translate("q", "a", timeout_ms=50.0)
        assert _counters(service) == {
            "requests": 1, "expired": 1, "requeued": 0, "rejected": 1,
        }
        _assert_nothing_held(service)

    def test_slot_wait_expiry_never_sends(self):
        service = _unforked(WorkerStatus.READY)
        handle = service.handles[0]
        for _ in range(supervisor._MAX_INFLIGHT):  # a full window
            assert handle.window.acquire(blocking=False)
        with pytest.raises(QueueFullError, match="waiting for a worker slot"):
            service.translate("q", "a", timeout_ms=50.0)  # conn is None: a send would crash
        for _ in range(supervisor._MAX_INFLIGHT):
            handle.window.release()
        assert _counters(service) == {
            "requests": 1, "expired": 1, "requeued": 0, "rejected": 1,
        }
        _assert_nothing_held(service)

    def test_shed_at_the_admission_bound(self, monkeypatch):
        monkeypatch.setattr(supervisor, "_MAX_WAITING", 2)
        service = _unforked(WorkerStatus.STARTING)
        waiters = [
            _in_background(service, f"q{i}", "a", timeout_ms=600.0) for i in range(2)
        ]
        _wait_until(lambda: service.handles[0].load() == (0, 2), "two waiters")
        start = time.monotonic()
        with pytest.raises(QueueFullError, match="is full"):
            service.translate("one too many", "a", timeout_ms=30_000.0)
        assert time.monotonic() - start < 0.3, "shedding must not wait"
        assert _counters(service) == {  # shed before it was accepted
            "requests": 2, "expired": 0, "requeued": 0, "rejected": 1,
        }
        for thread, outcome in waiters:
            thread.join(timeout=10.0)
            assert isinstance(outcome[0], QueueFullError)
        assert _counters(service) == {
            "requests": 2, "expired": 2, "requeued": 0, "rejected": 3,
        }
        _assert_nothing_held(service)

    def test_send_failure_moves_on_to_the_next_worker(self):
        class DeadConn:
            def send(self, frame):
                raise BrokenPipeError("worker gone")

        service = _unforked(WorkerStatus.READY)
        service.handles[0].conn = DeadConn()
        # One retry is granted; this fleet has no second worker to take it.
        with pytest.raises(QueueFullError, match="no live worker"):
            service.translate("q", "a", timeout_ms=5_000.0)
        assert _counters(service) == {
            "requests": 1, "expired": 0, "requeued": 1, "rejected": 1,
        }
        _assert_nothing_held(service)

    def test_killed_mid_flight_is_answered_by_the_next_worker(self, fresh_cluster):
        cluster = fresh_cluster
        victim = cluster.handles[cluster.ring.route("left")]
        os.kill(victim.pid, signal.SIGSTOP)  # holds the request in flight
        caller, outcome = _in_background(
            cluster, "How many rows are there?", "left",
            execute=True, timeout_ms=30_000,
        )
        _wait_until(lambda: victim.load() == (1, 0), "request in flight")
        cluster.kill_worker(victim.worker_id)
        caller.join(timeout=30.0)
        assert not caller.is_alive()
        assert outcome[0].rows == [(12,)]
        assert _counters(cluster) == {
            "requests": 1, "expired": 0, "requeued": 1, "rejected": 0,
        }
        _assert_nothing_held(cluster)

    def test_killed_twice_fails_once_retriably(self, fresh_cluster):
        cluster = fresh_cluster
        first = cluster.handles[cluster.ring.route("left")]
        second = cluster.handles[1 - first.worker_id]
        for handle in (first, second):
            os.kill(handle.pid, signal.SIGSTOP)
        caller, outcome = _in_background(
            cluster, "How many rows are there?", "left", timeout_ms=30_000
        )
        for handle in (first, second):
            _wait_until(lambda: handle.load() == (1, 0), "request in flight")
            cluster.kill_worker(handle.worker_id)
        caller.join(timeout=30.0)
        assert not caller.is_alive()
        assert isinstance(outcome[0], QueueFullError)
        assert "no retry budget left" in str(outcome[0])
        assert _counters(cluster) == {
            "requests": 1, "expired": 0, "requeued": 1, "rejected": 1,
        }
        _assert_nothing_held(cluster)

    def test_stop_during_flight_rejects_retriably(self, fresh_cluster):
        cluster = fresh_cluster
        victim = cluster.handles[cluster.ring.route("left")]
        os.kill(victim.pid, signal.SIGSTOP)
        caller, outcome = _in_background(
            cluster, "How many rows are there?", "left", timeout_ms=30_000
        )
        _wait_until(lambda: victim.load() == (1, 0), "request in flight")
        assert cluster.stop(timeout=0.5) is False  # the drain ran out
        caller.join(timeout=30.0)
        assert not caller.is_alive()
        assert isinstance(outcome[0], QueueFullError)
        assert "shutting down" in str(outcome[0])
        assert _counters(cluster) == {
            "requests": 1, "expired": 0, "requeued": 0, "rejected": 1,
        }
        _assert_nothing_held(cluster)


def _os_threads(pid: int) -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise AssertionError(f"no Threads: line for pid {pid}")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
@pytest.mark.parametrize(
    "spec_defaults, extra",
    [({}, 0), ({"threads": 1, "kb_refresh_interval_s": 3600.0}, 1)],
    ids=["default", "one-thread-with-refresher"],
)
def test_nobody_parks_for_a_request(databases, spec_defaults, extra):
    """A worker is its frame loop plus the service's threads (plus a
    refresher); the supervisor relays through no thread of its own."""
    cluster = _start_cluster(databases, **spec_defaults)
    try:
        callers = [
            _in_background(
                cluster, f"How many rows have score {i}?", ("left", "right")[i % 2],
                execute=True, timeout_ms=30_000,
            )
            for i in range(32)
        ]
        for thread, outcome in callers:
            thread.join(timeout=60.0)
            assert outcome and outcome[0].sql is not None, outcome
        for handle in cluster.handles:
            expected = handle.spec.threads + 1 + extra
            _wait_until(
                lambda: _os_threads(handle.pid) == expected,
                f"worker {handle.worker_id} at {expected} threads "
                f"(has {_os_threads(handle.pid)})",
                timeout=5.0,
            )
        names = sorted(t.name for t in threading.enumerate())
        assert not [n for n in names if n.startswith("cluster-dispatch")], names
    finally:
        cluster.stop(timeout=10.0)


def test_worker_answers_pings_while_adopting(databases, monkeypatch):
    """Failover adoption (opens and indexes a database) runs off the
    frame loop.  The worker runs in-process here, the test is its
    supervisor, and the adoption is held open on a gate."""
    entered, gate = threading.Event(), threading.Event()
    adopt = ServingStack.adopt

    def held_adopt(self, db_id):
        entered.set()
        assert gate.wait(timeout=30.0)
        return adopt(self, db_id)

    monkeypatch.setattr(ServingStack, "adopt", held_adopt)
    previous = get_default_registry()  # the stack installs its own
    ours, theirs = socket.socketpair()
    ours.settimeout(30.0)
    conn = protocol.FrameConnection(ours)
    worker = WorkerProcess(
        WorkerSpec(
            worker_id=0, databases=tuple(databases), shard=("left",), threads=1
        ),
        theirs,
    )
    loop = threading.Thread(target=worker.run, daemon=True)
    loop.start()
    try:
        assert conn.recv()["databases"] == ["left"]  # the ready frame
        conn.send(protocol.request_frame(
            1, "How many rows are there?", "right",
            beam_size=None, execute=True, budget_s=30.0,
        ))
        assert entered.wait(timeout=30.0)
        conn.send(protocol.ping_frame(7))
        pong = conn.recv()
        assert (pong["type"], pong["id"]) == ("pong", 7)
        assert pong["health"]["databases"] == ["left"]  # still adopting
        gate.set()
        response = conn.recv()
        assert (response["type"], response["id"]) == ("response", 1)
        assert response["payload"]["rows"] == [[12]]
        conn.send(protocol.shutdown_frame())
        loop.join(timeout=30.0)
        assert not loop.is_alive()
    finally:
        gate.set()
        conn.close()
        set_default_registry(previous)


_CITIES = (
    "alexandria", "birmingham", "carthagena", "dusseldorf", "eindhoven",
    "fortaleza", "guadalajara", "heidelberg", "innsbruck", "jacksonville",
)


@pytest.mark.stress
@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="process parallelism needs 2 cores"
)
def test_two_workers_scale_past_the_in_process_service(tmp_path):
    """What the cluster is for: translation is GIL-bound in one process,
    so two worker processes must serve >= 1.8x the in-process service.

    A small randomly-initialised model (weights do not matter for
    throughput; encode + beam-2 decode cost what a trained one costs)
    and unique, typo'd questions (every request pays the similarity
    search, none hits the cache) make a request ~10 ms of compute, so
    the IPC hop is noise against it.  Median of three alternating rounds.
    """
    from repro.config import ModelConfig
    from repro.db import Database
    from repro.model import ValueNetModel, build_vocabulary
    from repro.serving import DatabaseRuntime, TranslationCache, TranslationService

    clients, per_client, beam, threads = 8, 15, 2, 4
    # These ids shard 2/2 on a 2-worker ring.
    databases = []
    for table in ("city", "song", "team", "store"):
        path = tmp_path / f"{table}.sqlite"
        connection = sqlite3.connect(path)
        connection.execute(
            f"CREATE TABLE {table} ({table}_id INTEGER PRIMARY KEY, "
            f"name VARCHAR(60), label VARCHAR(60), score INTEGER)"
        )
        connection.executemany(
            f"INSERT INTO {table} VALUES (?, ?, ?, ?)",
            [
                (i, f"{_CITIES[i % 10]} {i}", f"{table} {_CITIES[i * 3 % 10]}", i * 13 % 997)
                for i in range(1, 401)
            ],
        )
        connection.commit()
        connection.close()
        databases.append((table, str(path)))
    questions = [  # a fresh typo per question: one letter dropped
        f"How many rows have name "
        f"{_CITIES[i % 10][: 2 + i % 4] + _CITIES[i % 10][3 + i % 4:]} {i}?"
        for i in range(clients * per_client)
    ]
    opened = {db_id: Database.open(path) for db_id, path in databases}
    vocab = build_vocabulary(
        questions,
        [db.schema for db in opened.values()],
        [f"{name} {i}" for i, name in enumerate(_CITIES)],
        vocab_size=600,
    )
    model_path = tmp_path / "model"
    ValueNetModel(vocab, ModelConfig(
        dim=48, num_layers=2, num_heads=2, ff_dim=96, summary_hidden=32,
        decoder_hidden=96, pointer_hidden=48, dropout=0.0, word_dropout=0.0,
    )).save(model_path)

    def drive(translate) -> float:
        """Closed-loop clients; requests per second."""
        errors: list = []

        def client(index: int) -> None:
            for n in range(index * per_client, (index + 1) * per_client):
                try:
                    translate(
                        questions[n], databases[n % 4][0], timeout_ms=120_000
                    )
                except Exception as exc:
                    errors.append(exc)

        pool = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
        start = time.perf_counter()
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=300.0)
        elapsed = time.perf_counter() - start
        assert not errors and not any(t.is_alive() for t in pool), errors[:3]
        return len(questions) / elapsed

    model = ValueNetModel.load(model_path)
    service = TranslationService(
        [
            DatabaseRuntime(db, model, database_id=db_id, beam_size=beam)
            for db_id, db in opened.items()
        ],
        workers=threads, queue_size=256,
        cache=TranslationCache(capacity=2, ttl_s=0.001),  # effectively off
    ).start()
    cluster = ClusterService(
        databases, model_path=str(model_path),
        config=ClusterConfig(workers=2, default_timeout_ms=120_000.0),
        beam_size=beam, threads=threads, queue_size=256,
        cache_size=2, cache_ttl_s=0.001,
    ).start()
    try:
        assert cluster.wait_ready(timeout=120.0), cluster.worker_states()
        rounds = [
            (drive(service.translate), drive(cluster.translate)) for _ in range(3)
        ]
    finally:
        cluster.stop()
        service.stop()
        for db in opened.values():
            db.close()
    in_process = statistics.median(r[0] for r in rounds)
    two_workers = statistics.median(r[1] for r in rounds)
    verdict = (
        f"2 workers {two_workers:.1f} req/s vs in-process {in_process:.1f} req/s "
        f"= {two_workers / in_process:.2f}x (rounds: {rounds})"
    )
    print(verdict)
    assert two_workers >= 1.8 * in_process, verdict


class TestClusterValidation:
    def test_needs_databases_and_workers(self):
        with pytest.raises(ValueError):
            ClusterService([])
        with pytest.raises(ValueError):
            ClusterService([("a", "x.sqlite")], config=ClusterConfig(workers=0))
        with pytest.raises(ValueError):
            ClusterService([("a", "x"), ("a", "y")])

    def test_translate_before_start_rejected(self):
        service = ClusterService([("a", "x.sqlite")])
        with pytest.raises(QueueFullError):
            service.translate("hi", "a")
