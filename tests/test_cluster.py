"""Cluster subsystem tests: protocol, routing, supervision policies, and
a real forked 2-worker cluster (heartbeats, failover, deadline propagation).
"""

from __future__ import annotations

import json
import socket
import sqlite3
import threading
import time

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterService,
    HashRing,
    WorkerStatus,
    protocol,
)
from repro.cluster.health import CircuitBreaker
from repro.concurrency import ExponentialBackoff
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
def cluster(tmp_path_factory):
    """A real 2-worker forked cluster over two tiny databases."""
    root = tmp_path_factory.mktemp("cluster")
    _make_sqlite(root / "left.sqlite", "city")
    _make_sqlite(root / "right.sqlite", "pet")
    service = ClusterService(
        [("left", str(root / "left.sqlite")), ("right", str(root / "right.sqlite"))],
        config=ClusterConfig(
            workers=2,
            heartbeat_interval_s=0.2,
            restart_backoff_initial_s=0.2,
        ),
    )
    service.start()
    assert service.wait_ready(timeout=60.0), service.worker_states()
    yield service
    service.stop(timeout=10.0)


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
        """Deadline propagation: a request that is already expired when the
        dispatcher sees it is rejected retriably and never reaches a worker."""
        expired_before = cluster.registry.counter("cluster_expired_total").value
        with pytest.raises(QueueFullError):
            cluster.translate(
                "this deadline is already gone", "left", timeout_ms=0.0
            )
        assert (
            cluster.registry.counter("cluster_expired_total").value
            == expired_before + 1
        )
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
        text = cluster.metrics.render_text()
        assert 'cluster_worker_up{worker="0"} 1' in text
        assert "serving_requests_total" in text

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
