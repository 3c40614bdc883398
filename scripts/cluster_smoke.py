#!/usr/bin/env python
"""Cluster fault-injection smoke: SIGKILL a worker mid-load, lose nothing.

Builds two throwaway SQLite databases, starts a 2-worker
:class:`~repro.cluster.ClusterService` (heuristic-only), drives
closed-loop load from client threads, and — mid-load — SIGKILLs one
worker.  The run passes when:

* **zero accepted requests are dropped** — every ``translate`` call
  terminates with either a response or a *retriable* rejection
  (``QueueFullError``); nothing hangs, nothing vanishes;
* the supervisor **restarts** the killed worker (it returns to READY and
  the restart is visible in ``/metrics`` as
  ``cluster_worker_restarts_total``);
* requests keep succeeding after the kill (failover + recovery).

Run with ``PYTHONPATH=src python scripts/cluster_smoke.py``; exits 0 on
success.  CI runs this after the tier-1 suite.
"""

from __future__ import annotations

import sqlite3
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster import ClusterConfig, ClusterService, WorkerStatus
from repro.serving import QueueFullError

def make_question(index: int) -> str:
    """Unique, value-heavy questions: the misspelling forces the (slow)
    similarity search and uniqueness defeats the result cache, so requests
    take long enough that the kill genuinely lands mid-load."""
    return f"How many rows have name citty_{index} or pett_{index + 1}?"


def make_db(path: Path, table: str, rows: int) -> None:
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
        [(i, f"{table}_{i}", i * 7 % 100) for i in range(1, rows + 1)],
    )
    connection.commit()
    connection.close()


@dataclass
class LoadStats:
    answered: int = 0
    rejected: int = 0
    lost: int = 0
    errors: list[str] = field(default_factory=list)


def run_client(
    cluster: ClusterService,
    db_ids: list[str],
    index: int,
    count: int,
    stats: LoadStats,
) -> None:
    for i in range(count):
        question = make_question(index * count + i)
        db_id = db_ids[(index + i) % len(db_ids)]
        try:
            response = cluster.translate(
                question, db_id, execute=True, timeout_ms=30_000
            )
        except QueueFullError:
            stats.rejected += 1  # retriable shedding: allowed, not a drop
            continue
        except Exception as exc:  # anything else is a contract violation
            stats.lost += 1
            stats.errors.append(f"{type(exc).__name__}: {exc}")
            continue
        if response.sql is None and response.error is None:
            stats.lost += 1
            stats.errors.append("empty response")
        else:
            stats.answered += 1


def wait_for(predicate, timeout_s: float, label: str) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.1)
    raise AssertionError(f"timed out waiting for {label}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        make_db(root / "left.sqlite", "city", 1500)
        make_db(root / "right.sqlite", "pet", 1500)
        databases = [
            ("left", str(root / "left.sqlite")),
            ("right", str(root / "right.sqlite")),
        ]
        cluster = ClusterService(
            databases,
            config=ClusterConfig(workers=2),
            verbose=True,
            cache_size=2,
            cache_ttl_s=0.001,  # effectively no result cache: real load
        )
        cluster.start()
        try:
            wait_for(cluster.is_ready, 60.0, "cluster readiness")
            print("cluster ready:", {
                w: s["status"] for w, s in cluster.worker_states().items()
            })

            clients, per_client = 8, 150
            db_ids = [db_id for db_id, _ in databases]
            stats = [LoadStats() for _ in range(clients)]
            threads = [
                threading.Thread(
                    target=run_client,
                    args=(cluster, db_ids, i, per_client, stats[i]),
                )
                for i in range(clients)
            ]
            for thread in threads:
                thread.start()

            # Let load build up, then murder one worker mid-flight.
            time.sleep(0.3)
            if not any(thread.is_alive() for thread in threads):
                print("FAIL: load already finished before the kill "
                      "(workload too small to exercise failover)")
                return 1
            victim = 0
            pid = cluster.kill_worker(victim)
            print(f"killed worker {victim} (pid={pid}) under load")

            for thread in threads:
                thread.join(timeout=120.0)
            if any(thread.is_alive() for thread in threads):
                print("FAIL: client threads hung (requests lost in cluster)")
                return 1

            answered = sum(s.answered for s in stats)
            rejected = sum(s.rejected for s in stats)
            lost = sum(s.lost for s in stats)
            total = clients * per_client
            print(f"requests: total={total} answered={answered} "
                  f"rejected(retriable)={rejected} lost={lost}")
            for s in stats:
                for error in s.errors[:3]:
                    print("  error:", error)
            if lost or answered + rejected != total:
                print("FAIL: accepted requests were dropped")
                return 1

            # The supervisor must bring the victim back with backoff.
            # (restart_count check first: the slot still *looks* READY for
            # a beat after the SIGKILL, until the receiver sees the EOF.)
            wait_for(
                lambda: (
                    cluster.handles[victim].restart_count >= 1
                    and cluster.handles[victim].status is WorkerStatus.READY
                ),
                30.0,
                "killed worker restart",
            )
            restarts = cluster.handles[victim].restart_count
            print(f"worker {victim} restarted (restart_count={restarts})")
            if restarts < 1:
                print("FAIL: no restart recorded")
                return 1

            exposition = cluster.metrics.render_text()
            if "cluster_worker_restarts_total" not in exposition:
                print("FAIL: restart counter missing from /metrics exposition")
                return 1

            # Post-recovery sanity: the restarted worker serves again.
            response = cluster.translate(
                "How many rows are there?", db_ids[0], execute=True,
                timeout_ms=30_000,
            )
            if response.sql is None:
                print("FAIL: post-recovery request failed:", response.error)
                return 1
        finally:
            clean = cluster.stop(timeout=15.0)
            print("drain clean:", clean)
    print("cluster smoke test OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
