#!/usr/bin/env python
"""Drift smoke test: live schema evolution under sustained load.

Starts the serving stack in-process with a background KB refresher and
an index cache directory, then mutates the watched database in two
phases while client threads hammer /translate: first DDL (a new table)
*and* content (rows with a value that did not exist at index-build
time), then one count-preserving UPDATE of a row past the table's first
4096 rows.  Then it restarts twice over the same index cache: once as
is, and once after a count-preserving UPDATE made while no server ran.
Last, it starts once more and commits a new value after the stack's
index scan and before ``refresher.watch``.  Passes only if:

* zero requests fail (no 5xx — the swap is zero-downtime);
* after each phase the background refresher bumps the index version
  visible in /healthz, and the ``evolve_*`` refresh counters appear in
  the /metrics exposition;
* ``POST /admin/refresh`` answers 200 with the refresh report;
* post-drift value queries resolve against the NEW content (each
  question names a value only one phase's rows contain);
* the corpus file grew with validated examples referencing the new
  table;
* the first restart loads the refresher's last bundle from the cache
  and still answers phase 2's value, and the second answers the value
  the offline UPDATE wrote;
* the value committed before ``watch`` resolves after the next
  scheduled poll swaps it in.

Run with ``PYTHONPATH=src python scripts/drift_smoke.py``; exits 0 on
success.
"""

from __future__ import annotations

import json
import sqlite3
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.db import Database
from repro.evolve import KBRefresher
from repro.index import IndexRegistry
from repro.preprocessing import Preprocessor
from repro.serving import (
    DatabaseRuntime,
    ServingServer,
    TranslationCache,
    TranslationService,
)

LOAD_THREADS = 4
LOAD_SECONDS = 4.0
REFRESH_INTERVAL_S = 0.25
# Filler students, so the phase-2 UPDATE lands past row 4096.
FILLER_STUDENTS = 5000
UPDATED_STUID = 4600
# The filler student the offline UPDATE (between two restarts) moves.
OFFLINE_STUID = 4700
# The filler student moved between the last start's scan and its watch().
BEFORE_WATCH_STUID = 4800

QUESTIONS = (
    "How many students are there?",
    "List the name of all students.",
    "Which students are from France?",
    "What is the average age of students?",
    "pets heavier than 10",
)


def make_database(path: Path) -> None:
    connection = sqlite3.connect(path)
    connection.executescript(
        """
        CREATE TABLE student (
            stuid INTEGER PRIMARY KEY, name TEXT, age INTEGER,
            home_country TEXT);
        CREATE TABLE pet (
            petid INTEGER PRIMARY KEY, pet_type TEXT, weight REAL);
        INSERT INTO student VALUES
            (1,'Ann Miller',22,'France'),(2,'Bob Smith',19,'France'),
            (3,'Cid Rossi',25,'Italy'),(4,'Dana Levi',21,'Spain');
        INSERT INTO pet VALUES (10,'Dog',12.0),(11,'Cat',3.5);
        """
    )
    countries = ("France", "Italy", "Spain")
    connection.executemany(
        "INSERT INTO student VALUES (?, ?, ?, ?)",
        [
            (stuid, f"Filler {stuid}", 18 + stuid % 10, countries[stuid % 3])
            for stuid in range(100, 100 + FILLER_STUDENTS)
        ],
    )
    connection.commit()
    connection.close()


def post(url: str, route: str, body: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        url + route,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def get(url: str, route: str) -> str:
    with urllib.request.urlopen(url + route, timeout=10) as response:
        return response.read().decode("utf-8")


def update_country(path: Path, stuid: int, country: str) -> None:
    """Commit one count-preserving UPDATE through a separate writer."""
    writer = sqlite3.connect(path)
    writer.execute(
        "UPDATE student SET home_country = ? WHERE stuid = ?", (country, stuid)
    )
    writer.commit()
    writer.close()


def index_version(url: str) -> int:
    return json.loads(get(url, "/healthz"))["evolve"]["versions"]["pets"]


def wait_for_swap(url: str, version_before: int) -> int:
    """Poll /healthz until the background refresher bumps the version."""
    deadline = time.monotonic() + 20.0
    version = version_before
    while time.monotonic() < deadline:
        version = index_version(url)
        if version > version_before:
            return version
        time.sleep(0.1)
    raise AssertionError(f"index version never bumped (still {version})")


def assert_value_resolves(url: str, country: str, expected_name: str) -> None:
    status, body = post(url, "/translate", {
        "question": f"Which students are from {country}?",
        "database_id": "pets", "execute": True,
    })
    assert status == 200, (status, body)
    assert country in body["sql"], body["sql"]
    assert [expected_name] in body["rows"], body


class LoadGenerator:
    """Client threads that hammer /translate and tally status codes."""

    def __init__(self, url: str):
        self.url = url
        self.stop = threading.Event()
        self.counts: dict[int, int] = {}
        self.errors: list[str] = []
        self._lock = threading.Lock()
        self._threads = [
            threading.Thread(target=self._run, args=(i,), daemon=True)
            for i in range(LOAD_THREADS)
        ]

    def _run(self, seed: int) -> None:
        i = seed
        while not self.stop.is_set():
            question = QUESTIONS[i % len(QUESTIONS)]
            i += 1
            try:
                status, _body = post(self.url, "/translate", {
                    "question": question, "database_id": "pets",
                })
            except Exception as exc:  # noqa: BLE001 - any transport failure fails the smoke
                with self._lock:
                    self.errors.append(repr(exc))
                continue
            with self._lock:
                self.counts[status] = self.counts.get(status, 0) + 1
            time.sleep(0.005)

    def __enter__(self) -> "LoadGenerator":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop.set()
        for thread in self._threads:
            thread.join(timeout=10.0)


class Stack:
    """The in-process serving stack over the pets file: runtime, service,
    background refresher and HTTP server, with the index registry's
    bundles cached under ``cache_dir``.  ``before_watch`` runs after the
    runtime's index scan and before ``refresher.watch``."""

    def __init__(
        self, path: Path, cache_dir: Path, corpus_path: Path,
        before_watch=None,
    ):
        self.registry = IndexRegistry(cache_dir=cache_dir)
        self.database = Database.open(path)
        self.service = TranslationService(
            [DatabaseRuntime(
                self.database, database_id="pets",
                preprocessor=Preprocessor(self.database, registry=self.registry),
            )],
            workers=4,
            queue_size=256,
            cache=TranslationCache(capacity=128, ttl_s=300.0),
        ).start()
        self.refresher = KBRefresher(
            self.registry,
            interval_s=REFRESH_INTERVAL_S,
            metrics=self.service.metrics,
            corpus_path=corpus_path,
        )
        if before_watch is not None:
            before_watch()
        self.refresher.watch(self.database, database_id="pets")
        self.refresher.attach_service(self.service)
        self.refresher.start()
        self.server = ServingServer(("127.0.0.1", 0), self.service)
        threading.Thread(target=self.server.serve_forever, daemon=True).start()
        self.url = self.server.url

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.refresher.stop()
        self.service.stop()
        self.database.close()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pets.sqlite"
        corpus_path = Path(tmp) / "corpus.jsonl"
        cache_dir = Path(tmp) / "index-cache"
        make_database(path)

        stack = Stack(path, cache_dir, corpus_path)
        try:
            version_before = index_version(stack.url)

            with LoadGenerator(stack.url) as load:
                time.sleep(0.5)
                # Drift arrives through a separate writer connection,
                # exactly like an external ETL job: DDL + new content.
                writer = sqlite3.connect(path)
                writer.executescript(
                    """
                    CREATE TABLE clinic (
                        clinicid INTEGER PRIMARY KEY, city TEXT,
                        capacity INTEGER);
                    INSERT INTO clinic VALUES (1,'Zurich',40),(2,'Basel',25);
                    INSERT INTO student VALUES (5,'Gil Tembo',24,'Zanzibar');
                    """
                )
                writer.commit()
                writer.close()

                # The background refresher must notice and swap on its own.
                version_phase1 = wait_for_swap(stack.url, version_before)

                # Phase 2: an in-place UPDATE past row 4096 keeps every
                # row count; only the file's commit state shows it.
                update_country(path, UPDATED_STUID, "Tuvalu")
                version_after = wait_for_swap(stack.url, version_phase1)
                # Keep the load running across the post-swap window too.
                time.sleep(max(0.0, LOAD_SECONDS - 2.0))

            assert not load.errors, f"transport errors: {load.errors[:5]}"
            bad = {s: n for s, n in load.counts.items() if s >= 500}
            total = sum(load.counts.values())
            assert not bad, f"5xx during drift: {bad} (of {total})"
            assert total > 0, "load generator sent nothing"

            # The new values resolve: 'Zanzibar' and 'Tuvalu' entered the
            # database after the index was first built.
            assert_value_resolves(stack.url, "Zanzibar", "Gil Tembo")
            assert_value_resolves(
                stack.url, "Tuvalu", f"Filler {UPDATED_STUID}"
            )
            # And the new table is queryable end to end.
            status, body = post(stack.url, "/translate", {
                "question": "How many rows are in clinic?",
                "database_id": "pets", "execute": True,
            })
            assert status == 200, (status, body)

            # The admin route forces a synchronous refresh and reports it.
            status, body = post(stack.url, "/admin/refresh", {})
            assert status == 200, (status, body)
            assert body["status"] == "ok", body
            assert body["evolve"]["swaps"] >= 1, body

            metrics = get(stack.url, "/metrics")
            for name in ("evolve_refresh_runs_total",
                         "evolve_index_swap_seconds",
                         "evolve_corpus_examples_total"):
                assert name in metrics, f"{name} missing from /metrics"
            runs = next(
                float(line.rsplit(" ", 1)[1])
                for line in metrics.splitlines()
                if line.startswith("evolve_refresh_runs_total")
            )
            assert runs >= 1, metrics

            # Corpus growth: validated examples referencing the new table.
            lines = [
                json.loads(line)
                for line in corpus_path.read_text().splitlines()
            ]
            clinic = [line for line in lines if line["table"] == "clinic"]
            assert clinic, f"no clinic examples in corpus ({len(lines)} lines)"
            assert all(line["validated"] for line in lines), lines

            print(
                f"drift smoke OK: {total} requests, 0 failures, "
                f"version {version_before}->{version_after}, "
                f"{len(lines)} corpus examples ({len(clinic)} for clinic)"
            )
        finally:
            stack.close()

        # Phase 3: restarts over the same index cache.  As is, the
        # refresher's last bundle is loaded and phase 2's value answered.
        stack = Stack(path, cache_dir, corpus_path)
        try:
            loads = stack.registry.stats()["load_count"]
            assert loads == 1, f"restart rebuilt instead of loading ({loads})"
            assert_value_resolves(
                stack.url, "Tuvalu", f"Filler {UPDATED_STUID}"
            )
        finally:
            stack.close()
        # A count-preserving UPDATE while no server runs: the restart
        # must not serve the cached bundle that predates it.
        update_country(path, OFFLINE_STUID, "Nauru")
        stack = Stack(path, cache_dir, corpus_path)
        try:
            assert_value_resolves(stack.url, "Nauru", f"Filler {OFFLINE_STUID}")
        finally:
            stack.close()
        print("drift smoke OK: restarts over the index cache answer "
              "the refreshed and the offline-updated values")

        # Phase 4: a commit between the stack's index scan and
        # refresher.watch() is no baseline: the served bundle predates
        # it, so the next scheduled poll swaps it in.
        stack = Stack(
            path, cache_dir, corpus_path,
            before_watch=lambda: update_country(
                path, BEFORE_WATCH_STUID, "Tonga"
            ),
        )
        try:
            wait_for_swap(stack.url, 0)
            assert_value_resolves(
                stack.url, "Tonga", f"Filler {BEFORE_WATCH_STUID}"
            )
        finally:
            stack.close()
        print("drift smoke OK: a commit made before watch() is served "
              "after the next scheduled poll")
    return 0


if __name__ == "__main__":
    sys.exit(main())
