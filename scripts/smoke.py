#!/usr/bin/env python
"""End-to-end smoke: ``python -m repro serve``, started the way users
start it, driven over HTTP through five scenarios.

Each scenario spawns the server with the flags it names
(``benchmarks/e2e/loadgen.Server``: spawn, wait for ``/readyz``, SIGTERM,
then kill what is left of the process tree), drives it with keep-alive
clients (``loadgen.Connection``, one per client thread or tenant) and
reads it only from outside: responses, ``/healthz``, ``/metrics`` and the
server's own log.  Every scenario ends with the SIGTERM drain, which must
report ``drained cleanly``.

* **serve** -- one ``/translate`` round-trip with rows, ``/healthz`` ok,
  ``serving_responses_ok_total 1`` in ``/metrics``.
* **policy** -- the same question 200s with rows on an open database and
  403s with ``reason: policy`` and ``rule_id: max-tables`` on a locked
  one; ``dialect`` is a 400 naming the field; the SQL of a plain request
  is the SQL that ran; ``policy_blocked_total{tenant="anonymous"} 1``.
* **fairness** -- a hot tenant paced at 10x its rate and three background
  tenants at 80 % of theirs: every background request succeeds, and the
  hot tenant is served within 10 % of ``burst + rate * duration``.
* **drift** -- DDL plus new rows, then a count-preserving UPDATE past row
  4096, under load from 4 threads: no 5xx, the index version in
  ``/healthz`` bumps after each, both new values resolve, the new table
  answers, ``POST /admin/refresh`` reports swaps, the ``evolve_*``
  metrics show, and the corpus grows validated examples for the new
  table.  Two restarts over the same index cache: the refresher's last
  bundle loads (``built=0 loaded=1``), and a value committed while no
  server ran resolves.
* **cluster** -- two workers under closed-loop load from 8 threads;
  worker 0 is SIGKILLed mid-load: nothing is dropped (every answer is a
  200 or a retriable 503), worker 0 restarts and is READY again,
  ``cluster_worker_restarts_total`` shows, and the fleet answers again.

Two checks need a hook inside the process and live in the tier-1 suite:
the policy engine's raw forbidden-statement corpus
(``tests/test_policy.py::TestForbiddenCorpus``) and a commit between the
index scan and ``KBRefresher.watch`` (``tests/test_evolve.py::
TestFreshnessPolls``).

Run with ``PYTHONPATH=src python scripts/smoke.py``; takes no arguments
and exits 0 when every scenario passes.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import re
import signal
import sqlite3
import sys
import tempfile
import threading
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

from loadgen import Connection, LoadGenerator, Server  # noqa: E402

JSON = {"Content-Type": "application/json"}


class SmokeFailure(Exception):
    """One broken expectation; the scenario stops here."""


def check(condition: object, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


# ------------------------------------------------------------------ http


def call(port: int, method: str, path: str, body: dict | None = None):
    """One request on a fresh connection: ``(status, raw body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        data = None if body is None else encode(body)
        conn.request(method, path, data, JSON if data is not None else {})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def encode(body: dict) -> bytes:
    return json.dumps(body).encode("utf-8")


def post(port: int, body: dict, path: str = "/translate") -> tuple[int, dict]:
    status, raw = call(port, "POST", path, body)
    return status, json.loads(raw)


def metrics(port: int) -> str:
    return call(port, "GET", "/metrics")[1].decode("utf-8")


def is_drop(status: int, raw: bytes) -> bool:
    """Neither an answer nor a retriable rejection.  Status 0 is a
    transport failure or a client timeout (``loadgen.Connection``)."""
    if status == 200:
        payload = json.loads(raw)
        return payload["sql"] is None and payload["error"] is None
    return status != 503 or json.loads(raw).get("retriable") is not True


@contextmanager
def serving(flags: list[str], log: Path):
    """A started ``repro serve``; SIGTERM on exit, after which the log
    must report a clean drain."""
    server = Server(flags, src=SRC, log=log)
    server.start(timeout=60.0)
    try:
        yield server
    finally:
        server.pids()  # workers may have restarted since start
        server.stop()
    check("drained cleanly" in log.read_text(),
          f"SIGTERM did not drain cleanly; see {log}")


def write(path: Path, script: str) -> Path:
    """Commit ``script`` through a separate writer, like an external ETL
    job (creating the file on first use)."""
    writer = sqlite3.connect(path)
    writer.executescript(script)
    writer.commit()
    writer.close()
    return path


def make_city_db(path: Path) -> Path:
    return write(path, """
        CREATE TABLE city (
            city_id INTEGER PRIMARY KEY,
            city_name VARCHAR(40),
            country VARCHAR(40),
            population INTEGER
        );
        INSERT INTO city VALUES (1, 'Paris', 'France', 21);
        INSERT INTO city VALUES (2, 'Rome', 'Italy', 28);
    """)


# ----------------------------------------------------------------- serve


def scenario_serve(tmp: Path) -> str:
    db = make_city_db(tmp / "smoke.sqlite")
    with serving(["--database", f"smoke={db}", "--threads", "2"],
                 tmp / "serve.log") as server:
        health = server.get_json("/healthz")
        check(health["status"] == "ok", health)
        status, body = post(server.port, {
            "question": "How many cities are there?", "execute": True,
        })
        check(status == 200 and body["sql"] and body["error"] is None, body)
        check(body["rows"] == [[2]], body)
        check("serving_responses_ok_total 1" in metrics(server.port),
              "serving_responses_ok_total 1 missing from /metrics")
    return "one round-trip, rows [[2]]"


# ---------------------------------------------------------------- policy


def scenario_policy(tmp: Path) -> str:
    db = make_city_db(tmp / "smoke.sqlite")
    # "locked" allows zero tables per query: every generated SELECT trips
    # the max-tables cost rule, which is how a block is provoked through
    # /translate (the HTTP layer takes questions, not SQL).
    policy = tmp / "policy.json"
    policy.write_text(json.dumps({
        "version": 1,
        "default": {"read_only": True},
        "databases": {"locked": {"max_tables": 0}},
    }))
    flags = ["--database", f"open={db}", "--database", f"locked={db}",
             "--policy", str(policy), "--threads", "2"]
    question = "How many cities are there?"
    with serving(flags, tmp / "policy.log") as server:
        status, body = post(server.port, {
            "question": question, "database_id": "open", "execute": True,
        })
        check(status == 200, (status, body))
        check(body["rows"] == [[2]] and body["policy"] is None, body)
        executed_sql = body["sql"]

        status, body = post(server.port, {
            "question": question, "database_id": "locked", "execute": True,
        })
        check(status == 403, (status, body))
        check(body["reason"] == "policy" and body["rule_id"] == "max-tables", body)
        check(body["policy"]["violations"] and body["rows"] is None, body)

        status, body = post(server.port, {
            "question": question, "database_id": "open", "dialect": "postgres",
        })
        check(status == 400 and "dialect" in body["error"], (status, body))
        status, body = post(server.port, {
            "question": question, "database_id": "open",
        })
        check(status == 200 and body["sql"] == executed_sql,
              (executed_sql, status, body))

        check('policy_blocked_total{tenant="anonymous"} 1' in metrics(server.port),
              'policy_blocked_total{tenant="anonymous"} 1 missing from /metrics')
    return "403 max-tables on locked, 200 on open, 1 block counted"


# -------------------------------------------------------------- fairness

HOT_RATE, HOT_BURST = 20.0, 5.0  # the hot tenant's allowance
BG_RATE, BG_COUNT = 5.0, 3       # per background tenant
FAIR_SECONDS = 8.0
FAIR_QUESTIONS = (
    "How many rows are there?",
    "List all names.",
    "How many entries are in the table?",
    "Show everything.",
)


def tenant_outcomes(port: int, api_key: str, rate: float) -> dict[str, int]:
    """Pace one tenant at ``rate`` for ``FAIR_SECONDS`` over one
    keep-alive connection; count its answers by kind."""
    headers = dict(JSON, Authorization=f"Bearer {api_key}")
    encoded = [(encode({"question": q}), [headers]) for q in FAIR_QUESTIONS]
    generator = LoadGenerator(port, encoded)
    stream = itertools.cycle((i, 0) for i in range(len(encoded)))
    try:
        samples = generator.paced(stream, rate, round(rate * FAIR_SECONDS))
    finally:
        generator.close()
    counts = dict.fromkeys(("ok", "429", "503", "failed"), 0)
    for sample in samples:
        if sample.status == 200:
            payload = json.loads(sample.body)
            ok = payload["sql"] and not payload["error"]
            counts["ok" if ok else "failed"] += 1
        elif sample.status in (429, 503):
            counts[str(sample.status)] += 1
        else:  # 401, other errors, transport failures and timeouts
            counts["failed"] += 1
    return counts


def scenario_fairness(tmp: Path) -> str:
    db = make_city_db(tmp / "fairness.sqlite")
    tenants = [("hot", "hot-tenant-key-0001", HOT_RATE, HOT_BURST, "gold")] + [
        (f"bg{i}", f"bg{i}-tenant-key-0001", BG_RATE, 2 * BG_RATE, "bronze")
        for i in range(BG_COUNT)
    ]
    config = tmp / "tenants.json"
    config.write_text(json.dumps({"version": 1, "tenants": [
        {"id": tid, "api_key": key, "class": cls, "rate": rate, "burst": burst}
        for tid, key, rate, burst, cls in tenants
    ]}))
    flags = ["--database", f"fairness={db}", "--tenants", str(config),
             "--quota-state", str(tmp / "quota.json"), "--threads", "2",
             "--queue-size", "256", "--per-tenant-depth", "64"]
    # The hot tenant floods at 10x its allowance; background tenants
    # stay inside theirs (80 %).
    send_rates = {"hot": 10 * HOT_RATE, **{
        f"bg{i}": 0.8 * BG_RATE for i in range(BG_COUNT)}}
    results: dict[str, dict[str, int]] = {}
    with serving(flags, tmp / "fairness.log") as server:
        def run(tenant_id: str, api_key: str) -> None:
            results[tenant_id] = tenant_outcomes(
                server.port, api_key, send_rates[tenant_id])

        threads = [threading.Thread(target=run, args=(tid, key))
                   for tid, key, *_ in tenants]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    check(len(results) == len(tenants),
          f"a tenant client crashed or hung: {sorted(results)}")
    for i in range(BG_COUNT):
        bg = results[f"bg{i}"]
        check(bg["ok"] == sum(bg.values()),
              f"background tenant bg{i} was hurt: {bg}")
        sent = 0.8 * BG_RATE * FAIR_SECONDS
        check(bg["ok"] >= 0.8 * sent,
              f"background tenant bg{i} starved: {bg['ok']} ok of ~{sent:.0f}")
    hot = results["hot"]
    budget = HOT_BURST + HOT_RATE * FAIR_SECONDS
    check(0.9 * budget <= hot["ok"] <= 1.1 * budget,
          f"hot tenant served {hot['ok']}; expected within 10 % of {budget:.0f}")
    check(hot["failed"] == 0,
          f"hot tenant saw {hot['failed']} failures (overload must answer 429)")
    return f"hot {hot}, background {[results[f'bg{i}'] for i in range(BG_COUNT)]}"


# ----------------------------------------------------------------- drift

DRIFT_THREADS = 4
DRIFT_SECONDS = 4.0
FILLER_STUDENTS = 5000  # so the phase-2 UPDATE lands past row 4096
UPDATED_STUID = 4600    # moved by the UPDATE under load
OFFLINE_STUID = 4700    # moved while no server runs
DRIFT_QUESTIONS = (
    "How many students are there?",
    "List the name of all students.",
    "Which students are from France?",
    "What is the average age of students?",
    "pets heavier than 10",
)


def make_pets_db(path: Path) -> Path:
    return write(path, f"""
        CREATE TABLE student (
            stuid INTEGER PRIMARY KEY, name TEXT, age INTEGER,
            home_country TEXT);
        CREATE TABLE pet (
            petid INTEGER PRIMARY KEY, pet_type TEXT, weight REAL);
        INSERT INTO student VALUES
            (1,'Ann Miller',22,'France'),(2,'Bob Smith',19,'France'),
            (3,'Cid Rossi',25,'Italy'),(4,'Dana Levi',21,'Spain');
        INSERT INTO pet VALUES (10,'Dog',12.0),(11,'Cat',3.5);
        WITH RECURSIVE n(i) AS (
            SELECT 100 UNION ALL SELECT i + 1 FROM n
            WHERE i < {99 + FILLER_STUDENTS})
        INSERT INTO student SELECT i, 'Filler ' || i, 18 + i % 10,
            CASE i % 3 WHEN 0 THEN 'France' WHEN 1 THEN 'Italy' ELSE 'Spain' END
        FROM n;
    """)


def index_version(server: Server) -> int:
    evolve = server.get_json("/healthz")["evolve"]
    check(evolve is not None, "no KB refresher in /healthz")
    return evolve["versions"]["pets"]


def wait_for_swap(server: Server, before: int) -> int:
    """Poll /healthz until the background refresher bumps the version."""
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        if (version := index_version(server)) > before:
            return version
        time.sleep(0.1)
    raise SmokeFailure(f"index version never bumped past {before}")


def check_resolves(server: Server, country: str, name: str) -> None:
    status, body = post(server.port, {
        "question": f"Which students are from {country}?",
        "database_id": "pets", "execute": True,
    })
    check(status == 200, (status, body))
    check(country in body["sql"] and [name] in body["rows"], body)


@contextmanager
def drift_load(port: int):
    """Client threads asking ``DRIFT_QUESTIONS`` until the block exits;
    yields their tally of answers by status (0 = transport failure or
    timeout)."""
    stop = threading.Event()
    counts: dict[int, int] = {}
    lock = threading.Lock()

    def run(seed: int) -> None:
        conn = Connection(port)
        for i in itertools.count(seed):
            if stop.is_set():
                break
            question = DRIFT_QUESTIONS[i % len(DRIFT_QUESTIONS)]
            status, _ = conn.post(
                encode({"question": question, "database_id": "pets"}), JSON
            )
            with lock:
                counts[status] = counts.get(status, 0) + 1
            time.sleep(0.005)
        conn.close()

    threads = [threading.Thread(target=run, args=(seed,), daemon=True)
               for seed in range(DRIFT_THREADS)]
    for thread in threads:
        thread.start()
    try:
        yield counts
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=40.0)


def scenario_drift(tmp: Path) -> str:
    db = make_pets_db(tmp / "pets.sqlite")
    corpus = tmp / "corpus.jsonl"
    flags = ["--database", f"pets={db}", "--threads", "4",
             "--queue-size", "256", "--cache-size", "128",
             "--index-cache", str(tmp / "index-cache"),
             "--kb-refresh-interval", "0.25", "--kb-corpus", str(corpus)]

    with serving(flags, tmp / "drift-1.log") as server:
        before = index_version(server)
        with drift_load(server.port) as counts:
            time.sleep(0.5)
            # Phase 1: DDL and a value the first index never saw.
            write(db, """
                CREATE TABLE clinic (
                    clinicid INTEGER PRIMARY KEY, city TEXT, capacity INTEGER);
                INSERT INTO clinic VALUES (1,'Zurich',40),(2,'Basel',25);
                INSERT INTO student VALUES (5,'Gil Tembo',24,'Zanzibar');
            """)
            phase1 = wait_for_swap(server, before)
            # Phase 2: an in-place UPDATE past row 4096 keeps every row
            # count; only the file's commit state shows it.
            write(db, f"UPDATE student SET home_country = 'Tuvalu' "
                      f"WHERE stuid = {UPDATED_STUID}")
            after = wait_for_swap(server, phase1)
            time.sleep(max(0.0, DRIFT_SECONDS - 2.0))  # load past the swap
        check(not counts.get(0), f"transport failures under drift: {counts}")
        check(not any(s >= 500 for s in counts), f"5xx under drift: {counts}")
        check(sum(counts.values()) > 0, "the load sent nothing")

        check_resolves(server, "Zanzibar", "Gil Tembo")
        check_resolves(server, "Tuvalu", f"Filler {UPDATED_STUID}")
        status, body = post(server.port, {
            "question": "How many rows are in clinic?",
            "database_id": "pets", "execute": True,
        })
        check(status == 200, (status, body))

        status, body = post(server.port, {}, path="/admin/refresh")
        check(status == 200 and body["status"] == "ok", (status, body))
        check(body["evolve"]["swaps"] >= 1, body)

        exposition = metrics(server.port)
        for name in ("evolve_refresh_runs_total", "evolve_index_swap_seconds",
                     "evolve_corpus_examples_total"):
            check(name in exposition, f"{name} missing from /metrics")
        runs = re.search(r"^evolve_refresh_runs_total (\S+)$", exposition, re.M)
        check(runs and float(runs[1]) >= 1, "evolve_refresh_runs_total < 1")

    lines = [json.loads(line) for line in corpus.read_text().splitlines()]
    clinic = [line for line in lines if line["table"] == "clinic"]
    check(clinic, f"no clinic examples in the corpus ({len(lines)} lines)")
    check(all(line["validated"] for line in lines), "unvalidated corpus lines")

    # Restarts over the same index cache.  As is, the refresher's last
    # bundle is loaded and phase 2's value answered.
    log = tmp / "drift-2.log"
    with serving(flags, log) as server:
        check_resolves(server, "Tuvalu", f"Filler {UPDATED_STUID}")
    # Read after exit: the server's stdout is a file, so block-buffered.
    check("(built=0 loaded=1)" in log.read_text(),
          f"the restart rebuilt instead of loading; see {log}")
    # A count-preserving UPDATE while no server runs: the restart must
    # not serve the cached bundle that predates it.
    write(db, f"UPDATE student SET home_country = 'Nauru' "
              f"WHERE stuid = {OFFLINE_STUID}")
    with serving(flags, tmp / "drift-3.log") as server:
        check_resolves(server, "Nauru", f"Filler {OFFLINE_STUID}")
    return (f"{sum(counts.values())} requests, version {before}->{after}, "
            f"{len(lines)} corpus examples ({len(clinic)} for clinic), "
            "3 starts over one index cache")


# --------------------------------------------------------------- cluster

CLUSTER_CLIENTS, CLUSTER_REQUESTS = 8, 150


def make_rows_db(path: Path, table: str) -> Path:
    return write(path, f"""
        CREATE TABLE {table} (
            {table}_id INTEGER PRIMARY KEY, name VARCHAR(40), score INTEGER);
        WITH RECURSIVE n(i) AS (
            SELECT 1 UNION ALL SELECT i + 1 FROM n WHERE i < 1500)
        INSERT INTO {table} SELECT i, '{table}_' || i, i * 7 % 100 FROM n;
    """)


def cluster_client(port: int, index: int, drops: list, counts: list) -> None:
    """Closed loop of unique, value-heavy questions: the misspelling
    forces the similarity search and uniqueness defeats the result
    cache, so the kill lands mid-load."""
    conn = Connection(port)
    answered = rejected = 0
    for i in range(CLUSTER_REQUESTS):
        n = index * CLUSTER_REQUESTS + i
        status, raw = conn.post(encode({
            "question": f"How many rows have name citty_{n} or pett_{n + 1}?",
            "database_id": ("left", "right")[(index + i) % 2],
            "execute": True, "timeout_ms": 30_000,
        }), JSON)
        if is_drop(status, raw):
            drops.append((status, raw[:200]))
        elif status == 200:
            answered += 1
        else:
            rejected += 1
    conn.close()
    counts.append((answered, rejected))


def scenario_cluster(tmp: Path) -> str:
    flags = ["--database", f"left={make_rows_db(tmp / 'left.sqlite', 'city')}",
             "--database", f"right={make_rows_db(tmp / 'right.sqlite', 'pet')}",
             "--workers", "2", "--cache-size", "2", "--cache-ttl", "0.001"]
    with serving(flags, tmp / "cluster.log") as server:
        drops: list = []
        counts: list = []
        threads = [
            threading.Thread(target=cluster_client,
                             args=(server.port, i, drops, counts))
            for i in range(CLUSTER_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        check(any(thread.is_alive() for thread in threads),
              "the load finished before the kill (too small to fail over)")
        victim = server.get_json("/healthz")["workers"]["0"]
        os.kill(victim["pid"], signal.SIGKILL)
        for thread in threads:
            thread.join(timeout=120.0)
        check(not any(thread.is_alive() for thread in threads),
              "client threads hung (requests lost in the cluster)")

        answered = sum(a for a, _ in counts)
        rejected = sum(r for _, r in counts)
        total = CLUSTER_CLIENTS * CLUSTER_REQUESTS
        check(not drops and answered + rejected == total,
              f"dropped {len(drops)} of {total} "
              f"(answered {answered}, rejected {rejected}): {drops[:3]}")

        # The supervisor brings worker 0 back (restarts first: the slot
        # still reads READY for a beat after the SIGKILL).
        deadline = time.monotonic() + 30.0
        while True:
            state = server.get_json("/healthz")["workers"]["0"]
            if state["restarts"] >= 1 and state["status"] == "ready":
                break
            check(time.monotonic() < deadline,
                  f"worker 0 never came back: {state}")
            time.sleep(0.1)
        check("cluster_worker_restarts_total" in metrics(server.port),
              "cluster_worker_restarts_total missing from /metrics")

        status, body = post(server.port, {
            "question": "How many rows are there?", "database_id": "left",
            "execute": True, "timeout_ms": 30_000,
        })
        check(status == 200 and body["sql"] is not None,
              f"no answer after recovery: {status} {body}")
    return (f"killed worker 0 (pid {victim['pid']}): {answered} answered, "
            f"{rejected} rejected (retriable), 0 dropped, "
            f"{state['restarts']} restart(s)")


SCENARIOS = {
    "serve": scenario_serve,
    "policy": scenario_policy,
    "fairness": scenario_fairness,
    "drift": scenario_drift,
    "cluster": scenario_cluster,
}


def main() -> int:
    failed = []
    started = time.perf_counter()
    for name, scenario in SCENARIOS.items():
        begin = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix=f"smoke-{name}-") as tmp:
            try:
                summary = scenario(Path(tmp))
            except Exception as exc:  # noqa: BLE001 - report, then run the rest
                failed.append(name)
                reason = (exc if isinstance(exc, SmokeFailure)
                          else traceback.format_exc())
                print(f"FAIL {name}: {reason}", flush=True)
                for log in sorted(Path(tmp).glob("*.log")):
                    print(f"--- {log.name} (tail)")
                    print("\n".join(log.read_text().splitlines()[-20:]))
                continue
        print(f"ok   {name} ({time.perf_counter() - begin:.1f}s): {summary}",
              flush=True)
    wall = time.perf_counter() - started
    if failed:
        print(f"smoke FAILED ({', '.join(failed)}) in {wall:.1f}s")
        return 1
    print(f"smoke OK: {len(SCENARIOS)} scenarios in {wall:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
