#!/usr/bin/env python
"""Policy smoke test: the defense-in-depth gate, exercised over HTTP.

Starts the service in-process with a policy engine wired in, then checks
the whole contract end to end:

* forbidden raw statements (DDL/DML, PRAGMA, multi-statement piggyback)
  are blocked by the engine with machine-readable rule ids, while their
  closest legitimate twins pass;
* a /translate against a policy-restricted database returns a structured
  403 carrying the rule id; the same question against an unrestricted
  database returns 200 with rows;
* blocks increment the tenant-labeled ``policy_blocked_total`` counter
  visible in the /metrics exposition;
* a body carrying ``dialect`` is a 400 naming the field; the SQL of a
  plain request is the SQLite text the gate checked and ran.

Run with ``PYTHONPATH=src python scripts/policy_smoke.py``; exits 0 on
success.
"""

from __future__ import annotations

import json
import sqlite3
import sys
import tempfile
import threading
import urllib.error
import urllib.request
from pathlib import Path

from repro.db import Database
from repro.policy import PolicyConfigStore, PolicyEngine, PolicyViolationError
from repro.serving import DatabaseRuntime, ServingServer, TranslationService

# (forbidden statement, rule id that must fire, legitimate quiet twin)
FORBIDDEN = [
    ("DROP TABLE city", "blocked-keyword",
     "SELECT city_name FROM city WHERE country = 'DROP TABLE'"),
    ("PRAGMA writable_schema = 1", "blocked-keyword",
     "SELECT city_name FROM city"),
    ("UPDATE city SET population = 0", "blocked-keyword",
     "SELECT population FROM city"),
    ("SELECT city_name FROM city; DELETE FROM city", "multi-statement",
     "SELECT city_name FROM city;"),
    ("VACUUM", "read-only",
     "SELECT COUNT(*) FROM city"),
]


def post(url: str, body: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        url + "/translate",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def check_engine_corpus(engine: PolicyEngine, schema) -> None:
    """Raw forbidden statements block with the right rule; twins pass."""
    for forbidden, rule_id, twin in FORBIDDEN:
        try:
            engine.check_sql(forbidden, database_id="open", schema=schema)
        except PolicyViolationError as error:
            fired = {v.rule_id for v in error.violations}
            assert rule_id in fired, (forbidden, rule_id, fired)
        else:
            raise AssertionError(f"not blocked: {forbidden!r}")
        engine.check_sql(twin, database_id="open", schema=schema)  # must pass


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "smoke.sqlite"
        connection = sqlite3.connect(path)
        connection.executescript(
            """
            CREATE TABLE city (
                city_id INTEGER PRIMARY KEY,
                city_name VARCHAR(40),
                country VARCHAR(40),
                population INTEGER
            );
            INSERT INTO city VALUES (1, 'Paris', 'France', 21);
            INSERT INTO city VALUES (2, 'Rome', 'Italy', 28);
            """
        )
        connection.commit()
        connection.close()

        # The "locked" database allows zero tables per query — every
        # generated SELECT trips the max-tables cost rule, which is how
        # a policy block is provoked through /translate (the HTTP layer
        # takes questions, not SQL).
        policy_path = Path(tmp) / "policy.json"
        policy_path.write_text(json.dumps({
            "version": 1,
            "default": {"read_only": True},
            "databases": {"locked": {"max_tables": 0}},
        }))
        engine = PolicyEngine(PolicyConfigStore.load(policy_path))

        open_db = Database.open(path)
        locked_db = Database.open(path)
        check_engine_corpus(engine, open_db.schema)

        service = TranslationService(
            [
                DatabaseRuntime(open_db, database_id="open", policy=engine),
                DatabaseRuntime(locked_db, database_id="locked", policy=engine),
            ],
            workers=2,
        ).start()
        # After the corpus check above, so /metrics counts served blocks only.
        engine.bind_metrics(service.metrics)
        server = ServingServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            question = "How many cities are there?"

            status, body = post(server.url, {
                "question": question, "database_id": "open", "execute": True,
            })
            assert status == 200, (status, body)
            assert body["rows"] == [[2]], body
            assert body["policy"] is None, body
            executed_sql = body["sql"]

            status, body = post(server.url, {
                "question": question, "database_id": "locked", "execute": True,
            })
            assert status == 403, (status, body)
            assert body["reason"] == "policy", body
            assert body["rule_id"] == "max-tables", body
            assert body["policy"]["violations"], body
            assert body["rows"] is None, body

            status, body = post(server.url, {
                "question": question, "database_id": "open",
                "dialect": "postgres",
            })
            assert status == 400, (status, body)
            assert "dialect" in body["error"], body
            status, body = post(server.url, {
                "question": question, "database_id": "open",
            })
            assert status == 200, (status, body)
            assert body["sql"] == executed_sql, (executed_sql, body)

            metrics = urllib.request.urlopen(
                server.url + "/metrics", timeout=10
            ).read().decode("utf-8")
            assert 'policy_blocked_total{tenant="anonymous"} 1' in metrics, (
                metrics
            )
        finally:
            server.shutdown()
            server.server_close()
            service.stop()
            open_db.close()
            locked_db.close()
    print("policy smoke test OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
