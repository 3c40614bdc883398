"""The benchmark's definition: workloads, metrics, bounds.

``BENCHMARK.json`` at the repo root is generated from this module
(``run.py --write-definition``) and ``run.py --check BENCHMARK.json``
verifies the two agree, so the names a run prints and the names the
driver expects cannot drift apart.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

#: How long one run measures.  Serving runs split it evenly between the
#: closed and the paced phase; the driver makes ~92 runs and two fixture
#: builds in 3420 s, so this is about as long as that allows.
RUN_SECONDS = 20

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    ``server_flags`` are the only non-default ``repro serve`` flags
    (``--model``/``--database``/``--port`` are always passed, the tenants
    and policy files when ``gated``); ``None`` means no server: the
    workload runs the pipeline in-process.
    ``paced_rps`` is the open-loop rate (about 35 % of the closed-loop
    throughput measured when the benchmark was defined, so that a slow
    spell of the machine does not turn into a growing queue) and
    ``slo_ms`` the latency limit paced requests are held to.
    """

    name: str
    why: str
    pool: str  # which request pool of the fixture: small | large
    execute: bool
    server_flags: tuple[str, ...] | None = ()
    gated: bool = False  # tenants + policy files passed, API keys sent
    paced_rps: float = 0.0
    slo_ms: float = 0.0


# With the default 4 translation threads the served answers are not
# reproducible: ValueNetModel.load leaves the model in training mode, each
# prediction toggles eval()/train() around itself, and two runtimes of
# different databases share the one model, so a prediction can finish
# (train()) in the middle of another's forward pass and switch its dropout
# on.  Under 2 concurrent clients ~3 % of answers then differ from the
# sequential reference.  One translation thread keeps every answer
# checkable; drop the flag here once src/ fixes the race.
_ONE_THREAD = ("--threads", "1")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serve_small_kb",
            "distinct questions over toy databases: model-bound, value lookup ~1 %, cache never hits",
            pool="small", execute=True, server_flags=_ONE_THREAD,
            paced_rps=25.0, slo_ms=50.0,
        ),
        Workload(
            "serve_large_kb",
            "unique typo'd mentions over 20 000-value databases: value-lookup-bound (paper Table II), span memo cold",
            pool="large", execute=False, server_flags=_ONE_THREAD,
            paced_rps=10.0, slo_ms=100.0,
        ),
        Workload(
            "cluster_hot_gated",
            "90 % repeated questions through 2 workers + tenants + policy: front door, IPC, cache and gate overhead-bound",
            pool="small", execute=True,
            server_flags=("--workers", "2", *_ONE_THREAD), gated=True,
            paced_rps=70.0, slo_ms=25.0,
        ),
        Workload(
            "offline_beam3",
            "in-process translate_batch (8 per database, beam 3): fused encode + beam decode, no serving layer",
            pool="small", execute=True, server_flags=None,
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only


# Bounds are as wide as the contract allows for everything timed: on the
# sizing machine identical work differs by ~10 % between runs (README,
# "Reading the numbers"), and a bound must stay clear of that.
END_TO_END = (
    # spawn -> /readyz 200 (pipeline construction offline), median of 3
    Metric("setup_s", "s", "lower", 0.25),
    Metric("throughput_rps", "1/s", "higher", 0.25),
    Metric("cpu_ms_per_req", "ms", "lower", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

PER_LAYER = tuple(
    Metric(name, unit, better)
    for name, unit, better in (
        ("text.tokenize_ms", "ms", "lower"),
        ("ner.extract_ms", "ms", "lower"),
        ("ner.spans_per_req", "count", "lower"),
        ("candidates.generate_ms", "ms", "lower"),
        ("candidates.validate_ms", "ms", "lower"),
        ("candidates.generated_per_req", "count", "lower"),
        ("candidates.kept_ratio", "ratio", "higher"),
        ("index.search_ms", "ms", "lower"),
        ("index.search_calls_per_req", "count", "lower"),
        ("index.dp_calls_per_req", "count", "lower"),
        ("index.memo_hit_ratio", "ratio", "higher"),
        ("index.build_s", "s", "lower"),
        ("index.pool_values", "count", "lower"),
        ("preprocessing.hints_ms", "ms", "lower"),
        ("preprocessing.run_ms", "ms", "lower"),
        ("model.encode_ms", "ms", "lower"),
        ("model.decode_ms", "ms", "lower"),
        ("model.decode_steps_per_req", "count", "lower"),
        ("model.encode_tokens_per_req", "count", "lower"),
        ("model.encode_batch_size", "count", "higher"),
        ("postprocessing.build_ms", "ms", "lower"),
        ("policy.check_ms", "ms", "lower"),
        ("policy.blocked_share", "ratio", "lower"),
        ("tenancy.admit_ms", "ms", "lower"),
        ("tenancy.rejected_share", "ratio", "lower"),
        ("db.execute_ms", "ms", "lower"),
        ("db.rows_per_req", "count", "lower"),
        ("pipeline.translate_ms", "ms", "lower"),
        ("pipeline.value_lookup_share", "ratio", "lower"),
        ("pipeline.encoder_decoder_share", "ratio", "lower"),
        ("pipeline.unattributed_share", "ratio", "lower"),
        ("pipeline.exec_accuracy", "ratio", "higher"),
        ("serving.queue_wait_ms", "ms", "lower"),
        ("serving.service_ms", "ms", "lower"),
        ("serving.batch_size_mean", "count", "higher"),
        ("serving.cache.hit_ratio", "ratio", "higher"),
        ("serving.degraded_share", "ratio", "lower"),
        ("serving.http.overhead_ms", "ms", "lower"),
        ("serving.http.conn_reuse_ratio", "ratio", "higher"),
        ("serving.http.latency_p99_ms", "ms", "lower"),
        ("cluster.hop_overhead_ms", "ms", "lower"),
        ("cluster.ipc_roundtrip_us", "us", "lower"),
        ("cluster.frame_bytes_mean", "bytes", "lower"),
        ("cluster.worker_restarts", "count", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    )
)


def benchmark_json() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
_PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check(path: str | Path) -> list[str]:
    """Problems with the ``BENCHMARK.json`` at ``path`` (empty = valid).

    Checks the driver's schema limits and that every workload and metric
    this module defines is present under the same name.
    """
    path = Path(path)
    raw = path.read_bytes()
    problems: list[str] = []
    if len(raw) > 64 * 1024:
        problems.append(f"file is {len(raw)} bytes (max 65536)")
    try:
        doc = json.loads(raw)
    except ValueError as exc:
        return [f"not JSON: {exc}"]
    expected_keys = {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    if not isinstance(doc, dict) or set(doc) != expected_keys:
        return [f"top-level keys must be exactly {sorted(expected_keys)}"]

    command = doc["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32 and all(
        isinstance(c, str) and len(c) <= 200 for c in command
    )):
        problems.append("command must be 1-32 strings of <= 200 characters")
    elif any(c.startswith("/") or ".." in c.split("/") for c in command):
        problems.append("command names an absolute path or leaves the repo")
    paths = doc["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16 and all(
        isinstance(p, str) and _PATH.match(p) and not p.startswith("/")
        and ".." not in p.split("/") for p in paths
    )):
        problems.append("paths must be 1-16 relative directories")
    seconds = doc["run_seconds"]
    if not (isinstance(seconds, int) and 1 <= seconds <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")

    names: list[str] = []

    def entries(key: str, low: int, high: int, keys: set[str]) -> list[dict]:
        items = doc[key]
        if not (isinstance(items, list) and low <= len(items) <= high):
            problems.append(f"{key} must hold {low} to {high} entries")
            return []
        good = []
        for item in items:
            if not isinstance(item, dict) or set(item) != keys:
                problems.append(f"{key} entry {item!r} must have exactly {sorted(keys)}")
                continue
            if not (isinstance(item["name"], str) and _NAME.match(item["name"])):
                problems.append(f"{key} name {item['name']!r} is not a valid name")
            names.append(item["name"])
            good.append(item)
        return good

    for item in entries("workloads", 2, 8, {"name", "why"}):
        why = item["why"]
        if not (isinstance(why, str) and len(why) <= 200 and "\n" not in why):
            problems.append(f"workload {item['name']!r}: why must be one line <= 200 chars")
    metric_keys = {"name", "unit", "better"}
    end_to_end = entries("end_to_end", 1, 16, metric_keys | {"bound"})
    per_layer = entries("per_layer", 1, 128, metric_keys)
    for item in end_to_end + per_layer:
        if not (isinstance(item["unit"], str) and _UNIT.match(item["unit"])):
            problems.append(f"metric {item['name']!r}: bad unit {item['unit']!r}")
        if item["better"] not in ("lower", "higher"):
            problems.append(f"metric {item['name']!r}: better must be lower|higher")
    for item in end_to_end:
        bound = item["bound"]
        if not (isinstance(bound, (int, float)) and 0 < bound <= 0.25):
            problems.append(f"metric {item['name']!r}: bound must be in (0, 0.25]")
    setup = [m for m in end_to_end if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s with unit s, better lower")
    if len(names) != len(set(names)):
        problems.append("a name is used more than once")

    if doc != benchmark_json():
        problems.append(
            "file differs from benchmarks/e2e/definition.py "
            "(regenerate with run.py --write-definition)"
        )
    return problems
