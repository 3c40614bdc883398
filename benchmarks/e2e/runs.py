"""One benchmark run: a workload, a seed, a duration, traced or not.

``run()`` returns ``(result, info)``: ``result`` is the object the
driver reads (``correct``/``attempted``/``failed``/``metrics``), ``info``
holds what a human also wants to see (sample counts, SLO misses,
generator lateness) and is printed above it.

Untraced runs produce the end-to-end metrics from the real server (or,
for the offline workload, the plain pipeline).  Traced runs produce the
per-layer metrics: the serving fields from a single-client pass against
the real server, the pipeline layers from replaying those same requests
in-process with spans around each layer's public entry point.
"""

from __future__ import annotations

import itertools
import json
import random
import resource
import socket
import statistics
import threading
import time

from definition import END_TO_END, PER_LAYER, Workload
from fixture import OUT, SRC, TENANTS, Fixture
from loadgen import (
    LoadGenerator, Sample, Server, cpu_seconds, median_slice_rate,
    peak_rss_mb, percentile,
)
from spans import Recorder, install

# cluster_hot_gated: 90 % of requests draw Zipf(1) from a hot set that
# fits the workers' result caches, 10 % walk a cold list that never
# repeats within a run, so the hit ratio is 0.90 by construction once
# the warm-up has touched every hot question (not a function of run
# length, as it would be with one big Zipf pool).
HOT_SIZE = 128
HOT_SHARE = 0.9
BATCH = 8  # offline_beam3 batch size
BEAM = 3
WARMUP_S = 1.5
ROUNDS = 5  # closed/paced rounds of a serving run


def run(workload: Workload, fixture: Fixture, seed: int, seconds: float, trace: bool):
    if workload.server_flags is None:
        metrics, info = (_trace_offline if trace else _run_offline)(
            workload, fixture, seed, seconds
        )
    else:
        metrics, info = (_trace_serving if trace else _run_serving)(
            workload, fixture, seed, seconds
        )
    expected = PER_LAYER if trace else END_TO_END
    units = {m.name: m.unit for m in expected}
    assert set(metrics) == set(units), set(metrics) ^ set(units)
    result = {
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }
    return result, info


# ---------------------------------------------------------------- requests


def _streams(workload: Workload, pool: list[dict], seed: int, paced_count: int):
    """The run's request streams, each yielding ``(pool index, tenant
    index)``, all ordered by ``seed``: ``(prefill, closed, paced)``.

    ``prefill`` is how many leading items of ``closed`` the warm-up must
    send first (each hot question once; 0 for ungated workloads).

    Ungated: the paced phase sends the same ``paced_count`` requests on
    every seed, only in another order, so its latency percentiles compare
    one fixed set of questions; everything else cycles through the rest
    of the pool (longer than the result cache, so a cycle never hits).
    """
    rng = random.Random(f"{workload.name}-{seed}")
    if not workload.gated:
        paced = list(range(min(paced_count, len(pool) // 2)))
        rest = list(range(len(paced), len(pool)))
        rng.shuffle(paced)
        rng.shuffle(rest)
        return (
            0,
            ((i, 0) for i in itertools.cycle(rest)),
            ((i, 0) for i in itertools.cycle(paced)),
        )
    order = list(range(len(pool)))
    rng.shuffle(order)
    usable = [i for i in order if not pool[i]["blocked"]]
    cacheable = [i for i in usable if not pool[i]["degraded"]]
    hot = cacheable[: min(HOT_SIZE, len(cacheable) // 4)]
    hot_set = set(hot)
    cold = [i for i in usable if i not in hot_set]
    cumulative = list(itertools.accumulate(1.0 / (k + 1) for k in range(len(hot))))

    def generate():
        walk = itertools.cycle(cold)
        for n in itertools.count():
            if n < len(hot):
                yield hot[n], n % 2
            elif rng.random() < HOT_SHARE:
                yield rng.choices(hot, cum_weights=cumulative)[0], n % 2
            else:
                yield next(walk), n % 2

    stream = generate()
    return len(hot), stream, stream


def _encode(workload: Workload, pool: list[dict]) -> list:
    headers = [
        {"Content-Type": "application/json",
         "Authorization": f"Bearer {tenant['api_key']}"}
        for tenant in TENANTS
    ] if workload.gated else [{"Content-Type": "application/json"}]
    return [
        (json.dumps({
            "question": r["question"], "database_id": r["database_id"],
            "execute": workload.execute,
        }).encode(), headers)
        for r in pool
    ]


def _verify(workload: Workload, pool: list[dict], sample: Sample) -> dict | None:
    """The response payload when it is the expected answer, else None.

    Expected: HTTP 200, SQL byte-identical to the in-process reference,
    identical rows when executed, the same degraded flag (the fixture
    model's deterministic failures are answered by the heuristic
    fallback; anything else degraded is an error), and the right tenant.
    """
    if sample.status != 200:
        return None
    payload = json.loads(sample.body)
    ref = pool[sample.request]
    tenant = TENANTS[sample.tenant]["id"] if workload.gated else None
    if (
        payload["sql"] != ref["sql"]
        or payload["degraded"] != ref["degraded"]
        or payload["tenant_id"] != tenant
        or (workload.execute and payload["rows"] != ref["rows"])
    ):
        return None
    return payload


def _server_flags(workload: Workload, fixture: Fixture) -> list[str]:
    flags = ["--model", str(fixture.model_dir)]
    for database_id, path in fixture.databases(workload.pool):
        flags += ["--database", f"{database_id}={path}"]
    flags += workload.server_flags
    if workload.gated:
        flags += ["--tenants", str(fixture.tenants_path),
                  "--policy", str(fixture.policy_path)]
    return flags


def _new_server(workload: Workload, fixture: Fixture) -> Server:
    OUT.mkdir(exist_ok=True)
    return Server(
        _server_flags(workload, fixture), src=SRC,
        log=OUT / f"server-{workload.name}.log",
    )


# ------------------------------------------------------ serving, untraced


def _run_serving(workload: Workload, fixture: Fixture, seed: int, seconds: float):
    pool = fixture.requests(workload.pool)
    round_s = seconds / 2 / ROUNDS
    paced_per_round = max(1, int(workload.paced_rps * round_s))
    prefill, closed_stream, paced_stream = _streams(
        workload, pool, seed, ROUNDS * paced_per_round
    )

    # Three cold starts; the third server is the one measured.
    setup = []
    for attempt in range(3):
        server = _new_server(workload, fixture)
        setup.append(server.start())
        if attempt < 2:
            server.stop()
    try:
        generator = LoadGenerator(server.port, _encode(workload, pool))
        warm = generator.sequence(closed_stream, prefill)
        warm += generator.closed(closed_stream, WARMUP_S)
        # Closed and paced rounds take turns, so that a slow spell of the
        # machine lands on a part of both phases, not on all of one.
        closed_rounds, cpu_rounds, paced = [], [], []
        for _ in range(ROUNDS):
            cpu_before = cpu_seconds(server.pids())
            closed_rounds.append(generator.closed(closed_stream, round_s))
            cpu_rounds.append(cpu_seconds(server.pids()) - cpu_before)
            paced += generator.paced(paced_stream, workload.paced_rps, paced_per_round)
        rss = peak_rss_mb(server.pids())
        reuse = generator.reuse_ratio()
        generator.close()
    finally:
        server.stop()

    # Warm-up answers are checked too: a wrong answer there is still wrong.
    closed = [s for samples in closed_rounds for s in samples]
    everything = warm + closed + paced
    answers = {id(s): _verify(workload, pool, s) for s in everything}
    failed = sum(answers[id(s)] is None for s in everything)
    rates = []
    for samples in closed_rounds:
        good = sum(answers[id(s)] is not None for s in samples)
        rates.append(good / (samples[-1].end - samples[0].start))
    good_closed = sum(answers[id(s)] is not None for s in closed)
    latencies = [1000.0 * (s.end - s.start) for s in paced]
    slow = sum(
        answers[id(s)] is None or 1000.0 * (s.end - s.start) > workload.slo_ms
        for s in paced
    )
    payloads = [a for s in closed + paced if (a := answers[id(s)]) is not None]
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_rps": statistics.median(rates),
        "cpu_ms_per_req": 1000.0 * sum(cpu_rounds) / max(1, good_closed),
        "latency_p50_ms": percentile(latencies, 0.50),
        "peak_rss_mb": rss,
    }
    info = {
        "attempted": len(everything),
        "failed": failed,
        "error_share": failed / len(everything),
        "rounds": ROUNDS,
        "closed_requests": len(closed),
        "paced_requests": len(paced),
        "paced_rps": workload.paced_rps,
        "paced_latency_p95_ms": percentile(latencies, 0.95),
        "slo_ms": workload.slo_ms,
        "slo_miss_share": slow / len(paced),
        "paced_late_p50_ms": 1000.0 * statistics.median(s.late_s for s in paced),
        "paced_late_max_ms": 1000.0 * max(s.late_s for s in paced),
        "cache_hit_ratio": _share(payloads, "cache_hit"),
        "degraded_share": _share(payloads, "degraded"),
        "exec_accuracy": _exec_accuracy(workload, pool, closed + paced),
        "conn_reuse_ratio": reuse,
    }
    return metrics, info


def _share(payloads: list[dict], field: str) -> float:
    return sum(bool(p[field]) for p in payloads) / max(1, len(payloads))


def _exec_accuracy(workload: Workload, pool: list[dict], samples: list[Sample]) -> float:
    """Share of executed answers whose rows equal the gold query's rows
    (decided at fixture time; low for this 4-epoch model, and beside the
    point: the workloads need real decode paths, not good ones)."""
    if not workload.execute:
        return 0.0
    return sum(pool[s.request]["gold_ok"] for s in samples) / max(1, len(samples))


# -------------------------------------------------------- serving, traced


def _trace_serving(workload: Workload, fixture: Fixture, seed: int, seconds: float):
    pool = fixture.requests(workload.pool)
    prefill, stream, _ = _streams(workload, pool, seed, 0)
    metrics = {m.name: 0.0 for m in PER_LAYER}

    server = _new_server(workload, fixture)
    server.start()
    try:
        generator = LoadGenerator(server.port, _encode(workload, pool))
        warm = generator.sequence(stream, prefill)
        samples = generator.closed(stream, seconds / 2)
        health = server.get_json("/healthz")
        reuse = generator.reuse_ratio()
        generator.close()
    finally:
        server.stop()

    answers = [_verify(workload, pool, s) for s in samples]
    failed = sum(a is None for a in answers) + sum(
        _verify(workload, pool, s) is None for s in warm
    )
    served = [(s, a) for s, a in zip(samples, answers) if a is not None]
    latencies = [1000.0 * (s.end - s.start) for s, _ in served]
    metrics.update({
        "serving.queue_wait_ms": statistics.median(a["queue_ms"] for _, a in served),
        "serving.service_ms": statistics.median(a["service_ms"] for _, a in served),
        "serving.batch_size_mean": statistics.fmean(a["batch_size"] for _, a in served),
        "serving.cache.hit_ratio": _share([a for _, a in served], "cache_hit"),
        "serving.degraded_share": _share([a for _, a in served], "degraded"),
        "serving.http.overhead_ms": statistics.median(
            1000.0 * (s.end - s.start) - a["queue_ms"] - a["service_ms"]
            for s, a in served
        ),
        "serving.http.conn_reuse_ratio": reuse,
        "serving.http.latency_p99_ms": percentile(latencies, 0.99),
        "policy.blocked_share": sum(s.status == 403 for s in samples) / len(samples),
        "tenancy.rejected_share": sum(s.status in (401, 429) for s in samples) / len(samples),
        "cluster.worker_restarts": sum(
            w["restarts"] for w in health.get("workers", {}).values()
        ) if health.get("mode") == "cluster" else 0,
        "pipeline.exec_accuracy": _exec_accuracy(workload, pool, samples),
    })

    metrics.update(_replay_in_process(workload, fixture, served, seconds / 2))
    if workload.gated:
        metrics.update(_cluster_layers(workload, fixture, served[:200]))
    info = {
        "attempted": len(samples) + len(warm),
        "failed": failed,
        "http_requests": len(samples),
        "http_latency_p50_ms": percentile(latencies, 0.50),
        # served p50 should reconcile with overhead + queue wait + service
        "http_reconciled_ms": metrics["serving.http.overhead_ms"]
        + metrics["serving.queue_wait_ms"] + metrics["serving.service_ms"],
    }
    return metrics, info


def _replay_in_process(workload, fixture, served, seconds: float) -> dict:
    """Replay the served requests through the per-database runtime the
    server builds, once with spans on and once, on a twin set of
    runtimes with its own indexes, with spans off; the twin prices the
    tracing itself.  Stops after ``seconds``.

    A request the server answered from its cache replays only what a
    cache hit still pays for (policy re-check, execution), so per-request
    layer times are faithful to the workload's hit ratio.
    """
    from repro.db import Database
    from repro.index import IndexRegistry
    from repro.model import ValueNetModel
    from repro.policy import PolicyConfigStore, PolicyEngine
    from repro.preprocessing import Preprocessor
    from repro.serving import DatabaseRuntime
    from repro.tenancy import TenancyController, TenantRegistry

    policy = controller = None
    if workload.gated:
        policy = PolicyEngine(PolicyConfigStore.load(fixture.policy_path))
        controller = TenancyController(TenantRegistry.from_file(fixture.tenants_path))
    model = ValueNetModel.load(fixture.model_dir)

    def build():
        registry = IndexRegistry()
        databases = [
            (name, Database.open(path)) for name, path in fixture.databases(workload.pool)
        ]
        start = time.perf_counter()
        for _, database in databases:
            registry.get(database)
        build_s = time.perf_counter() - start
        runtimes = {
            name: DatabaseRuntime(
                database, model, database_id=name, policy=policy,
                preprocessor=Preprocessor(database, registry=registry),
            )
            for name, database in databases
        }
        return runtimes, build_s

    def replay(runtime, sample, answer):
        tenant = answer["tenant_id"]
        if controller is not None:
            controller.admit(TENANTS[sample.tenant]["api_key"])
        if answer["cache_hit"]:
            result, sql = None, answer["sql"]
            if workload.execute:
                runtime.execute_sql(sql, tenant_id=tenant)
        else:
            result = runtime.translate(answer["question"], execute=workload.execute)
            if result.error is not None:
                runtime.translate_fallback(answer["question"], execute=workload.execute)
            sql = answer["sql"]
        if policy is not None and sql is not None:  # the service's own check
            policy.check_sql(
                sql, database_id=runtime.database_id, tenant_id=tenant,
                schema=runtime.database.schema, graph=runtime.schema_graph,
            )
        return result

    recorder = Recorder()
    install(recorder)
    try:
        traced, build_s = build()
        plain, _ = build()
        sets = {True: traced, False: plain}
        walls = {True: 0.0, False: 0.0}
        lookup_s = encdec_s = 0.0
        replayed = 0
        stop = time.perf_counter() + seconds
        for sample, answer in served:
            if time.perf_counter() >= stop:
                break
            recorder.request_id = replayed
            # alternate which twin goes first: the second finds warm CPU caches
            for spans_on in ((True, False) if replayed % 2 else (False, True)):
                recorder.enabled = spans_on
                start = time.perf_counter()
                result = replay(sets[spans_on][answer["database_id"]], sample, answer)
                walls[spans_on] += time.perf_counter() - start
                if spans_on and result is not None:
                    lookup_s += result.timings.value_lookup
                    encdec_s += result.timings.encoder_decoder
            replayed += 1
        recorder.enabled = False
        metrics = _traced_metrics(
            workload, recorder, replayed, lookup_s, encdec_s, walls, build_s,
            [runtime.preprocessor for runtime in traced.values()],
        )
        for runtime in (*traced.values(), *plain.values()):
            runtime.database.close()
    finally:
        recorder.restore()
    return metrics


def _traced_metrics(
    workload, recorder: Recorder, requests: int, lookup_s: float, encdec_s: float,
    walls: dict, build_s: float, preprocessors: list,
) -> dict:
    """Per-request layer metrics from the spans of ``requests`` traced
    requests (and the searchers' own counters); writes the span file."""
    recorder.dump(OUT / f"trace-{workload.name}.json")
    totals = recorder.totals()  # unseen names read as zeros

    def per_request(name: str, key: str, scale: float = 1.0) -> float:
        return scale * totals[name][key] / requests

    def self_ms(name: str) -> float:
        return per_request(name, "self_s", 1000.0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    translate_s = totals["pipeline.translate"]["total_s"]
    stats = [p.searcher.stats_snapshot() for p in preprocessors]
    memo_hits = sum(s["cache_hits"] for s in stats)
    return {
        "text.tokenize_ms": self_ms("text.tokenize"),
        "ner.extract_ms": self_ms("ner.extract"),
        "ner.spans_per_req": per_request("ner.extract", "count"),
        "candidates.generate_ms": self_ms("candidates.generate"),
        "candidates.validate_ms": self_ms("candidates.validate"),
        "candidates.generated_per_req": per_request("candidates.generate", "count"),
        "candidates.kept_ratio": ratio(
            totals["candidates.validate"]["count"], totals["candidates.generate"]["count"]
        ),
        "index.search_ms": self_ms("index.search"),
        "index.search_calls_per_req": per_request("index.search", "calls"),
        "index.dp_calls_per_req": sum(s["dp_calls"] for s in stats) / requests,
        "index.memo_hit_ratio": ratio(
            memo_hits, memo_hits + sum(s["cache_misses"] for s in stats)
        ),
        "index.build_s": build_s,
        "index.pool_values": sum(
            len({value.lower() for value, _ in p.index.iter_text_values()})
            for p in preprocessors
        ),
        "preprocessing.hints_ms": self_ms("preprocessing.hints"),
        "preprocessing.run_ms": per_request("preprocessing.run", "total_s", 1000.0),
        "model.encode_ms": self_ms("model.encode") + self_ms("model.featurize"),
        "model.decode_ms": self_ms("model.decode"),
        "model.decode_steps_per_req": per_request("model.decode", "count"),
        "model.encode_tokens_per_req": per_request("model.featurize", "count"),
        "model.encode_batch_size": ratio(
            totals["model.encode"]["count"], totals["model.encode"]["calls"]
        ),
        "postprocessing.build_ms": self_ms("postprocessing.build"),
        "policy.check_ms": self_ms("policy.check"),
        "tenancy.admit_ms": self_ms("tenancy.admit"),
        "db.execute_ms": self_ms("db.execute"),
        "db.rows_per_req": per_request("db.execute", "count"),
        "pipeline.translate_ms": per_request("pipeline.translate", "total_s", 1000.0),
        "pipeline.value_lookup_share": ratio(lookup_s, translate_s),
        "pipeline.encoder_decoder_share": ratio(encdec_s, translate_s),
        # glue no layer span covers (tree building, list shuffling)
        "pipeline.unattributed_share": ratio(
            totals["pipeline.translate"]["self_s"] + totals["preprocessing.run"]["self_s"],
            translate_s,
        ),
        "trace.overhead_pct": 100.0 * (walls[True] / walls[False] - 1.0),
    }


def _cluster_layers(workload, fixture, served) -> dict:
    """What the extra process hop costs, from an in-process supervisor
    over real workers, and a framed round trip of this run's responses."""
    from repro.cluster import ClusterConfig, ClusterService, recv_frame, send_frame

    cluster = ClusterService(
        [(name, str(path)) for name, path in fixture.databases(workload.pool)],
        model_path=str(fixture.model_dir),
        config=ClusterConfig(workers=2),
        policy_path=str(fixture.policy_path),
        threads=1,  # as the workload's server: see definition._ONE_THREAD
    )
    hops = []
    cluster.start()
    try:
        if not cluster.wait_ready(timeout=120.0):
            raise RuntimeError("in-process cluster did not become ready")
        for sample, answer in served:
            start = time.perf_counter()
            response = cluster.translate(
                answer["question"], answer["database_id"], execute=workload.execute,
                tenant_id=answer["tenant_id"],
            )
            wall_ms = 1000.0 * (time.perf_counter() - start)
            hops.append(wall_ms - response.queue_ms - response.service_ms)
    finally:
        cluster.stop()

    frames = [
        {"type": "response", "id": rid, "payload": answer}
        for rid, (_, answer) in enumerate(served)
    ]
    left, right = socket.socketpair()

    def echo() -> None:
        for _ in frames:
            send_frame(right, recv_frame(right))

    thread = threading.Thread(target=echo)
    thread.start()
    start = time.perf_counter()
    for frame in frames:
        send_frame(left, frame)
        recv_frame(left)
    elapsed = time.perf_counter() - start
    thread.join()
    left.close()
    right.close()
    return {
        "cluster.hop_overhead_ms": statistics.median(hops),
        "cluster.ipc_roundtrip_us": 1e6 * elapsed / len(frames),
        "cluster.frame_bytes_mean": statistics.fmean(
            4 + len(json.dumps(frame).encode()) for frame in frames
        ),
    }


# ----------------------------------------------------------------- offline


def _build_pipelines(fixture: Fixture):
    """The evaluation path: one plain pipeline per database, fresh index
    registry so every construction pays the index build."""
    from repro.db import Database
    from repro.index import IndexRegistry
    from repro.model import ValueNetModel
    from repro.pipeline import ValueNetPipeline
    from repro.preprocessing import Preprocessor

    registry = IndexRegistry()
    model = ValueNetModel.load(fixture.model_dir)
    pipelines = {}
    for name, path in fixture.databases("small"):
        database = Database.open(path)
        pipelines[name] = ValueNetPipeline(
            model, database, preprocessor=Preprocessor(database, registry=registry),
            beam_size=BEAM,
        )
    return pipelines


def _batches(pool: list[dict], seed: int):
    """Endless batches of ``BATCH`` request indices, one database each,
    databases taking turns; order seeded."""
    rng = random.Random(f"offline-{seed}")
    by_database: dict[str, list[int]] = {}
    for i, record in enumerate(pool):
        by_database.setdefault(record["database_id"], []).append(i)
    groups = []
    for indices in by_database.values():
        rng.shuffle(indices)
        groups.append([
            indices[k:k + BATCH] for k in range(0, len(indices) - BATCH + 1, BATCH)
        ] or [indices])
    turns = [b for round_ in itertools.zip_longest(*groups) for b in round_ if b]
    return itertools.cycle(turns)


def _check_offline(pool, batch, results) -> int:
    failed = 0
    for i, result in zip(batch, results):
        ref = pool[i]["beam3"]
        rows = [list(r) for r in result.rows] if result.rows is not None else None
        if (
            result.sql != ref["sql"] or rows != ref["rows"]
            or (result.error is not None) != ref["error"]
        ):
            failed += 1
    return failed


def _run_offline(workload: Workload, fixture: Fixture, seed: int, seconds: float):
    pool = fixture.requests("small")
    setup = []
    for _ in range(3):
        start = time.perf_counter()
        pipelines = _build_pipelines(fixture)
        setup.append(time.perf_counter() - start)
    batches = _batches(pool, seed)

    def translate(batch):
        pipeline = pipelines[pool[batch[0]]["database_id"]]
        return pipeline.translate_batch(
            [pool[i]["question"] for i in batch], execute=True
        )

    stop = time.perf_counter() + WARMUP_S
    while time.perf_counter() < stop:
        translate(next(batches))

    done = []  # (batch, results, start, end)
    cpu_before = time.process_time()
    begin = time.perf_counter()
    while (start := time.perf_counter()) < begin + seconds:
        batch = next(batches)
        done.append((batch, translate(batch), start, time.perf_counter()))
    cpu_s = time.process_time() - cpu_before

    failed = 0
    questions = sum(len(batch) for batch, _, _, _ in done)
    # A batch's correct answers complete evenly over its interval, so a
    # batch straddling a slice boundary is pro-rated rather than dropped.
    completions = []
    for batch, results, start, end in done:
        bad = _check_offline(pool, batch, results)
        failed += bad
        good = len(batch) - bad
        completions += [start + (end - start) * (k + 1) / good for k in range(good)]
    batch_ms = [1000.0 * (end - start) for _, _, start, end in done]
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_rps": median_slice_rate(completions, begin, seconds),
        "cpu_ms_per_req": 1000.0 * cpu_s / questions,
        "latency_p50_ms": percentile(batch_ms, 0.50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "attempted": questions,
        "failed": failed,
        "batches": len(done),
        "batch_size": BATCH,
        "beam_size": BEAM,
        "latency_is": "wall time of one batch",
        "batch_latency_p95_ms": percentile(batch_ms, 0.95),
        "error_share": failed / questions,
        "exec_accuracy": sum(
            pool[i]["beam3"]["gold_ok"] for batch, _, _, _ in done for i in batch
        ) / questions,
    }
    return metrics, info


def _trace_offline(workload: Workload, fixture: Fixture, seed: int, seconds: float):
    pool = fixture.requests("small")
    metrics = {m.name: 0.0 for m in PER_LAYER}
    recorder = Recorder()
    install(recorder)
    try:
        start = time.perf_counter()
        traced = _build_pipelines(fixture)
        build_s = time.perf_counter() - start
        sets = {True: traced, False: _build_pipelines(fixture)}  # spans on / off
        batches = _batches(pool, seed)
        walls = {True: 0.0, False: 0.0}
        failed = questions = gold_ok = 0
        lookup_s = encdec_s = 0.0
        stop = time.perf_counter() + seconds
        for rid in itertools.count():
            if time.perf_counter() >= stop:
                break
            batch = next(batches)
            recorder.request_id = rid
            for spans_on in ((True, False) if rid % 2 else (False, True)):
                recorder.enabled = spans_on
                pipeline = sets[spans_on][pool[batch[0]]["database_id"]]
                start = time.perf_counter()
                results = pipeline.translate_batch(
                    [pool[i]["question"] for i in batch], execute=True
                )
                walls[spans_on] += time.perf_counter() - start
                if spans_on:
                    lookup_s += sum(r.timings.value_lookup for r in results)
                    encdec_s += sum(r.timings.encoder_decoder for r in results)
            failed += _check_offline(pool, batch, results)
            questions += len(batch)
            gold_ok += sum(pool[i]["beam3"]["gold_ok"] for i in batch)
        recorder.enabled = False
        # build_s: pipeline construction here is model load + index build
        metrics.update(_traced_metrics(
            workload, recorder, questions, lookup_s, encdec_s, walls, build_s,
            [pipeline.preprocessor for pipeline in traced.values()],
        ))
    finally:
        recorder.restore()
    metrics["pipeline.exec_accuracy"] = gold_ok / questions
    return metrics, {"attempted": questions, "failed": failed, "batches": rid}
