"""Tests for the TranslationService core: queueing, batching, caching,
deadlines, and degraded fallback.

A fake neural pipeline stands in for the trained model so the tests stay
fast and can script failures deterministically; the heuristic fallback
and the database underneath are the real things.
"""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import pytest

from repro.config import ModelConfig
from repro.db import Database
from repro.errors import ModelError, ReproError
from repro.metrics import MetricsRegistry
from repro.model import ValueNetModel, build_vocabulary
from repro.pipeline import STAGES, StageTimings, TranslationResult
from repro.policy import PolicyConfigStore, PolicyEngine, PolicyViolationError
from repro.serving import (
    CacheKey,
    DatabaseRuntime,
    QueueFullError,
    TranslationCache,
    TranslationService,
    UnknownDatabaseError,
)


class FakePipeline:
    """Scriptable stand-in for ValueNetPipeline."""

    # Read-only: the beam is an argument of each call, so a runtime that
    # assigns it (AttributeError) has gone back to mutating shared state.
    beam_size = property(lambda self: 1)

    def __init__(self, sql="SELECT count(*) FROM student", fail=False, delay=0.0):
        self.sql = sql
        self.fail = fail
        self.delay = delay
        self.calls = 0
        self.passed_beam: dict[str, int | None] = {}  # question -> beam_size=
        self.asked_to_execute = False
        self._lock = threading.Lock()

    def translate(self, question, *, execute=False, beam_size=None):
        with self._lock:
            self.calls += 1
            self.passed_beam[question] = beam_size
            self.asked_to_execute |= bool(execute)
        if self.fail:
            raise ModelError("scripted failure")
        time.sleep(self.delay)
        result = TranslationResult(question=question, timings=StageTimings(
            preprocessing=0.001, encoder_decoder=0.002, postprocessing=0.0005,
        ))
        result.sql = self.sql
        return result

    def translate_batch(self, questions, *, execute=False, beam_size=None):
        return [
            self.translate(question, execute=execute, beam_size=beam_size)
            for question in questions
        ]


@pytest.fixture
def heuristic_service(pets_db):
    service = TranslationService(
        [DatabaseRuntime(pets_db, database_id="pets")],
        workers=2, queue_size=32,
    ).start()
    yield service
    service.stop()


def make_model_service(pets_db, pipeline, **kwargs):
    runtime = DatabaseRuntime(pets_db, database_id="pets", pipeline=pipeline)
    return TranslationService([runtime], workers=2, **kwargs)


class TestBasicServing:
    def test_heuristic_primary_engine_not_degraded(self, heuristic_service):
        response = heuristic_service.translate("How many students are there?")
        assert response.ok, response.error
        assert response.engine == "heuristic"
        assert not response.degraded
        assert "COUNT" in response.sql

    def test_execute_returns_rows(self, heuristic_service):
        response = heuristic_service.translate(
            "How many students are there?", execute=True
        )
        assert response.rows == [(4,)]

    def test_database_id_optional_with_single_database(self, heuristic_service):
        response = heuristic_service.translate("How many students?")
        assert response.database_id == "pets"

    def test_unknown_database_rejected(self, heuristic_service):
        with pytest.raises(UnknownDatabaseError):
            heuristic_service.translate("q", "nope")

    def test_model_engine_used_when_present(self, pets_db):
        pipeline = FakePipeline()
        with make_model_service(pets_db, pipeline) as service:
            response = service.translate("How many students are there?")
            assert response.engine == "model"
            assert response.sql == pipeline.sql
            assert not response.degraded
            assert pipeline.calls == 1

    def test_per_request_beam_size_reaches_pipeline(self, pets_db):
        pipeline = FakePipeline()
        with make_model_service(pets_db, pipeline) as service:
            service.translate("How many students?", beam_size=4)
            service.translate("How many pets?")
        assert pipeline.passed_beam == {
            "How many students?": 4,
            "How many pets?": 1,  # the runtime's configured beam
        }
        with pytest.raises(AttributeError):
            pipeline.beam_size = 4  # what the runtime must never do

    def test_concurrent_calls_each_see_their_own_beam(self, pets_db):
        pipeline = FakePipeline(delay=0.001)
        runtime = DatabaseRuntime(pets_db, database_id="pets", pipeline=pipeline)

        def caller(beam: int) -> None:
            for i in range(25):
                runtime.translate(f"beam {beam} question {i}", beam_size=beam)

        threads = [threading.Thread(target=caller, args=(beam,)) for beam in (1, 3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(pipeline.passed_beam) == 50
        for question, beam in pipeline.passed_beam.items():
            assert question.startswith(f"beam {beam} ")

    def test_response_as_dict_contract(self, heuristic_service):
        payload = heuristic_service.translate("How many students?").as_dict()
        for field in (
            "question", "database_id", "sql", "error", "engine", "degraded",
            "degraded_reason", "cache_hit", "timings_ms", "queue_ms",
            "service_ms", "batch_size",
        ):
            assert field in payload
        # The record's non-stage fields (encode_batch) stay off the wire.
        assert set(payload["timings_ms"]) == set(STAGES)


class TestConcurrency:
    def test_many_concurrent_clients_zero_drops(self, heuristic_service):
        questions = [
            "How many students are there?",
            "List the name of all students.",
            "students from France",
            "pets heavier than 10",
        ]
        responses: list = [None] * 24
        errors: list = []

        def client(index: int):
            try:
                responses[index] = heuristic_service.translate(
                    questions[index % len(questions)]
                )
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(24)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert all(r is not None and r.sql is not None for r in responses)

    def test_queue_bound_enforced(self, pets_db):
        # Not started: nothing drains the queue, so the bound is hit.
        service = TranslationService(
            [DatabaseRuntime(pets_db, database_id="pets")],
            workers=1, queue_size=2,
        )
        service.submit("q1")
        service.submit("q2")
        with pytest.raises(QueueFullError):
            service.submit("q3")

    def test_batching_groups_compatible_requests(self, pets_db):
        # Enqueue before starting so one worker drains them as a batch.
        service = TranslationService(
            [DatabaseRuntime(pets_db, database_id="pets")],
            workers=1, queue_size=32, max_batch=4,
        )
        requests = [service.submit(f"students number {i}") for i in range(4)]
        service.start()
        for request in requests:
            assert request.done.wait(timeout=30)
        service.stop()
        sizes = {request.response.batch_size for request in requests}
        assert sizes == {4}

    def test_no_request_is_held_by_a_thread_that_is_not_serving_it(self, pets_db):
        # Two threads, two queued requests that cannot share a batch: the
        # thread that takes `slow` must leave `fast` in the queue for its
        # idle sibling, not carry it along behind a 300 ms translation.
        slow = DatabaseRuntime(
            pets_db, database_id="slow", pipeline=FakePipeline(delay=0.3)
        )
        fast = DatabaseRuntime(pets_db, database_id="fast", pipeline=FakePipeline())
        service = TranslationService([slow, fast], workers=2)
        slow_request = service.submit("How many students are there?", "slow")
        fast_request = service.submit("How many students are there?", "fast")
        started = time.monotonic()
        with service:
            assert fast_request.done.wait(timeout=30)
            fast_s = time.monotonic() - started
            assert not slow_request.done.is_set()
            assert slow_request.done.wait(timeout=30)
        assert fast_s < 0.15
        assert fast_request.response.ok and slow_request.response.ok

    def test_adopt_index_waits_for_the_batch_in_flight(self, pets_db):
        # The runtime lock's one job: a swap is atomic against a batch.
        entered, gate, swapped = (threading.Event() for _ in range(3))

        class ParkedPipeline(FakePipeline):
            def translate_batch(self, questions, **kwargs):
                entered.set()
                assert gate.wait(timeout=30)
                return super().translate_batch(questions, **kwargs)

        runtime = DatabaseRuntime(
            pets_db, database_id="pets", pipeline=ParkedPipeline()
        )
        bundle = SimpleNamespace(
            index=runtime.preprocessor.index, searcher=runtime.preprocessor.searcher
        )

        def swap() -> None:
            runtime.adopt_index(bundle)
            swapped.set()

        threads = [
            threading.Thread(target=runtime.translate, args=("How many students?",)),
            threading.Thread(target=swap),
        ]
        threads[0].start()
        assert entered.wait(timeout=30)
        threads[1].start()
        assert not swapped.wait(timeout=0.2)
        assert runtime.generation == 0
        gate.set()
        assert swapped.wait(timeout=30)
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert runtime.generation == 1


class TestOnDone:
    """``submit(on_done=)``: called once per resolved request, on the
    serving thread that resolved it (a cluster worker answers from it)."""

    def test_fires_exactly_once_on_every_path(self, pets_db, monkeypatch):
        pipeline = FakePipeline()
        calls: list = []
        with make_model_service(
            pets_db, pipeline, allow_failure_injection=True
        ) as service:
            def ask(question, **kwargs):
                request = service.submit(question, on_done=calls.append, **kwargs)
                assert request.done.wait(timeout=30)
                return request

            model = ask("How many students are there?")
            hit = ask("How many students are there?")
            fallback = ask("How many pets are there?", inject_failure=True)
            monkeypatch.setattr(
                service, "_process_batch_inner",
                lambda runtime, batch: 1 / 0,  # the internal-error shield's path
            )
            shielded = ask("students from France")
        assert [r.response.engine for r in (model, hit, fallback, shielded)] == [
            "model", "cache", "heuristic", "none",
        ]
        assert fallback.response.degraded_reason == "injected"
        assert "internal error" in shielded.response.error
        # The request itself, resolved, once each, in order.
        assert calls == [model, hit, fallback, shielded]

    def test_rejected_submit_raises_and_never_calls_back(self, pets_db):
        calls: list = []
        service = TranslationService(  # not started: the bound is hit
            [DatabaseRuntime(pets_db, database_id="pets")],
            workers=1, queue_size=1,
        )
        service.submit("q1", on_done=calls.append)
        with pytest.raises(QueueFullError):
            service.submit("q2", on_done=calls.append)
        with pytest.raises(UnknownDatabaseError):
            service.submit("q3", "nope", on_done=calls.append)
        assert calls == []

    def test_raising_callback_strands_nobody(self, pets_db):
        # One worker, one batch of four: the first request's callback
        # raises on the serving thread.
        service = TranslationService(
            [DatabaseRuntime(pets_db, database_id="pets")],
            workers=1, queue_size=32, max_batch=4,
        )
        done: list = []

        def explode(request):
            raise RuntimeError("callback bug")

        requests = [
            service.submit(
                f"students number {i}", on_done=explode if i == 0 else done.append
            )
            for i in range(4)
        ]
        with service:
            for request in requests:
                assert request.done.wait(timeout=30)
            assert {r.response.batch_size for r in requests} == {4}
            assert done == requests[1:]
            assert all(r.response.ok for r in requests)
            # The serving thread survived: it still answers.
            assert service.translate("How many students are there?").ok
            assert service.metrics.counter(
                "serving_internal_errors_total").value == 0


class TestCaching:
    def test_repeat_question_hits_cache(self, heuristic_service):
        first = heuristic_service.translate("How many students are there?")
        second = heuristic_service.translate("how many   students are there")
        assert not first.cache_hit
        assert second.cache_hit
        assert second.engine == "cache"
        assert second.sql == first.sql
        assert heuristic_service.cache.hits == 1

    def test_cache_hit_can_still_execute(self, heuristic_service):
        heuristic_service.translate("How many students are there?")
        response = heuristic_service.translate(
            "How many students are there?", execute=True
        )
        assert response.cache_hit
        assert response.rows == [(4,)]

    def test_model_results_cached_and_skip_model(self, pets_db):
        pipeline = FakePipeline()
        with make_model_service(pets_db, pipeline) as service:
            service.translate("How many students are there?")
            response = service.translate("How many students are there?")
            assert response.cache_hit
            assert pipeline.calls == 1

    def test_answer_straddling_an_index_swap_is_not_cached(
        self, pets_db, monkeypatch
    ):
        question = "How many students are there?"
        pipeline = FakePipeline()
        runtime = DatabaseRuntime(pets_db, database_id="pets", pipeline=pipeline)
        bundle = SimpleNamespace(
            index=runtime.preprocessor.index, searcher=runtime.preprocessor.searcher
        )
        check_sql = runtime.check_sql
        swaps: list[bool] = []
        with TranslationService([runtime], workers=1) as service:
            def swap_then_check(sql, **kwargs):
                # The answer tail: translate_batch has released the runtime
                # lock, the cache put is still to come.
                if not swaps:
                    swaps.append(service.on_index_swap("pets", bundle))
                return check_sql(sql, **kwargs)

            monkeypatch.setattr(runtime, "check_sql", swap_then_check)
            straddling = service.translate(question)
            after_swap = service.translate(question)
            repeat = service.translate(question)
        assert swaps == [True]
        assert straddling.ok and not straddling.cache_hit
        # The old bundle's SQL was put after the swap; no request of the
        # new generation may read it.
        assert after_swap.engine == "model" and not after_swap.cache_hit
        assert repeat.cache_hit
        assert pipeline.calls == 2

    def test_degraded_responses_not_cached(self, pets_db):
        pipeline = FakePipeline(fail=True)
        with make_model_service(pets_db, pipeline) as service:
            service.translate("How many students are there?")
            response = service.translate("How many students are there?")
            assert not response.cache_hit
            assert pipeline.calls == 2


class TestDegradation:
    def test_model_failure_falls_back_to_heuristic(self, pets_db):
        pipeline = FakePipeline(fail=True)
        with make_model_service(pets_db, pipeline) as service:
            response = service.translate("How many students are there?")
            assert response.degraded
            assert response.degraded_reason == "model_error"
            assert response.engine == "heuristic"
            assert response.sql is not None  # fallback still answered
            counters = service.metrics.snapshot()
            assert counters["serving_responses_degraded_total"] == 1

    def test_deadline_breach_skips_model(self, pets_db):
        pipeline = FakePipeline()
        with make_model_service(pets_db, pipeline) as service:
            response = service.translate(
                "How many students are there?", timeout_ms=0.0
            )
            assert response.degraded
            assert response.degraded_reason == "deadline"
            assert response.engine == "heuristic"
            assert pipeline.calls == 0

    def test_injected_failure_requires_opt_in(self, pets_db):
        pipeline = FakePipeline()
        with make_model_service(pets_db, pipeline) as service:
            response = service.translate("How many students?", inject_failure=True)
            assert not response.degraded  # flag ignored without opt-in

    def test_injected_failure_degrades_when_allowed(self, pets_db):
        pipeline = FakePipeline()
        with make_model_service(
            pets_db, pipeline, allow_failure_injection=True
        ) as service:
            response = service.translate("How many students?", inject_failure=True)
            assert response.degraded
            assert response.degraded_reason == "injected"
            assert response.engine == "heuristic"
            assert pipeline.calls == 0


class TestMetricsIntegration:
    def test_stage_histograms_follow_stage_timings(self, pets_db):
        pipeline = FakePipeline()
        with make_model_service(pets_db, pipeline) as service:
            service.translate("How many students are there?")
            snap = service.metrics.snapshot()
            # The fake pipeline reports fixed per-stage times; the stage
            # histograms must mirror StageTimings' non-zero stages.
            assert snap["serving_stage_encoder_decoder_seconds"]["count"] == 1
            assert snap["serving_stage_preprocessing_seconds"]["count"] == 1
            assert snap["serving_stage_execution_seconds"]["count"] == 0
            assert snap["serving_latency_seconds"]["count"] == 1
            assert snap["serving_requests_total"] == 1

    def test_one_encode_observation_per_model_batch(self, pets_db):
        questions = [f"How many students are older than {n}?" for n in (19, 20, 21)]
        vocab = build_vocabulary(questions, [pets_db.schema], [], vocab_size=300)
        model = ValueNetModel(vocab, ModelConfig(
            dim=32, num_layers=1, num_heads=2, ff_dim=48, summary_hidden=16,
            decoder_hidden=32, pointer_hidden=24, dropout=0.0, word_dropout=0.0,
        ))
        service = TranslationService(
            [DatabaseRuntime(pets_db, model, database_id="pets")],
            workers=1, max_batch=4,
        )

        def encodes() -> int:
            return service.metrics.snapshot()["serving_encode_batch_seconds"]["count"]

        # Queued before start: one batch of three, one fused encode.
        requests = [service.submit(question) for question in questions]
        with service:
            for request in requests:
                assert request.done.wait(timeout=30)
            assert {r.response.batch_size for r in requests} == {3}
            assert encodes() == 1
            single = service.translate("How many pets are there?")
            assert single.batch_size == 1 and encodes() == 2
            # A hit replays a record that carries its encode; it ran none.
            service.cache.put(
                CacheKey.make("pets", "students from France", 1, "sqlite", 0),
                TranslationResult(
                    "students from France", "SELECT name FROM student",
                    timings=StageTimings(encode_batch=0.5),
                ),
            )
            assert service.translate("students from France").cache_hit
            assert encodes() == 2

            def no_preprocessing(question, timings=None):
                raise ReproError("scripted preprocessing failure")

            service.runtimes["pets"].pipeline.preprocessor = SimpleNamespace(
                run=no_preprocessing
            )
            failed = service.translate("How many students are there?")
            assert failed.degraded_reason == "model_error"
            assert failed.engine == "heuristic"
            assert encodes() == 2

    def test_cache_counters(self, heuristic_service):
        heuristic_service.translate("How many students?")
        heuristic_service.translate("How many students?")
        snap = heuristic_service.metrics.snapshot()
        assert snap["serving_cache_hits_total"] == 1
        assert snap["serving_cache_misses_total"] == 1
        # No model, no fused encode: neither the miss nor the hit observes one.
        assert snap["serving_encode_batch_seconds"]["count"] == 0

    def test_health_payload(self, heuristic_service):
        health = heuristic_service.health()
        assert health["status"] == "ok"
        assert health["databases"] == ["pets"]
        assert health["queue_capacity"] == 32
        assert "cache" in health


class TestCustomCache:
    def test_ttl_zero_effectively_disables_reuse(self, pets_db):
        service = TranslationService(
            [DatabaseRuntime(pets_db, database_id="pets")],
            workers=1, cache=TranslationCache(capacity=4, ttl_s=0.0),
        ).start()
        try:
            service.translate("How many students?")
            response = service.translate("How many students?")
            assert not response.cache_hit
        finally:
            service.stop()


QUESTION = "How many students are there?"


class GatedService:
    """A real service over one pets runtime with a policy engine, plus
    spies on the two things the gate owns: what reaches
    ``Database.execute`` and every ``PolicyEngine.check_sql`` call."""

    def __init__(self, pets_db, monkeypatch, config, *, pipeline=None,
                 database_id="pets"):
        self.metrics = MetricsRegistry()
        engine = PolicyEngine(
            PolicyConfigStore.from_dict({"version": 1, **config}),
            metrics=self.metrics,
        )
        self.runtime = DatabaseRuntime(
            pets_db, database_id=database_id, pipeline=pipeline, policy=engine
        )
        self.executed: list[str] = []
        self.checks: list[tuple] = []
        real_execute, real_check = Database.execute, PolicyEngine.check_sql

        def spy_execute(db, sql, *args, **kwargs):
            self.executed.append(sql)
            return real_execute(db, sql, *args, **kwargs)

        def spy_check(policy, sql, **kwargs):
            self.checks.append(
                (sql, kwargs.get("database_id"), kwargs.get("tenant_id"))
            )
            return real_check(policy, sql, **kwargs)

        monkeypatch.setattr(Database, "execute", spy_execute)
        monkeypatch.setattr(PolicyEngine, "check_sql", spy_check)
        self.service = TranslationService(
            [self.runtime], workers=1, metrics=self.metrics
        )

    def blocked_counts(self) -> dict:
        return {
            key: value for key, value in self.metrics.snapshot().items()
            if key.startswith("policy_blocked_total{")
        }


def pipeline_for(kind: str, sql="SELECT count(*) FROM student"):
    return {"model": FakePipeline(sql), "heuristic": None}[kind]


class TestSqlGate:
    """One gate, owned by the runtime: every answer is policy-checked
    once, with the requester's tenant, before it is executed or returned."""

    ACME_LOCKED = {"tenants": {"acme": {"max_tables": 0}}}

    @pytest.mark.parametrize(
        "path", ["model", "heuristic", "model_failed", "cache_hit"]
    )
    def test_tenant_blocked_sql_never_reaches_the_database(
        self, pets_db, monkeypatch, path
    ):
        pipeline = {
            "model": FakePipeline(),
            "model_failed": FakePipeline(fail=True),  # degraded -> fallback
            "heuristic": None,
            "cache_hit": None,
        }[path]
        gated = GatedService(pets_db, monkeypatch, self.ACME_LOCKED, pipeline=pipeline)
        with gated.service as service:
            if path == "cache_hit":  # an unrestricted tenant fills the cache
                assert service.translate(QUESTION).ok
            response = service.translate(QUESTION, execute=True, tenant_id="acme")
        assert response.cache_hit == (path == "cache_hit")
        assert response.policy["rule_id"] == "max-tables"
        assert response.rows is None
        assert response.sql is not None
        assert response.sql not in gated.executed
        assert not any("student" in sql.lower() for sql in gated.executed)
        if pipeline is not None:
            assert not pipeline.asked_to_execute

    @pytest.mark.parametrize("execute", [False, True])
    @pytest.mark.parametrize("kind", ["model", "heuristic"])
    def test_exactly_one_check_per_served_request(
        self, pets_db, monkeypatch, kind, execute
    ):
        gated = GatedService(
            pets_db, monkeypatch, {"default": {"read_only": True}},
            pipeline=pipeline_for(kind), database_id="prod",
        )
        with gated.service as service:
            miss = service.translate(QUESTION, execute=execute, tenant_id="acme")
            assert gated.checks == [(miss.sql, "prod", "acme")]
            hit = service.translate(QUESTION, execute=execute, tenant_id="zeta")
            assert gated.checks[1:] == [(miss.sql, "prod", "zeta")]
        assert miss.ok and hit.ok and hit.cache_hit and not miss.cache_hit
        assert (miss.rows, hit.rows) == (([(4,)],) * 2 if execute else (None, None))
        assert gated.executed.count(miss.sql) == (2 if execute else 0)
        # Whoever executes records the stage: once for the miss (cached
        # timings describe work that did not run, so hits never observe).
        snap = gated.metrics.snapshot()
        assert snap["serving_stage_execution_seconds"]["count"] == int(execute)
        assert (miss.timings["execution"] > 0.0) == execute

    @pytest.mark.parametrize("kind", ["model", "heuristic"])
    def test_block_is_the_same_answer_executed_or_not(
        self, pets_db, monkeypatch, kind
    ):
        gated = GatedService(
            pets_db, monkeypatch, {"default": {"require_limit": 1}},
            pipeline=pipeline_for(kind, "SELECT name FROM student"),
        )
        answers = []
        with gated.service as service:
            for count, execute in enumerate([False, True], start=1):
                response = service.translate(
                    "List the name of all students.",
                    execute=execute, tenant_id="acme",
                )
                answers.append((
                    response.policy_blocked, response.engine,
                    response.policy["rule_id"], response.degraded, response.rows,
                ))
                # Counted once, under the requester's label only.
                assert gated.blocked_counts() == {
                    'policy_blocked_total{tenant="acme"}': count
                }
        assert answers[0] == answers[1] == (True, kind, "limit-required", False, None)
        assert gated.executed == []

    def test_database_override_resolves_by_routing_id(self, pets_db, monkeypatch):
        # Routed as "prod" over a schema named "pets": the override is
        # keyed by the routing id at both entries of the gate.
        assert pets_db.schema.name == "pets"
        gated = GatedService(
            pets_db, monkeypatch, {"databases": {"prod": {"max_tables": 0}}},
            database_id="prod",
        )
        sql = "SELECT count(*) FROM student"
        with pytest.raises(PolicyViolationError):
            gated.runtime.execute_sql(sql)
        with pytest.raises(PolicyViolationError):
            gated.runtime.check_sql(sql, tenant_id="acme")
        assert gated.runtime.translate_fallback(QUESTION, execute=True).rows is None
        assert gated.executed == []
        with gated.service as service:
            assert service.translate(QUESTION).policy["rule_id"] == "max-tables"

    @pytest.mark.parametrize(
        "model_sql",
        ["SELECT nope FROM student", "SELECT 1; DROP TABLE student"],
        ids=["unknown-column", "multi-statement"],
    )
    def test_model_sql_that_fails_to_execute_degrades_to_heuristic(
        self, pets_db, monkeypatch, model_sql
    ):
        # The gate allows it, SQLite (or the executor's unconditional
        # multi-statement rejection) does not: model_error, not a block.
        permissive = {"default": {"disabled_rules": [
            "multi-statement", "read-only", "blocked-keyword",
        ]}}
        gated = GatedService(
            pets_db, monkeypatch, permissive, pipeline=FakePipeline(model_sql)
        )
        with gated.service as service:
            response = service.translate(QUESTION, execute=True, tenant_id="acme")
        assert response.degraded and response.degraded_reason == "model_error"
        assert response.engine == "heuristic"
        assert not response.policy_blocked
        assert response.rows == [(4,)]
        assert not any("DROP" in sql for sql in gated.executed)
        assert len(pets_db.execute("SELECT name FROM student")) == 4
        assert gated.metrics.snapshot()["serving_execution_errors_total"] == 1
