"""HTTP front-end tests: endpoints, status codes, and the JSON contract."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.metrics import MetricsRegistry
from repro.serving import (
    DatabaseRuntime,
    QueueFullError,
    ServeResponse,
    ServingRequestHandler,
    ServingServer,
    TranslationService,
    UnknownDatabaseError,
)
from repro.serving.routes import MAX_BEAM_SIZE
from repro.tenancy.controller import (
    AuthenticationError,
    QuotaExceededError,
    RateLimitedError,
)


@pytest.fixture
def server(pets_db):
    service = TranslationService(
        [DatabaseRuntime(pets_db, database_id="pets")], workers=2
    ).start()
    server = ServingServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    service.stop()


def get(url: str):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, response.read().decode("utf-8")


def post_json(url: str, payload: dict):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


class TestHealthz:
    def test_ok(self, server):
        status, body = get(server.url + "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["databases"] == ["pets"]


class TestMetrics:
    def test_prometheus_text(self, server):
        post_json(server.url + "/translate", {"question": "How many students?"})
        status, body = get(server.url + "/metrics")
        assert status == 200
        assert "# TYPE serving_requests_total counter" in body
        assert "serving_latency_seconds_bucket" in body

    def test_json_format(self, server):
        status, body = get(server.url + "/metrics?format=json")
        assert status == 200
        snapshot = json.loads(body)
        assert "serving_requests_total" in snapshot


class TestTranslate:
    def test_round_trip_with_execution(self, server):
        status, payload = post_json(server.url + "/translate", {
            "question": "How many students are there?",
            "database_id": "pets",
            "execute": True,
        })
        assert status == 200
        assert payload["sql"] is not None
        assert payload["error"] is None
        assert payload["rows"] == [[4]]
        assert payload["engine"] == "heuristic"
        assert payload["timings_ms"]["preprocessing"] >= 0

    def test_missing_question_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(server.url + "/translate", {"nope": 1})
        assert excinfo.value.code == 400

    def test_invalid_json_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/translate",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_unknown_database_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(server.url + "/translate", {
                "question": "q", "database_id": "missing",
            })
        assert excinfo.value.code == 404

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server.url + "/nope")
        assert excinfo.value.code == 404

    def test_concurrent_http_clients(self, server):
        results: list = [None] * 8
        errors: list = []

        def client(index: int):
            try:
                results[index] = post_json(server.url + "/translate", {
                    "question": f"How many students {index}?",
                })
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert all(status == 200 for status, _ in results)
        assert all(payload["sql"] for _, payload in results)


class TestReadinessSplit:
    """Liveness vs readiness: /livez is process-up, /readyz gates traffic."""

    def test_livez_always_200(self, server):
        status, body = get(server.url + "/livez")
        assert status == 200
        assert json.loads(body) == {"live": True}

    def test_readyz_200_when_ready(self, server):
        status, body = get(server.url + "/readyz")
        assert status == 200
        assert json.loads(body) == {"ready": True}

    def test_healthz_reports_ready_flag(self, server):
        _, body = get(server.url + "/healthz")
        assert json.loads(body)["ready"] is True


class TestWarmupServer:
    """A server bound before its service exists: live, not ready, shedding."""

    @pytest.fixture
    def cold_server(self, pets_db):
        server = ServingServer(("127.0.0.1", 0), None)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        service = TranslationService(
            [DatabaseRuntime(pets_db, database_id="pets")], workers=2,
        ).start()
        yield server, service
        server.shutdown()
        server.server_close()
        service.stop()

    def test_unattached_server_is_live_but_not_ready(self, cold_server):
        server, _ = cold_server
        status, _ = get(server.url + "/livez")
        assert status == 200
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server.url + "/readyz")
        assert excinfo.value.code == 503
        assert json.loads(excinfo.value.read())["retriable"] is True
        # /healthz stays 200 (detail in the body) so dashboards can poll it.
        status, body = get(server.url + "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "starting"

    def test_unattached_server_sheds_translate(self, cold_server):
        server, _ = cold_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(server.url + "/translate", {"question": "hi"})
        assert excinfo.value.code == 503
        assert json.loads(excinfo.value.read())["retriable"] is True

    def test_attached_but_draining_service_not_ready(self, cold_server):
        server, service = cold_server
        server.attach(service)
        assert service.drain(timeout=1.0)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server.url + "/readyz")
        assert excinfo.value.code == 503
        assert json.loads(excinfo.value.read())["reason"] == "service is not ready"

    def test_attach_flips_readyz(self, cold_server):
        server, service = cold_server
        server.attach(service)
        status, body = get(server.url + "/readyz")
        assert status == 200
        assert json.loads(body) == {"ready": True}
        # And translate traffic flows normally once attached + ready.
        status, payload = post_json(server.url + "/translate", {
            "question": "How many students are there?", "execute": True,
        })
        assert status == 200
        assert payload["rows"] == [[4]]


# Every route and status the front door can answer, against a
# deterministic fake service (admission outcomes need scripted tenants).

GOOD_KEY = "tenant-key-good"
ADMIN_KEY = "tenant-key-admin"
LIMITED_KEY = "tenant-key-limited"
CAPPED_KEY = "tenant-key-capped"
ACME = SimpleNamespace(tenant_id="acme", weight=1)


class FakeTenancy:
    """Deterministic admission control: outcomes keyed by API key."""

    def is_admin(self, key):
        return key == ADMIN_KEY

    def authenticate(self, key):
        if key == GOOD_KEY:
            return ACME
        raise AuthenticationError("unknown or disabled API key")

    def admit(self, key):
        if key == LIMITED_KEY:
            raise RateLimitedError("tenant 'limited' over rate", 2.5)
        if key == CAPPED_KEY:
            raise QuotaExceededError("tenant 'capped' quota spent", 600.0)
        return self.authenticate(key)

    def overview(self):
        return {"version": 1, "tenants": [{"id": "acme", "class": "gold"}]}

    def usage(self, tenant_id):
        return {"id": "acme", "requests_today": 3} if tenant_id == "acme" else None


class FakeService:
    """Pinned-response stand-in with the duck-typed service surface."""

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.tenancy = FakeTenancy()

    def is_ready(self):
        return True

    def health(self):
        return {"status": "ok", "ready": True, "databases": ["pets"]}

    def translate(self, question, database_id=None, **kwargs):
        if database_id == "missing":
            raise UnknownDatabaseError("unknown database 'missing'")
        if question == "overload":
            raise QueueFullError("queue full (64 deep)")
        if question == "badparam":
            raise ValueError("beam_size must be positive")
        response = ServeResponse(question=question, database_id="pets")
        response.engine = "heuristic"
        if question == "blocked":
            response.policy = {"rule_id": "blocked-keyword", "violations": ["x"]}
        else:
            response.sql = "SELECT count(*) FROM pets"
        return response


@pytest.fixture(scope="module")
def fake_server():
    server = ServingServer(("127.0.0.1", 0), FakeService())
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield server
    server.shutdown()
    server.server_close()


def _request(server, method, path, *, body=None, key=None):
    headers = {"Authorization": f"Bearer {key}"} if key else {}
    conn = http.client.HTTPConnection(*server.server_address[:2], timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


DATABASE_ID_ERROR = "bad request parameters: database_id must be a string or null"
DIALECT_ERROR = "bad request parameters: dialect is not accepted: sql is always SQLite"


class TestRouteMatrix:
    @pytest.mark.parametrize("path, key, status, expect", [
        pytest.param("/livez", None, 200, {"live": True}, id="livez"),
        pytest.param("/readyz", None, 200, {"ready": True}, id="readyz"),
        pytest.param("/healthz", None, 200, {"databases": ["pets"]}, id="healthz"),
        pytest.param("/metrics?format=json", None, 200, {}, id="metrics_json"),
        pytest.param("/nope", None, 404, {}, id="unknown_path"),
        pytest.param("/tenants", None, 401, {}, id="tenants_requires_key"),
        pytest.param("/tenants", GOOD_KEY, 403, {}, id="tenants_non_admin_forbidden"),
        pytest.param("/tenants", ADMIN_KEY, 200, {"version": 1}, id="tenants_admin"),
        pytest.param("/tenants/acme/usage", GOOD_KEY, 200,
                     {"requests_today": 3}, id="tenant_usage"),
        pytest.param("/tenants/ghost/usage", ADMIN_KEY, 404, {},
                     id="tenant_usage_unknown"),
    ])
    def test_get(self, fake_server, path, key, status, expect):
        got_status, body = _request(fake_server, "GET", path, key=key)
        assert got_status == status
        payload = json.loads(body)
        assert expect.items() <= payload.items()
        if status >= 400:
            assert payload["error"]

    def test_get_metrics_text(self, fake_server):
        status, body = _request(fake_server, "GET", "/metrics")
        assert status == 200
        with pytest.raises(ValueError):
            json.loads(body)  # Prometheus text, not JSON

    @pytest.mark.parametrize("payload, key, status, expect", [
        pytest.param({"question": "How many pets?", "database_id": "pets"},
                     GOOD_KEY, 200, {"sql": "SELECT count(*) FROM pets"},
                     id="success"),
        pytest.param({"question": "blocked"}, GOOD_KEY, 403,
                     {"reason": "policy", "rule_id": "blocked-keyword"},
                     id="policy_block_403"),
        pytest.param({"question": "q", "database_id": "missing"},
                     GOOD_KEY, 404, {}, id="unknown_database_404"),
        pytest.param({"question": "overload"}, GOOD_KEY, 503,
                     {"retriable": True}, id="queue_full_503"),
        pytest.param({"question": "badparam"}, GOOD_KEY, 400, {},
                     id="bad_params_400"),
        pytest.param({"database_id": "pets"}, GOOD_KEY, 400, {},
                     id="missing_question_400"),
        pytest.param(b"{not json", GOOD_KEY, 400, {}, id="invalid_json_400"),
        pytest.param(b"", GOOD_KEY, 400, {}, id="empty_body_400"),
        pytest.param({"question": "q"}, None, 401, {"reason": "auth"},
                     id="missing_key_401"),
        pytest.param({"question": "q"}, LIMITED_KEY, 429,
                     {"reason": "rate_limited"}, id="rate_limited_429"),
        pytest.param({"question": "q"}, CAPPED_KEY, 429, {"reason": "quota"},
                     id="quota_429"),
        pytest.param({"question": "x" * (70 * 1024)}, GOOD_KEY, 413, {},
                     id="oversized_body_413"),
        pytest.param({"question": "How many pets?", "beam_size": MAX_BEAM_SIZE,
                      "execute": True, "timeout_ms": 0, "inject_failure": False},
                     GOOD_KEY, 200, {}, id="every_param_valid"),
        pytest.param({"question": "How many pets?", "beam_size": None,
                      "timeout_ms": None}, GOOD_KEY, 200, {},
                     id="null_params_are_defaults"),
        pytest.param(b'{"question": "q", "beam_size": 1e400}', GOOD_KEY, 400, {},
                     id="beam_size_infinite_400"),
        pytest.param({"question": "q", "beam_size": 0}, GOOD_KEY, 400, {},
                     id="beam_size_zero_400"),
        pytest.param({"question": "q", "beam_size": -3}, GOOD_KEY, 400, {},
                     id="beam_size_negative_400"),
        pytest.param({"question": "q", "beam_size": MAX_BEAM_SIZE + 1}, GOOD_KEY,
                     400, {}, id="beam_size_over_max_400"),
        pytest.param({"question": "q", "beam_size": 30000}, GOOD_KEY, 400, {},
                     id="beam_size_huge_400"),
        pytest.param({"question": "q", "beam_size": True}, GOOD_KEY, 400, {},
                     id="beam_size_bool_400"),
        pytest.param({"question": "q", "beam_size": 2.0}, GOOD_KEY, 400, {},
                     id="beam_size_float_400"),
        pytest.param({"question": "q", "beam_size": "2"}, GOOD_KEY, 400, {},
                     id="beam_size_string_400"),
        pytest.param({"question": "q", "execute": "false"}, GOOD_KEY, 400, {},
                     id="execute_string_400"),
        pytest.param({"question": "q", "execute": None}, GOOD_KEY, 400, {},
                     id="execute_null_400"),
        pytest.param({"question": "q", "inject_failure": 1}, GOOD_KEY, 400, {},
                     id="inject_failure_int_400"),
        pytest.param({"question": "q", "timeout_ms": -1}, GOOD_KEY, 400, {},
                     id="timeout_negative_400"),
        pytest.param({"question": "q", "timeout_ms": "100"}, GOOD_KEY, 400, {},
                     id="timeout_string_400"),
        pytest.param({"question": "q", "timeout_ms": False}, GOOD_KEY, 400, {},
                     id="timeout_bool_400"),
        pytest.param(b'{"question": "q", "timeout_ms": 1e400}', GOOD_KEY, 400, {},
                     id="timeout_infinite_400"),
        pytest.param(b'{"question": "q", "timeout_ms": NaN}', GOOD_KEY, 400, {},
                     id="timeout_nan_400"),
        pytest.param(b'{"question": "q", "timeout_ms": 1' + b"0" * 400 + b"}",
                     GOOD_KEY, 400, {}, id="timeout_int_overflows_float_400"),
        pytest.param({"question": "q", "beam_size": 0}, None, 400, {},
                     id="bad_params_checked_before_admission_400"),
        pytest.param({"question": "q", "database_id": ["pets"]}, GOOD_KEY, 400,
                     {"error": DATABASE_ID_ERROR}, id="database_id_list_400"),
        pytest.param({"question": "q", "database_id": 5}, GOOD_KEY, 400,
                     {"error": DATABASE_ID_ERROR}, id="database_id_int_400"),
        pytest.param({"question": "q", "database_id": ["pets"]}, None, 400,
                     {"error": DATABASE_ID_ERROR},
                     id="database_id_checked_before_admission_400"),
        pytest.param({"question": "q", "dialect": "sqlite"}, GOOD_KEY, 400,
                     {"error": DIALECT_ERROR}, id="dialect_field_400"),
        pytest.param({"question": "q", "dialect": "sqlite"}, None, 400,
                     {"error": DIALECT_ERROR},
                     id="dialect_checked_before_admission_400"),
    ])
    def test_translate(self, fake_server, payload, key, status, expect):
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        got_status, out = _request(
            fake_server, "POST", "/translate", body=body, key=key
        )
        assert got_status == status
        answer = json.loads(out)
        assert expect.items() <= answer.items()
        if status == 400:
            assert answer["error"]

    def test_post_unknown_path_404(self, fake_server):
        status, _ = _request(fake_server, "POST", "/nope", body=b"{}")
        assert status == 404


# What an HTTP library never sends: split packets, a malformed request
# line, a lying Content-Length, a connection that goes silent.


@pytest.fixture
def raw(fake_server):
    with socket.create_connection(fake_server.server_address[:2], timeout=10) as sock:
        yield sock


def _read_response(sock: socket.socket):
    """Read exactly one HTTP/1.1 response off a raw socket."""
    response = http.client.HTTPResponse(sock)
    response.begin()
    return response.status, response.headers, response.read()


def _raw_post(payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    return (
        f"POST /translate HTTP/1.1\r\nHost: t\r\nX-API-Key: {GOOD_KEY}\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def _assert_closed(sock: socket.socket) -> None:
    try:
        while sock.recv(4096):  # a timeout here = the server kept it open
            pass
    except ConnectionResetError:
        pass


class TestWireEdges:
    def test_keep_alive_reuses_one_connection(self, raw):
        for _ in range(3):
            raw.sendall(_raw_post({"question": "hi"}))
            status, headers, body = _read_response(raw)
            assert status == 200
            assert headers["Connection"] is None
            assert json.loads(body)["sql"] == "SELECT count(*) FROM pets"

    def test_request_split_across_packets(self, raw):
        whole = _raw_post({"question": "dribbled"})
        for i in range(0, len(whole), 7):
            raw.sendall(whole[i:i + 7])
            time.sleep(0.005)
        status, _, body = _read_response(raw)
        assert status == 200
        assert json.loads(body)["question"] == "dribbled"

    def test_malformed_request_line_400_and_close(self, raw):
        raw.sendall(b"NONSENSE\r\nHost: t\r\n\r\n")  # no version
        status, headers, _ = _read_response(raw)
        assert status == 400
        assert headers["Connection"] == "close"
        _assert_closed(raw)

    def test_oversized_content_length_413_before_body(self, raw):
        # Announce a 10 MiB body but send none: the server must refuse
        # from the header alone, not wait for the body.
        raw.sendall(
            b"POST /translate HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 10485760\r\n\r\n"
        )
        status, headers, body = _read_response(raw)
        assert status == 413
        assert b"64 KiB" in body
        assert headers["Connection"] == "close"
        _assert_closed(raw)

    def test_bad_content_length_400_and_close(self, raw):
        raw.sendall(
            b"POST /translate HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: banana\r\n\r\n"
        )
        status, _, body = _read_response(raw)
        assert status == 400
        assert json.loads(body)["error"] == "bad Content-Length"
        _assert_closed(raw)

    def test_stalled_connection_is_dropped_not_pinned(self, monkeypatch):
        # ``timeout`` is the idle deadline on every socket read; shrink
        # it so the test does not wait 75 s.
        assert ServingRequestHandler.timeout == 75
        monkeypatch.setattr(ServingRequestHandler, "timeout", 0.3)
        server = ServingServer(("127.0.0.1", 0), FakeService())
        threading.Thread(target=server.serve_forever, daemon=True).start()
        address = server.server_address[:2]
        try:
            with socket.create_connection(address, timeout=10) as silent, \
                    socket.create_connection(address, timeout=10) as half:
                half.sendall(b"POST /translate HTTP/1.1\r\nHost: t\r\n")
                start = time.monotonic()
                _assert_closed(silent)  # connected, never sent a byte
                _assert_closed(half)    # started a request, never finished
                assert time.monotonic() - start < 5.0
            # The server is still healthy for a well-behaved client.
            status, body = _request(server, "GET", "/livez")
            assert (status, json.loads(body)) == (200, {"live": True})
        finally:
            server.shutdown()
            server.server_close()
