"""HTTP contract of the multi-tenant front door.

Covers the status codes and headers the tenancy subsystem promises:
401 (missing/unknown key, WWW-Authenticate), 429 with Retry-After for
both rate and quota rejections (distinguished by ``reason``), the
``/tenants`` admin listing, per-tenant ``/tenants/<id>/usage``, and the
tenant-labeled series on ``/metrics``.  Also locks that a server
*without* a controller keeps serving anonymously, unchanged.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.metrics import MetricsRegistry
from repro.serving import DatabaseRuntime, ServingServer, TranslationService
from repro.tenancy import QuotaLedger, TenancyController, TenantRegistry

ACME_KEY = "acme-secret-key-0001"
BURSTY_KEY = "bursty-secret-key-01"
CAPPED_KEY = "capped-secret-key-01"
ADMIN_KEY = "ops-admin-key-000001"

TENANTS = {
    "version": 7,
    "admin_keys": [ADMIN_KEY],
    "tenants": [
        # Effectively unlimited: the happy-path tenant.
        {"id": "acme", "api_key": ACME_KEY, "class": "gold",
         "rate": 10_000, "burst": 10_000},
        # One-request burst: the second immediate request is rate limited.
        {"id": "bursty", "api_key": BURSTY_KEY, "rate": 0.001, "burst": 1},
        # Two requests per day, generous rate: exercises the quota path.
        {"id": "capped", "api_key": CAPPED_KEY, "rate": 10_000,
         "burst": 10_000, "daily_quota": 2},
    ],
}


@pytest.fixture
def tenant_server(pets_db, tmp_path):
    config = tmp_path / "tenants.json"
    config.write_text(json.dumps(TENANTS))
    metrics = MetricsRegistry()
    tenancy = TenancyController(
        TenantRegistry.from_file(config),
        ledger=QuotaLedger(tmp_path / "quota.json"),
        metrics=metrics,
    )
    service = TranslationService(
        [DatabaseRuntime(pets_db, database_id="pets")],
        workers=2,
        per_tenant_depth=32,
        metrics=metrics,
        tenancy=tenancy,
    ).start()
    server = ServingServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    service.stop()
    tenancy.close()


def get(url: str, *, api_key: str | None = None):
    headers = {"Authorization": f"Bearer {api_key}"} if api_key else {}
    request = urllib.request.Request(url, headers=headers)
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def post_translate(url: str, *, api_key: str | None = None,
                   key_header: str | None = None):
    headers = {"Content-Type": "application/json"}
    if api_key is not None:
        headers["Authorization"] = f"Bearer {api_key}"
    if key_header is not None:
        headers["X-API-Key"] = key_header
    request = urllib.request.Request(
        url + "/translate",
        data=json.dumps({"question": "How many students are there?"}).encode(),
        headers=headers,
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def http_error(excinfo) -> tuple[int, dict, dict]:
    """(status, body, headers) from a pytest.raises(HTTPError) context."""
    error = excinfo.value
    return error.code, json.loads(error.read()), dict(error.headers)


class TestTranslateAuth:
    def test_valid_key_serves_and_tags_tenant(self, tenant_server):
        status, payload = post_translate(tenant_server.url, api_key=ACME_KEY)
        assert status == 200
        assert payload["sql"]
        assert payload["tenant_id"] == "acme"

    def test_x_api_key_header_also_accepted(self, tenant_server):
        status, payload = post_translate(
            tenant_server.url, key_header=ACME_KEY
        )
        assert status == 200
        assert payload["tenant_id"] == "acme"

    def test_missing_key_is_401(self, tenant_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_translate(tenant_server.url)
        status, body, headers = http_error(excinfo)
        assert status == 401
        assert body["reason"] == "auth"
        assert headers.get("WWW-Authenticate") == "Bearer"

    def test_unknown_key_is_401(self, tenant_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_translate(tenant_server.url, api_key="who-is-this-key")
        status, body, _ = http_error(excinfo)
        assert status == 401
        assert body["reason"] == "auth"

    def test_rate_limit_is_429_with_retry_after(self, tenant_server):
        status, _ = post_translate(tenant_server.url, api_key=BURSTY_KEY)
        assert status == 200
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_translate(tenant_server.url, api_key=BURSTY_KEY)
        status, body, headers = http_error(excinfo)
        assert status == 429
        assert body["reason"] == "rate_limited"
        assert body["retriable"] is True
        assert int(headers["Retry-After"]) >= 1

    def test_quota_is_429_not_retriable_today(self, tenant_server):
        for _ in range(2):
            status, _ = post_translate(tenant_server.url, api_key=CAPPED_KEY)
            assert status == 200
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_translate(tenant_server.url, api_key=CAPPED_KEY)
        status, body, headers = http_error(excinfo)
        assert status == 429
        assert body["reason"] == "quota"
        assert body["retriable"] is False
        assert int(headers["Retry-After"]) >= 1


class TestTenantsEndpoints:
    def test_admin_lists_all_tenants(self, tenant_server):
        post_translate(tenant_server.url, api_key=ACME_KEY)
        status, body = get(tenant_server.url + "/tenants", api_key=ADMIN_KEY)
        assert status == 200
        assert body["config_version"] == 7
        by_id = {entry["id"]: entry for entry in body["tenants"]}
        assert set(by_id) == {"acme", "bursty", "capped"}
        assert by_id["acme"]["admitted"] == 1
        assert by_id["acme"]["latency"]["count"] >= 1
        assert "api_key" not in by_id["acme"]

    def test_tenants_listing_requires_admin(self, tenant_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(tenant_server.url + "/tenants")
        assert http_error(excinfo)[0] == 401
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(tenant_server.url + "/tenants", api_key=ACME_KEY)
        assert http_error(excinfo)[0] == 403

    def test_usage_with_own_key(self, tenant_server):
        post_translate(tenant_server.url, api_key=CAPPED_KEY)
        status, body = get(
            tenant_server.url + "/tenants/capped/usage", api_key=CAPPED_KEY
        )
        assert status == 200
        assert body["id"] == "capped"
        assert body["quota_used"] == 1
        assert body["quota_remaining"] == 1
        assert body["admitted"] == 1
        assert body["rejected"] == {"rate_limited": 0, "quota": 0}
        assert "latency" in body

    def test_usage_with_admin_key(self, tenant_server):
        status, body = get(
            tenant_server.url + "/tenants/acme/usage", api_key=ADMIN_KEY
        )
        assert status == 200
        assert body["id"] == "acme"

    def test_usage_with_someone_elses_key_is_403(self, tenant_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(tenant_server.url + "/tenants/acme/usage", api_key=CAPPED_KEY)
        assert http_error(excinfo)[0] == 403

    def test_usage_with_bad_key_is_401(self, tenant_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(tenant_server.url + "/tenants/acme/usage", api_key="nope-key")
        assert http_error(excinfo)[0] == 401

    def test_usage_unknown_tenant_is_404(self, tenant_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(tenant_server.url + "/tenants/ghost/usage", api_key=ADMIN_KEY)
        assert http_error(excinfo)[0] == 404


class TestTenantMetrics:
    def test_tenant_labeled_series_on_metrics(self, tenant_server):
        post_translate(tenant_server.url, api_key=ACME_KEY)
        with pytest.raises(urllib.error.HTTPError):
            post_translate(tenant_server.url, api_key="who-is-this-key")
        with urllib.request.urlopen(
            tenant_server.url + "/metrics", timeout=30
        ) as response:
            text = response.read().decode("utf-8")
        assert 'tenant_requests_total{tenant="acme"} 1' in text
        assert 'tenant_admitted_total{tenant="acme"} 1' in text
        assert "tenancy_auth_failures_total 1" in text
        assert 'tenant_latency_seconds_count{tenant="acme"}' in text


class TestAnonymousModeUnchanged:
    """Without a controller the server keeps its pre-tenancy behavior."""

    @pytest.fixture
    def anon_server(self, pets_db):
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

    def test_translate_needs_no_key(self, anon_server):
        status, payload = post_translate(anon_server.url)
        assert status == 200
        assert payload["sql"]
        assert payload["tenant_id"] is None

    def test_tenants_endpoints_404(self, anon_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(anon_server.url + "/tenants")
        assert http_error(excinfo)[0] == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(anon_server.url + "/tenants/acme/usage")
        assert http_error(excinfo)[0] == 404
