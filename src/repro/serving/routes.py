"""Transport-agnostic HTTP route logic for the serving front door.

The HTTP transport (:mod:`repro.serving.http`) delegates every request
to :func:`handle`, which returns a fully rendered :class:`Response`
(status, extra headers, body bytes), so there is exactly one piece of
code that renders a 401, a 403-policy block, or a translate payload.
The route surface and semantics are documented in
:mod:`repro.serving.http`.

The transport remains responsible for wire-level concerns — request
framing, Content-Length parsing, body size enforcement, keep-alive —
but renders its own errors through :func:`error_response` /
:func:`body_too_large` here so every error body has one shape.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from urllib.parse import parse_qs, urlparse

from repro.metrics import quantile_from_snapshot, series_key
from repro.serving.service import (
    QueueFullError,
    ServiceStoppedError,
    UnknownDatabaseError,
)
from repro.tenancy.controller import (
    AuthenticationError,
    QuotaExceededError,
    RateLimitedError,
)

# Largest request body the front door reads.
MAX_BODY_BYTES = 64 * 1024

# Widest beam a request may ask for.  Decode cost grows with the beam and
# the deadline is checked only at pickup, so nothing else bounds it: one
# fixture question in process took 2.6 s and 153 MB RSS at beam 3000,
# 36 s and 830 MB at beam 30000.
MAX_BEAM_SIZE = 8

_JSON = "application/json"
_PROM = "text/plain; version=0.0.4; charset=utf-8"


@dataclass(frozen=True)
class Response:
    """One rendered HTTP response, transport-ready."""

    status: int
    body: bytes
    content_type: str = _JSON
    headers: tuple[tuple[str, str], ...] = field(default=())


def json_response(
    status: int, payload: dict, *, headers: tuple[tuple[str, str], ...] = ()
) -> Response:
    return Response(
        status,
        json.dumps(payload).encode("utf-8"),
        headers=headers,
    )


def error_response(
    status: int,
    message: str,
    *,
    retriable: bool | None = None,
    headers: tuple[tuple[str, str], ...] = (),
) -> Response:
    payload: dict = {"error": message}
    if retriable is not None:
        payload["retriable"] = retriable
    return json_response(status, payload, headers=headers)


def body_too_large() -> Response:
    """413 for request bodies over :data:`MAX_BODY_BYTES`."""
    return error_response(413, "request body exceeds 64 KiB")


def _retry_after_header(seconds: float) -> str:
    """Retry-After is an integer header; round up so clients never retry
    early and immediately eat another 429."""
    return str(max(1, math.ceil(seconds)))


def tenant_latency_stats(service, tenant_id: str) -> dict:
    """p50/p95/p99 (+count) of one tenant's in-service latency, in ms.

    Works against both a single-process registry snapshot and the
    cluster's ``{"fleet": ...}`` merged snapshot.
    """
    snap = service.metrics.snapshot()
    snap = snap.get("fleet", snap)
    hist = snap.get(series_key("tenant_latency_seconds", "tenant", tenant_id))
    if not isinstance(hist, dict):
        return {"count": 0, "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
    return {
        "count": hist.get("count", 0),
        "p50_ms": 1000.0 * quantile_from_snapshot(hist, 0.50),
        "p95_ms": 1000.0 * quantile_from_snapshot(hist, 0.95),
        "p99_ms": 1000.0 * quantile_from_snapshot(hist, 0.99),
    }


def _api_key(headers) -> str | None:
    """Extract the API key: ``Authorization: Bearer`` or ``X-API-Key``.

    ``headers`` is any case-insensitive mapping with ``.get`` (the
    stdlib ``email.message.Message``).
    """
    auth = headers.get("Authorization") or ""
    if auth.lower().startswith("bearer "):
        return auth[len("bearer "):].strip() or None
    key = headers.get("X-API-Key") or ""
    return key.strip() or None


def _service_ready(service) -> tuple[bool, str]:
    if service is None:
        return False, "service not attached (warming up)"
    is_ready = getattr(service, "is_ready", None)
    if is_ready is not None and not is_ready():
        return False, "service is not ready"
    return True, "ok"


# --------------------------------------------------------------- GET routes


def _tenant_usage_payload(service, controller, tenant_id: str) -> dict | None:
    usage = controller.usage(tenant_id)
    if usage is None:
        return None
    usage["latency"] = tenant_latency_stats(service, tenant_id)
    return usage


def _handle_tenants_get(service, path: str, headers) -> Response:
    controller = getattr(service, "tenancy", None)
    if controller is None:
        return error_response(404, "tenancy is not enabled")
    key = _api_key(headers)
    if path == "/tenants":
        if not controller.is_admin(key):
            return error_response(403 if key else 401, "admin API key required")
        overview = controller.overview()
        for entry in overview["tenants"]:
            if entry is not None:
                entry["latency"] = tenant_latency_stats(service, entry["id"])
        return json_response(200, overview)
    # /tenants/<id>/usage
    parts = path.strip("/").split("/")
    if len(parts) != 3 or parts[2] != "usage":
        return error_response(404, f"unknown path {path!r}")
    tenant_id = parts[1]
    if not controller.is_admin(key):
        try:
            tenant = controller.authenticate(key)
        except AuthenticationError:
            return error_response(401, "valid API key required")
        if tenant.tenant_id != tenant_id:
            return error_response(403, "key does not match this tenant")
    payload = _tenant_usage_payload(service, controller, tenant_id)
    if payload is None:
        return error_response(404, f"unknown tenant {tenant_id!r}")
    return json_response(200, payload)


def _handle_get(service, target: str, headers) -> Response:
    parsed = urlparse(target)
    if parsed.path == "/livez":
        return json_response(200, {"live": True})
    if parsed.path == "/readyz":
        ready, reason = _service_ready(service)
        if ready:
            return json_response(200, {"ready": True})
        return json_response(
            503, {"ready": False, "reason": reason, "retriable": True}
        )
    if parsed.path == "/healthz":
        if service is None:
            return json_response(200, {"status": "starting", "ready": False})
        return json_response(200, service.health())
    if parsed.path == "/metrics":
        if service is None:
            return Response(200, b"", _PROM)
        params = parse_qs(parsed.query)
        if params.get("format", [""])[0] == "json":
            return json_response(200, service.metrics.snapshot())
        return Response(
            200, service.metrics.render_text().encode("utf-8"), _PROM
        )
    if parsed.path == "/tenants" or parsed.path.startswith("/tenants/"):
        return _handle_tenants_get(service, parsed.path, headers)
    return error_response(404, f"unknown path {parsed.path!r}")


# -------------------------------------------------------------- POST routes


def _handle_translate(service, headers, body: bytes) -> Response:
    if service is None:
        return error_response(503, "service is warming up", retriable=True)
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return error_response(400, f"invalid JSON body: {exc}")
    if not isinstance(payload, dict) or not isinstance(
        payload.get("question"), str
    ):
        return error_response(400, 'body must include a string "question"')
    problem = _translate_param_error(payload)
    if problem is not None:
        return error_response(400, f"bad request parameters: {problem}")
    tenant_kwargs: dict = {}
    controller = getattr(service, "tenancy", None)
    if controller is not None:
        try:
            tenant = controller.admit(_api_key(headers))
        except AuthenticationError as exc:
            return json_response(
                401,
                {"error": str(exc), "reason": "auth"},
                headers=(("WWW-Authenticate", "Bearer"),),
            )
        except RateLimitedError as exc:
            return json_response(
                429,
                {"error": str(exc), "reason": "rate_limited", "retriable": True},
                headers=(("Retry-After", _retry_after_header(exc.retry_after_s)),),
            )
        except QuotaExceededError as exc:
            return json_response(
                429,
                {"error": str(exc), "reason": "quota", "retriable": False},
                headers=(("Retry-After", _retry_after_header(exc.retry_after_s)),),
            )
        tenant_kwargs = {
            "tenant_id": tenant.tenant_id,
            "tenant_weight": tenant.weight,
        }
    try:
        response = service.translate(
            payload["question"],
            payload.get("database_id"),
            beam_size=payload.get("beam_size"),
            execute=payload.get("execute", False),
            timeout_ms=payload.get("timeout_ms"),
            inject_failure=payload.get("inject_failure", False),
            **tenant_kwargs,
        )
    except UnknownDatabaseError as exc:
        return error_response(404, str(exc))
    except (QueueFullError, ServiceStoppedError) as exc:
        return error_response(503, str(exc), retriable=True)
    except (TypeError, ValueError) as exc:
        return error_response(400, f"bad request parameters: {exc}")
    if getattr(response, "policy", None) is not None:
        # Policy-blocked: a structured 4xx carrying the machine-readable
        # rule id(s).  The runtime's gate checks before it executes, so
        # the blocked statement never reached the database.
        body_payload = response.as_dict()
        body_payload["reason"] = "policy"
        body_payload["rule_id"] = response.policy.get("rule_id")
        return json_response(403, body_payload)
    return json_response(200, response.as_dict())


def _translate_param_error(payload: dict) -> str | None:
    """Why the optional ``/translate`` fields are unusable, or None."""
    if "dialect" in payload:
        return "dialect is not accepted: sql is always SQLite"
    database_id = payload.get("database_id")
    if database_id is not None and not isinstance(database_id, str):
        return "database_id must be a string or null"
    beam = payload.get("beam_size")
    if beam is not None and (
        type(beam) is not int or not 1 <= beam <= MAX_BEAM_SIZE
    ):
        return f"beam_size must be an integer in 1..{MAX_BEAM_SIZE}"
    for flag in ("execute", "inject_failure"):
        if not isinstance(payload.get(flag, False), bool):
            return f"{flag} must be true or false"
    timeout = payload.get("timeout_ms")
    if timeout is not None and not _is_timeout(timeout):
        return "timeout_ms must be a finite number >= 0"
    return None


def _is_timeout(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:  # an int too large for a float overflows, in here or in submit
        return math.isfinite(value) and value >= 0
    except OverflowError:
        return False


def _handle_admin_refresh(service, headers, body: bytes | None) -> Response:
    """``POST /admin/refresh`` — force a KB refresh (admin-gated).

    Body (optional JSON): ``{"database_id": str | null, "wait": bool}``;
    a null or absent ``database_id`` refreshes every database.  With
    ``wait`` (the default) the refresh runs synchronously and the 200
    body reports what was swapped; ``wait=false`` schedules it and
    answers 202.  In cluster mode the supervisor broadcasts a refresh
    frame to every READY worker (always 202 — workers refresh
    asynchronously).
    """
    if service is None:
        return error_response(503, "service is warming up", retriable=True)
    controller = getattr(service, "tenancy", None)
    if controller is not None:
        key = _api_key(headers)
        if not controller.is_admin(key):
            return error_response(403 if key else 401, "admin API key required")
    payload: dict = {}
    if body:
        try:
            decoded = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return error_response(400, f"invalid JSON body: {exc}")
        if not isinstance(decoded, dict):
            return error_response(400, "body must be a JSON object")
        payload = decoded
    database_id = payload.get("database_id")
    if database_id is not None and not isinstance(database_id, str):
        return error_response(400, "database_id must be a string or null")
    wait = payload.get("wait", True)
    if not isinstance(wait, bool):
        return error_response(400, "wait must be true or false")
    refresher = getattr(service, "refresher", None)
    if refresher is not None:  # single-process service with a KBRefresher
        if wait:
            refreshed = refresher.refresh_now(database_id)
            return json_response(
                200,
                {"status": "ok", "refreshed": refreshed,
                 "evolve": refresher.stats()},
            )
        refresher.trigger(database_id)
        return json_response(202, {"status": "scheduled"})
    trigger = getattr(service, "trigger_refresh", None)
    if trigger is None or not getattr(service, "refresh_enabled", False):
        return error_response(
            409, "refresh is not enabled (start with --kb-refresh-interval)"
        )
    workers = trigger(database_id)
    return json_response(202, {"status": "scheduled", "workers": workers})


# ------------------------------------------------------------- entry point


def handle(
    service, method: str, target: str, headers, body: bytes | None
) -> Response:
    """Route one fully-read request; never raises for expected errors.

    ``headers`` must support case-insensitive ``.get(name)``; ``body``
    is the complete request body, or ``None`` for bodyless methods.
    Wire-level failures (bad Content-Length, oversized body) are the
    transport's to detect and render with :func:`error_response` /
    :func:`body_too_large`.
    """
    if method == "GET":
        return _handle_get(service, target, headers)
    if method == "POST":
        parsed = urlparse(target)
        if parsed.path == "/admin/refresh":
            if body is not None and len(body) > MAX_BODY_BYTES:
                return body_too_large()
            return _handle_admin_refresh(service, headers, body)
        if parsed.path != "/translate":
            return error_response(404, f"unknown path {parsed.path!r}")
        if not body:
            return error_response(400, "body required (<= 64 KiB)")
        if len(body) > MAX_BODY_BYTES:
            return body_too_large()
        return _handle_translate(service, headers, body)
    return error_response(405, f"method {method} not allowed")
