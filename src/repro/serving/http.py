"""The HTTP front door of the translation service (stdlib, one thread
per connection).

Endpoints (all JSON unless noted):

* ``GET  /healthz``  — combined health snapshot (always 200 once a
  service is attached; the detail lives in the body).  Its
  ``value_search`` block maps each database id to that database's
  current searcher counters (searches, memo hits/misses, DP calls,
  search seconds); an index swap resets them with the new searcher.
* ``GET  /livez``    — liveness only: 200 whenever the process can
  answer HTTP at all.  Restart the instance when this fails.
* ``GET  /readyz``   — readiness: 503 until the backing service exists
  *and* reports ready (index warm-up finished, not draining).  Load
  balancers should route on this, not on ``/healthz``, so cold or
  draining instances receive no traffic.
* ``GET  /metrics``  — Prometheus text exposition; ``?format=json`` for a
  JSON snapshot with p50/p95/p99 per histogram.
* ``POST /translate`` — body ``{"question": ..., "database_id": ...,
  "beam_size": ..., "execute": ..., "timeout_ms": ...,
  "inject_failure": ..., "dialect": ...}``; only ``question`` is
  required (and ``database_id`` only when serving several databases).
  ``beam_size`` is an int in ``1..MAX_BEAM_SIZE`` (8), ``execute`` and
  ``inject_failure`` are JSON booleans, ``timeout_ms`` is a finite
  number >= 0; other values are a 400 before tenancy admission.
  ``dialect`` selects the SQL flavor of the response
  (``sqlite``/``postgres``/``mysql``).  When a policy engine is
  configured and a rule blocks the query, the response is a 403 whose
  body carries ``"reason": "policy"``, the machine-readable
  ``"rule_id"`` and the structured ``"policy"`` violation list.
* ``GET /tenants`` — admin-only listing of every tenant's config and
  usage (requires an ``admin_keys`` entry; tenancy mode only).
* ``GET /tenants/<id>/usage`` — one tenant's quota/rate/latency view;
  reachable with that tenant's own key or an admin key.

Multi-tenancy: when the backing service carries a
:class:`~repro.tenancy.controller.TenancyController` (``service.tenancy``),
``POST /translate`` requires an API key — ``Authorization: Bearer <key>``
or ``X-API-Key: <key>`` — and runs the full front-door admission check.
Rejections: 401 for missing/unknown/disabled keys, 429 with a
``Retry-After`` header when the tenant is over its rate (token bucket)
or daily quota; the body's ``"reason"`` field distinguishes the two.
Without a controller the server behaves exactly as before (anonymous,
no auth).

Status codes: 200 on success (including degraded responses — the
degradation contract lives in the body, not the status), 400 on malformed
requests, 401/403 on auth failures (403 also carries policy blocks —
the body's ``"reason"`` distinguishes), 404 on unknown paths or databases,
413 on oversized request bodies, 429 on per-tenant limits, 503 when load
is shed (queue full, service stopping/warming, or — in cluster mode — no
live worker for the shard).  Every 503 body carries ``"retriable": true``:
the request was *not* processed and may safely be retried elsewhere.

The route logic lives in :mod:`repro.serving.routes`; this module is
only the transport around it: request framing, ``Content-Length``
parsing, the body size limit, keep-alive and the idle deadline.

The server may be constructed before its service exists
(``service=None``) and bound to one later via :meth:`ServingServer.attach`;
until then it is live but not ready and sheds all translate traffic.
This lets deployments open the port (and pass liveness probes) while
index warm-up is still running.
"""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.serving import routes
from repro.serving.service import TranslationService


class ServingRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-serving/1.0"
    protocol_version = "HTTP/1.1"
    # A request line too broken to carry a version still gets a status
    # line (the stdlib default answers it HTTP/0.9-style: bare body).
    default_request_version = "HTTP/1.0"
    # Headers and body go out in separate writes; without TCP_NODELAY the
    # second write stalls behind the peer's delayed ACK (~40 ms per
    # response on loopback).
    disable_nagle_algorithm = True
    # Socket timeout for every read: a client that connects and then
    # stalls (idle keep-alive, half-sent request) is dropped instead of
    # pinning its thread forever.
    timeout = 75

    @property
    def service(self) -> TranslationService | None:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # no per-request access log on stderr; /metrics has the counts

    def _write(self, response: routes.Response) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.headers:
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(response.body)

    def do_GET(self) -> None:  # noqa: N802
        self._write(routes.handle(self.service, "GET", self.path, self.headers, None))

    def do_POST(self) -> None:  # noqa: N802
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            # Framing is lost (the body length is unknown): answer, close.
            self.close_connection = True
            self._write(routes.error_response(400, "bad Content-Length"))
            return
        if length > routes.MAX_BODY_BYTES:
            # Refused before reading: the connection is closed (the body
            # is still in flight), which HTTP/1.1 permits for 413.
            self.close_connection = True
            self._write(routes.body_too_large())
            return
        body = self.rfile.read(length) if length > 0 else b""
        self._write(
            routes.handle(self.service, "POST", self.path, self.headers, body)
        )


class ServingServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one :class:`TranslationService`.

    ``service`` may also be any object with the same duck-typed surface
    (``translate``, ``health``, ``metrics``, ``is_ready``) — the cluster
    front-end reuses this server unchanged — or ``None`` to open the
    port before the service exists (attach one later with
    :meth:`attach`).
    """

    daemon_threads = True

    def __init__(
        self, address: tuple[str, int], service: TranslationService | None
    ):
        super().__init__(address, ServingRequestHandler)
        self.service = service

    def attach(self, service) -> None:
        """Bind a (possibly late-built) service; flips readiness wiring."""
        self.service = service

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"
