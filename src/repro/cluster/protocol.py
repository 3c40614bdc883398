"""Framed IPC between the cluster supervisor and workers.

Every frame on the wire is ``4-byte big-endian length || payload``, and
the payload is one JSON object (``json.dumps``, UTF-8).  There is one
encoding and no negotiation; anything else — a non-JSON payload, a
non-object, a missing ``"type"`` — is a :class:`ProtocolError`.

The object always carries a ``"type"`` field; request/response frames
additionally carry an ``"id"`` so many requests can be in flight on one
connection and answers may arrive out of order.

:class:`FrameConnection` is the performant way to speak the protocol:
it keeps one preallocated, geometrically-grown receive buffer per
connection (``recv_into`` on ``memoryview`` slices — no per-chunk
``bytes`` churn or reassembly joins) and writes each frame with a
single gathered ``sendmsg`` syscall (length prefix + payload, no
concatenation copy).  A reader interrupted mid-frame — EINTR, a
socket timeout, a one-byte-at-a-time peer — resumes cleanly on the next
call: partial frame state lives on the connection, not the stack.

Deadlines cross the process boundary as a *remaining budget* in seconds
(``budget_s``), not as an absolute timestamp: each side re-anchors the
budget against its own monotonic clock on receipt, so the protocol is
immune to wall-clock skew between supervisor and worker (they share a
host today, but the framing should not bake that in).

Frame types (supervisor -> worker):

* ``request``  — one translate call; fields mirror ``/translate``.
* ``ping``     — heartbeat probe; the worker answers with ``pong``
  carrying its health and metrics snapshots.
* ``shutdown`` — drain and exit (graceful; SIGKILL is the rude path).

Frame types (worker -> supervisor):

* ``ready``    — sent once after the worker warmed its shard.
* ``response`` — answer to a ``request`` (``payload`` is the serialized
  :class:`~repro.serving.service.ServeResponse`).
* ``reject``   — the worker could not accept the request (queue full,
  unknown database, stopping); always retriable at the cluster level.
* ``pong``     — heartbeat answer with ``health`` and ``metrics``.
"""

from __future__ import annotations

import json
import socket
import struct
import time

from repro.errors import ReproError

_LENGTH = struct.Struct("!I")

# Frames are small control/response objects; anything near this bound is
# a protocol bug (e.g. unbounded result rows), not a legitimate message.
MAX_FRAME_BYTES = 8 * 1024 * 1024


class ProtocolError(ReproError):
    """Malformed or oversized frame, or a closed peer mid-frame."""


class PeerClosedError(ProtocolError):
    """The other end closed the connection at a frame boundary."""


def _decode_payload(view) -> dict:
    """Decode one frame payload (memoryview or bytes)."""
    try:
        # str() decodes straight from the buffer — no bytes() copy.
        message = json.loads(str(view, "utf-8"))
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise ProtocolError(f"invalid frame payload: {exc}") from exc
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise ProtocolError("frame must be a JSON object with a string 'type'")
    return message


# --------------------------------------------------------- gathered writes


def send_frame(sock: socket.socket, message: dict) -> None:
    """Serialize ``message`` and write one length-prefixed frame (a
    single ``sendmsg`` gather of prefix + payload in the common case)."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing to send {len(payload)} byte frame (max {MAX_FRAME_BYTES})"
        )
    _sendmsg_all(sock, [_LENGTH.pack(len(payload)), payload])


def _sendmsg_all(sock: socket.socket, views: list) -> None:
    """Write every view with as few syscalls as possible (EINTR-safe)."""
    pending = [memoryview(v) for v in views]
    while pending:
        try:
            sent = sock.sendmsg(pending)
        except InterruptedError:  # pragma: no cover - EINTR resume
            continue
        while sent > 0:
            head = pending[0]
            if sent >= len(head):
                sent -= len(head)
                pending.pop(0)
            else:
                pending[0] = head[sent:]
                sent = 0


# ------------------------------------------------------ framed connection


class FrameConnection:
    """One framed peer connection with reusable zero-copy buffers.

    ``send`` and ``recv`` are independently single-threaded: one thread
    may read while another writes (they touch disjoint state), but
    concurrent senders must serialize externally (the cluster already
    holds a send lock per connection), as must concurrent readers.

    The receive buffer is preallocated and grown geometrically, never
    shrunk: a connection that once saw a large frame reads every later
    frame with zero allocations.  Partial-frame state survives
    ``recv()`` raising (EINTR surfacing, socket timeouts): the next call
    resumes exactly where the interrupted one stopped.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._recv_buf = bytearray(64 * 1024)
        self._recv_have = 0          # bytes of the current frame received
        self._body_len: int | None = None  # parsed length header, if any

    def send(self, message: dict) -> None:
        send_frame(self.sock, message)

    # ----------------------------------------------------------- receiving

    def _fill(self, need: int) -> None:
        """Top up the receive buffer to ``need`` bytes of the current
        frame; resumable after EINTR/timeouts mid-frame."""
        if len(self._recv_buf) < need:
            grown = len(self._recv_buf)
            while grown < need:
                grown *= 2
            buf = bytearray(grown)
            buf[: self._recv_have] = self._recv_buf[: self._recv_have]
            self._recv_buf = buf
        view = memoryview(self._recv_buf)
        while self._recv_have < need:
            try:
                count = self.sock.recv_into(view[self._recv_have:need])
            except InterruptedError:  # pragma: no cover - EINTR resume
                continue
            if count == 0:
                if self._recv_have == 0 and self._body_len is None:
                    raise PeerClosedError("peer closed the connection")
                raise ProtocolError(
                    f"peer closed mid-frame ({self._recv_have}/{need} bytes)"
                )
            self._recv_have += count

    def recv(self) -> dict:
        """Read one frame; raises :class:`PeerClosedError` on clean EOF."""
        if self._body_len is None:
            self._fill(_LENGTH.size)
            (length,) = _LENGTH.unpack_from(self._recv_buf, 0)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"{length} byte frame exceeds {MAX_FRAME_BYTES}"
                )
            if length == 0:
                raise ProtocolError("empty frame payload")
            self._body_len = length
        total = _LENGTH.size + self._body_len
        self._fill(total)
        try:
            return _decode_payload(
                memoryview(self._recv_buf)[_LENGTH.size:total]
            )
        finally:
            self._body_len = None
            self._recv_have = 0

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


# ------------------------------------------------------- one-shot reader


def _recv_exact(sock: socket.socket, count: int, *, at_boundary: bool) -> bytearray:
    """Read exactly ``count`` bytes into a fresh buffer or raise on EOF."""
    buf = bytearray(count)
    view = memoryview(buf)
    have = 0
    while have < count:
        try:
            got = sock.recv_into(view[have:])
        except InterruptedError:  # pragma: no cover - EINTR resume
            continue
        if got == 0:
            if have == 0 and at_boundary:
                raise PeerClosedError("peer closed the connection")
            raise ProtocolError(
                f"peer closed mid-frame ({have}/{count} bytes)"
            )
        have += got
    return buf


def recv_frame(sock: socket.socket) -> dict:
    """Read one frame; :class:`PeerClosedError` on clean EOF.  Stateless
    — a timeout mid-frame loses the partial frame; long-lived readers
    should hold a :class:`FrameConnection`."""
    header = _recv_exact(sock, _LENGTH.size, at_boundary=True)
    (length,) = _LENGTH.unpack(bytes(header))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"{length} byte frame exceeds {MAX_FRAME_BYTES}")
    if length == 0:
        raise ProtocolError("empty frame payload")
    body = _recv_exact(sock, length, at_boundary=False)
    return _decode_payload(memoryview(body))


# --------------------------------------------------------- deadline budget


def remaining_budget_s(deadline: float, *, now: float | None = None) -> float:
    """Seconds left until a monotonic ``deadline`` (clamped at 0)."""
    now = time.monotonic() if now is None else now
    return max(0.0, deadline - now)


def budget_to_deadline(budget_s: float, *, now: float | None = None) -> float:
    """Re-anchor a received budget against the local monotonic clock."""
    now = time.monotonic() if now is None else now
    return now + max(0.0, float(budget_s))


# ------------------------------------------------------ frame constructors


def request_frame(
    request_id: int,
    question: str,
    database_id: str,
    *,
    beam_size: int | None,
    execute: bool,
    budget_s: float,
    inject_failure: bool = False,
    tenant_id: str | None = None,
    tenant_weight: int = 1,
) -> dict:
    # Tenant identity crosses the IPC boundary so worker-side fair
    # queueing and per-tenant metrics work without each worker holding
    # the registry; enforcement (auth/rate/quota) stays at the front
    # door, so the worker trusts these fields.
    return {
        "type": "request",
        "id": request_id,
        "question": question,
        "database_id": database_id,
        "beam_size": beam_size,
        "execute": execute,
        "budget_s": budget_s,
        "inject_failure": inject_failure,
        "tenant_id": tenant_id,
        "tenant_weight": tenant_weight,
    }


def response_frame(request_id: int, payload: dict) -> dict:
    return {"type": "response", "id": request_id, "payload": payload}


def reject_frame(request_id: int, reason: str) -> dict:
    return {"type": "reject", "id": request_id, "reason": reason}


def ping_frame(ping_id: int) -> dict:
    return {"type": "ping", "id": ping_id}


def pong_frame(ping_id: int, health: dict, metrics: dict) -> dict:
    return {"type": "pong", "id": ping_id, "health": health, "metrics": metrics}


def ready_frame(worker_id: int, warm_s: float, databases: list[str]) -> dict:
    return {
        "type": "ready",
        "worker_id": worker_id,
        "warm_s": warm_s,
        "databases": databases,
    }


def refresh_frame(database_id: str | None = None) -> dict:
    """Ask a worker to force a KB refresh (all databases when id is None).

    Fire-and-forget by design: the worker's refresher does the rebuild on
    its own daemon thread and the result shows up in the health/metrics
    it already reports with every pong.
    """
    return {"type": "refresh", "database_id": database_id}


def shutdown_frame() -> dict:
    return {"type": "shutdown"}
