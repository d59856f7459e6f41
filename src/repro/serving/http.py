"""A stdlib-only HTTP front-end for :class:`~repro.serving.service.MatchService`.

Three endpoints, all JSON:

``POST /match``
    Body ``{"left": [...], "right": [...]}`` matches one pair of records
    (attribute-value lists); body ``{"record": [...], "top_k": k}`` runs a
    candidate lookup against the service's index.  Responses carry the
    predicted label/matches plus the request latency, and the routing
    provenance fields (``backend``, ``escalated``, ``spend_usd``, and
    the degradation flags ``budget_limited`` / ``breaker_open`` /
    ``backend_failed`` / ``deadline_limited``).  A service built
    without a router names its matcher as ``backend``.
``GET /healthz``
    Liveness and saturation: 200 with ``status: ok`` normally, **503**
    with a ``Retry-After`` hint whenever the status is not ``ok`` — a
    saturated queue, a dead dispatcher thread, or an open circuit
    breaker; the ``degraded`` block in the body lists every cause.
``GET /metrics``
    Each count once, read from the object that keeps it: the service's
    request ``counters`` and ``latency``, the batcher's ``scheduler``
    counters, a ``routing`` block with the router counters and drift
    scores (``drift`` is ``null`` without a monitor), and
    ``resilience.breakers``, one entry per rung breaker.  JSON by
    default; ``GET /metrics?format=prometheus`` — or an ``Accept``
    header mentioning ``text/plain`` — returns the same snapshot in the
    Prometheus text exposition format instead, rendered through
    :class:`~repro.obs.registry.MetricsRegistry`, plus the live queue
    depth, saturation and dispatcher gauges.
``GET /router``
    The routing state: the backend ladder (one rung on a service built
    without a router) with per-rung decision counts and confidence
    bands, budgets and the rolling spend ledger, the drift monitor's
    windows/events, and the shadow evaluator's agreement gate (see
    ``docs/ROUTING.md``).

Error mapping is structural, never a hang: malformed requests are 400
(a bad request or header line, one longer than
:data:`MAX_LINE_BYTES`, a non-integer ``Content-Length``, a body that
is not UTF-8 JSON), an oversized body
(:class:`~repro.errors.PayloadTooLargeError`) is 413, shed load
(:class:`~repro.errors.OverloadedError`) is 429 with a ``Retry-After``
hint, a blown per-request deadline is 504, a method other than GET and
POST is 501, anything else is 500 — each with a JSON body naming the
error type.

The server speaks HTTP/1.0 (one request per connection, closed after
the reply) from one :mod:`asyncio` event loop on a background thread.
The loop parses requests, answers the GET endpoints itself, and admits
each ``/match`` pair through
:meth:`MatchService.admit <repro.serving.service.MatchService.admit>`
without blocking; the batcher's dispatcher thread fills the request's
slot, whose done-callback wakes the loop.  So two threads serve a pair
request however many clients are connected, and concurrent requests
still coalesce inside the micro-batcher.  A candidate lookup blocks on
a whole batch of candidates, so it runs on the loop's default thread
pool.  No third-party web framework is involved anywhere.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import socket
import threading
from http import HTTPStatus

from ..errors import (
    DatasetError,
    DeadlineExceededError,
    OverloadedError,
    PayloadTooLargeError,
    ServingError,
)
from ..obs.trace import span
from .scheduler import PendingResult
from .service import MatchService

__all__ = ["MatchHTTPServer", "main"]

#: Largest request body accepted, in bytes (a single record pair is tiny).
MAX_BODY_BYTES = 1 << 20

#: Longest request or header line accepted, in bytes (the stream
#: reader's limit).
MAX_LINE_BYTES = 1 << 16

#: Most header lines one request may carry.
_MAX_HEADERS = 100

#: Connections the kernel queues before the loop accepts them
#: (socketserver's ``request_queue_size``).
_BACKLOG = 5

#: The ``Retry-After`` hint (seconds) sent with 429 and unhealthy-503
#: responses: long enough for a micro-batch queue to drain, short enough
#: that a well-behaved client keeps its latency bounded.
RETRY_AFTER_S = 1

#: How much of an oversized body is drained before the 413 goes out —
#: without the drain the client hits a broken pipe mid-upload and never
#: sees the structured error; the cap keeps a hostile Content-Length
#: from turning the courtesy into an unbounded read.
_DRAIN_CAP_BYTES = 8 * MAX_BODY_BYTES


def _response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    headers: dict[str, str] | None = None,
) -> bytes:
    """One complete HTTP/1.0 response: status line, headers and body."""
    lines = [
        f"HTTP/1.0 {status} {HTTPStatus(status).phrase}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
    ]
    lines.extend(f"{name}: {value}" for name, value in (headers or {}).items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _json(status: int, payload: dict, headers: dict[str, str] | None = None) -> bytes:
    """A JSON response."""
    return _response(status, json.dumps(payload).encode("utf-8"), headers=headers)


def _error_response(error: Exception) -> bytes:
    """The structural status and JSON body for an error raised serving a request."""
    headers = None
    if isinstance(error, OverloadedError):
        status, headers = 429, {"Retry-After": str(RETRY_AFTER_S)}
    elif isinstance(error, DeadlineExceededError):
        status = 504
    elif isinstance(error, PayloadTooLargeError):
        status = 413
    elif isinstance(error, (ServingError, DatasetError, TypeError)):
        status = 400
    else:
        status = 500
    return _json(status, {"error": type(error).__name__, "detail": str(error)}, headers)


def _not_found(target: str) -> bytes:
    return _json(404, {"error": "NotFound", "detail": target})


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One request or header line (``b""`` at end of input)."""
    try:
        return await reader.readline()
    except ValueError:  # the reader's limit: no newline in MAX_LINE_BYTES
        raise ServingError(
            f"request or header line longer than {MAX_LINE_BYTES} bytes"
        ) from None


async def _read_head(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str]] | None:
    """``(method, target, headers)``, or ``None`` if the client sent nothing.

    Header names are lower-cased; a line that is not ``Name: value``
    raises :class:`~repro.errors.ServingError`, as does a request line
    that is not ``METHOD TARGET HTTP/x``.
    """
    line = await _read_line(reader)
    if not line:
        return None
    parts = line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ServingError(f"malformed request line {line[:100]!r}")
    headers: dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            return parts[0], parts[1], headers
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name.strip():
            raise ServingError(f"malformed header line {line[:100]!r}")
        if len(headers) >= _MAX_HEADERS:
            raise ServingError(f"more than {_MAX_HEADERS} header lines")
        headers[name.strip().lower()] = value.strip()


async def _read_json(reader: asyncio.StreamReader, headers: dict[str, str]) -> dict:
    """Parse the JSON request body (raises ServingError when bad)."""
    declared = headers.get("content-length") or "0"
    try:
        length = int(declared)
    except ValueError:
        raise ServingError(
            f"Content-Length {declared!r} is not an integer"
        ) from None
    if length > MAX_BODY_BYTES:
        remaining = min(length, _DRAIN_CAP_BYTES)
        while remaining > 0:
            chunk = await reader.read(min(65536, remaining))
            if not chunk:
                break
            remaining -= len(chunk)
        raise PayloadTooLargeError(
            f"request body is {length} bytes (limit {MAX_BODY_BYTES})"
        )
    if length <= 0:
        raise ServingError(f"request body length {length} out of range")
    try:
        payload = json.loads(await reader.readexactly(length))
    except asyncio.IncompleteReadError as error:
        raise ServingError(
            f"request body ended after {len(error.partial)} of {length} bytes"
        ) from None
    except ValueError as error:  # not JSON, or not UTF-8
        raise ServingError(f"request body is not JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ServingError("request body must be a JSON object")
    return payload


def _release(waiter: asyncio.Future) -> None:
    """Resolve ``waiter`` unless a timeout or a cancel got there first."""
    if not waiter.done():
        waiter.set_result(None)


async def _delivered(pending: PendingResult, timeout_s: float | None) -> None:
    """Wait on the running loop until ``pending`` is filled or ``timeout_s`` passes.

    The wait is shielded: the loop waits on a future of its own, so a
    timeout or a cancelled connection ends only that wait, never the
    slot the dispatcher fills.  A slot filled after the loop closed is
    ignored — nobody is waiting for it any more.
    """
    loop = asyncio.get_running_loop()
    waiter = loop.create_future()

    def wake(_pending: PendingResult) -> None:
        try:
            loop.call_soon_threadsafe(_release, waiter)
        except RuntimeError:  # the loop is closed
            pass

    pending.add_done_callback(wake)
    timer = None if timeout_s is None else loop.call_later(timeout_s, _release, waiter)
    try:
        await waiter
    finally:
        if timer is not None:
            timer.cancel()


class MatchHTTPServer:
    """HTTP/1.0 server for one :class:`MatchService`, on one event loop.

    Binds immediately (``port=0`` picks a free ephemeral port, the mode
    the tests use) with ``SO_REUSEADDR`` and a listen backlog of 5;
    :meth:`start` runs the event loop on a background thread and also
    starts the service's dispatcher if it is not running yet.
    """

    def __init__(
        self, service: MatchService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        """Bind the listening socket for ``service``."""
        self.service = service
        # create_server sets SO_REUSEADDR on POSIX hosts.
        self._socket = socket.create_server((host, port), backlog=_BACKLOG)
        self._address: tuple[str, int] = self._socket.getsockname()[:2]
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping: asyncio.Future | None = None
        #: One task per open connection; the loop holds tasks weakly.
        self._connections: set[asyncio.Task] = set()
        self._thread: threading.Thread | None = None
        self._owns_service = False

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — resolve the port after ``port=0``."""
        return self._address

    @property
    def url(self) -> str:
        """Base URL of the bound listener."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "MatchHTTPServer":
        """Serve requests from an event loop on a background thread."""
        if self._thread is not None:
            raise ServingError("HTTP server already started")
        if not self.service.started:
            self.service.start()
            self._owns_service = True
        self._loop = asyncio.new_event_loop()
        self._stopping = self._loop.create_future()
        self._thread = threading.Thread(
            target=self._run, name="repro-serving-http", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving, close the socket, stop an owned service.

        Connections still open are closed unanswered; a ``/match`` pair
        among them is counted ``abandoned``.
        """
        if self._thread is not None:
            try:
                self._loop.call_soon_threadsafe(_release, self._stopping)
            except RuntimeError:  # the loop already ended on an error
                pass
            self._thread.join()
            self._thread = None
        self._socket.close()
        if self._owns_service:
            self.service.stop()
            self._owns_service = False

    def __enter__(self) -> "MatchHTTPServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- the event loop ------------------------------------------------------

    def _run(self) -> None:
        """The loop thread: serve until :meth:`stop`, then close the loop."""
        loop = self._loop
        try:
            loop.run_until_complete(self._serve())
            loop.run_until_complete(loop.shutdown_default_executor())
        finally:
            loop.close()

    async def _serve(self) -> None:
        """Accept connections until stopped; then cancel the open ones."""
        server = await asyncio.start_server(
            self._accepted, sock=self._socket, backlog=_BACKLOG,
            limit=MAX_LINE_BYTES,
        )
        await self._stopping
        server.close()
        # Connections, and accepts still being set up, end cancelled.
        current = asyncio.current_task()
        pending = [t for t in asyncio.all_tasks() if t is not current]
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)

    def _accepted(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve a new connection in a task this server keeps.

        Handing ``start_server`` a plain function, not a coroutine, also
        keeps asyncio from wrapping the task in a done-callback that logs
        an error for every connection :meth:`stop` cancels.
        """
        task = self._loop.create_task(self._connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer the one request of one connection, then close it."""
        try:
            response = await self._respond(reader)
            if response is not None:
                writer.write(response)
                await writer.drain()
        except ConnectionError:
            pass  # the client hung up; nobody is left to answer
        finally:
            writer.close()

    async def _respond(self, reader: asyncio.StreamReader) -> bytes | None:
        """The response to the connection's request (``None``: no request)."""
        try:
            head = await _read_head(reader)
            if head is None:
                return None
            method, target, headers = head
            if method == "GET":
                return self._get(target, headers)
            if method != "POST":
                return _json(
                    501,
                    {"error": "NotImplemented", "detail": f"unsupported method {method!r}"},
                )
            if target != "/match":
                return _not_found(target)
            return _json(200, await self._match(await _read_json(reader, headers)))
        except ConnectionError:
            raise
        except Exception as error:
            return _error_response(error)

    def _get(self, target: str, headers: dict[str, str]) -> bytes:
        """Serve /healthz, /metrics (JSON or Prometheus) and /router."""
        path, _, query = target.partition("?")
        if path == "/healthz":
            health = self.service.healthz()
            if health["status"] == "ok":
                return _json(200, health)
            # Unhealthy for any cause — saturation, a dead dispatcher, an
            # open breaker — fails the probe, with a Retry-After hint for
            # polling clients.
            return _json(503, health, {"Retry-After": str(RETRY_AFTER_S)})
        if path == "/metrics":
            if "format=prometheus" in query or "text/plain" in headers.get("accept", ""):
                return _response(
                    200,
                    self.service.prometheus_metrics().encode("utf-8"),
                    content_type="text/plain; version=0.0.4",
                )
            return _json(200, self.service.metrics())
        if path == "/router":
            return _json(200, self.service.router_state())
        return _not_found(target)

    async def _match(self, payload: dict) -> dict:
        """Serve one parsed /match payload."""
        service = self.service
        if "record" in payload:
            top_k = payload.get("top_k", 10)
            if not isinstance(top_k, int):
                raise ServingError(f"top_k must be an integer, got {top_k!r}")
            # A lookup blocks until its whole candidate batch is scored,
            # so it waits on the loop's thread pool, not on the loop.
            matches = await asyncio.get_running_loop().run_in_executor(
                None, functools.partial(service.lookup, payload["record"], top_k=top_k)
            )
            return {
                "matches": [
                    {
                        "record_id": m.record.record_id,
                        "values": list(m.record.values),
                        "shared_tokens": m.shared_tokens,
                    }
                    for m in matches
                ]
            }
        if "left" in payload and "right" in payload:
            with span("serving.match", pairs=1) as match_span:
                pending, budget = service.admit(payload["left"], payload["right"])
                try:
                    await _delivered(
                        pending, None if budget is None else budget.remaining()
                    )
                except asyncio.CancelledError:
                    # The server is stopping; this slot is never settled.
                    service.stats.bump("abandoned")
                    raise
                response = service.settle(pending, budget)
                match_span.set(matched=response.matched)
            return {
                "label": response.label,
                "matched": response.matched,
                "latency_ms": round(1000.0 * response.latency_s, 3),
                "backend": response.backend,
                "escalated": response.escalated,
                "spend_usd": response.spend_usd,
                "budget_limited": response.budget_limited,
                "breaker_open": response.breaker_open,
                "backend_failed": response.backend_failed,
                "deadline_limited": response.deadline_limited,
            }
        raise ServingError('body must contain either "left"/"right" or "record"')


def main(argv: list[str] | None = None) -> None:
    """Serve a matcher artifact over HTTP: ``python -m repro.serving.http``."""
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("artifact", help="artifact directory from --export-artifacts")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765)
    parser.add_argument("--max-batch-size", type=int, default=32)
    args = parser.parse_args(argv)

    from .artifacts import load_artifact

    matcher = load_artifact(args.artifact)
    service = MatchService(matcher, max_batch_size=args.max_batch_size)
    with service, MatchHTTPServer(service, host=args.host, port=args.port) as server:
        print(f"serving {matcher.display_name} on {server.url}")
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            print("shutting down")


if __name__ == "__main__":
    main()
