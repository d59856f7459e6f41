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
error type.  A reply sent before the request was read to its end (a 400
on the head, a 413) half-closes the connection and discards what still
arrives before closing it, so the client reads its error instead of a
connection reset.

The server speaks HTTP/1.0 (one request per connection, closed after
the reply) from one :mod:`asyncio` event loop on a background thread.
Each connection is an :class:`asyncio.Protocol` that buffers what
arrives and parses the head and body itself, answers the GET endpoints
at once, and admits each ``/match`` pair through
:meth:`MatchService.admit <repro.serving.service.MatchService.admit>`
without blocking.  The batcher's dispatcher thread fills the pair's
slot, whose done-callback queues it for the loop; only the first slot
a batch fills wakes the loop, which then settles every queued slot in
one callback.  So two threads serve a pair request however many
clients are connected, and concurrent requests still coalesce inside
the micro-batcher.  A candidate lookup blocks on a whole batch of
candidates, so it runs on the loop's default thread pool.  No
third-party web framework is involved anywhere.
"""

from __future__ import annotations

import argparse
import asyncio
import contextvars
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

#: Longest request or header line accepted, in bytes.
MAX_LINE_BYTES = 1 << 16

#: Most header lines one request may carry.
_MAX_HEADERS = 100

#: Connections the kernel queues before the loop accepts them — the
#: default of ``socket.listen()``.  A connect beyond the queue waits a
#: second or more for the kernel to retry it.
_BACKLOG = 128

#: The ``Retry-After`` hint (seconds) sent with 429 and unhealthy-503
#: responses: long enough for a micro-batch queue to drain, short enough
#: that a well-behaved client keeps its latency bounded.
RETRY_AFTER_S = 1

#: After a reply that leaves request bytes unread, the connection
#: discards what still arrives until the client's EOF, this many bytes or
#: :data:`_DRAIN_S` seconds, whichever comes first, and then closes.
#: Closing with input unread resets the connection, and the client may
#: never read its error; the caps keep a hostile client from turning the
#: courtesy into an unbounded read.
_DRAIN_CAP_BYTES = 8 * MAX_BODY_BYTES
_DRAIN_S = 1.0

# A connection's states: reading its request, waiting for a slot or a
# lookup to answer it, answered (closed, or draining before it closes).
_READING, _WAITING, _ANSWERED = range(3)


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


class _Connection(asyncio.Protocol):
    """One HTTP/1.0 connection: read its one request, answer it, close.

    Bytes are buffered as they arrive and parsed line by line, then the
    body.  A GET is answered at once; a ``/match`` pair is admitted and
    waits in the server's table of slots until the dispatcher fills its
    slot or its budget's timer answers 504.  The slot's done-callback is
    the server's, so nothing the dispatcher holds refers to the
    connection, and it is freed as soon as it closes.
    """

    def __init__(self, server: "MatchHTTPServer") -> None:
        """A connection of ``server``, before its transport is made."""
        self._server = server
        self.transport: asyncio.Transport | None = None
        self._state = _READING
        self._buffer = bytearray()
        self._eof = False
        #: The request line's method and target, once it is read.
        self._method: str | None = None
        self._target = ""
        self._headers: dict[str, str] = {}
        self._head_read = False
        #: The declared body length once the head is read (``None`` also
        #: when ``Content-Length`` is not an integer).
        self._length: int | None = None
        self._drained = 0
        #: The /match pair in flight: its slot, budget, 504 timer and span.
        self._pending: PendingResult | None = None
        self._budget = None
        self._timer: asyncio.TimerHandle | None = None
        self._span = None
        self._span_context: contextvars.Context | None = None

    # -- asyncio.Protocol ----------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        """Track the connection so :meth:`MatchHTTPServer.stop` can close it."""
        self.transport = transport
        self._server._open.add(self)

    def data_received(self, data: bytes) -> None:
        """Parse the request as it arrives; discard input once answered."""
        if self._state == _READING:
            self._buffer += data
            self._advance()
        elif self._state == _ANSWERED:
            self._drained += len(data)
            if self._drained > _DRAIN_CAP_BYTES:
                self.transport.close()

    def eof_received(self) -> bool:
        """End of input: the rest of the buffer is the request's last line."""
        self._eof = True
        if self._state == _READING:
            self._advance()
        elif self._state == _ANSWERED:
            self.transport.close()  # a drain is over
        return True  # keep the transport open for a reply still to come

    def connection_lost(self, exc: Exception | None) -> None:
        """Forget the connection; a pair in flight is still settled and counted."""
        self._server._open.discard(self)

    # -- the request ---------------------------------------------------------

    def _advance(self) -> None:
        """Parse what has arrived; answer once the request is complete."""
        try:
            if not self._head_read:
                if self._eof and not self._buffer and self._method is None:
                    self._state = _ANSWERED
                    self.transport.close()  # the client sent nothing
                    return
                if not self._read_head():
                    return
            if self._method == "GET":
                self._reply(self._server._get(self._target, self._headers))
            elif self._method != "POST":
                self._reply(_json(
                    501,
                    {"error": "NotImplemented",
                     "detail": f"unsupported method {self._method!r}"},
                ))
            elif self._target != "/match":
                self._reply(_not_found(self._target))
            else:
                payload = self._read_body()
                if payload is not None:
                    self._match(payload)
        except Exception as error:
            self._reply(_error_response(error))

    def _read_head(self) -> bool:
        """Consume complete head lines; ``True`` once the blank line is read.

        Header names are lower-cased.  A request line that is not
        ``METHOD TARGET HTTP/x``, a header line that is not
        ``Name: value``, a line longer than :data:`MAX_LINE_BYTES` or more
        than :data:`_MAX_HEADERS` header lines raise
        :class:`~repro.errors.ServingError`.
        """
        buffer = self._buffer
        while True:
            end = buffer.find(b"\n")
            if end > MAX_LINE_BYTES or (end < 0 and len(buffer) > MAX_LINE_BYTES):
                raise ServingError(
                    f"request or header line longer than {MAX_LINE_BYTES} bytes"
                )
            if end < 0 and not self._eof:
                return False
            size = len(buffer) if end < 0 else end + 1
            line = bytes(buffer[:size])
            del buffer[:size]
            if self._method is None:
                parts = line.decode("latin-1").split()
                if len(parts) != 3 or not parts[2].startswith("HTTP/"):
                    raise ServingError(f"malformed request line {line[:100]!r}")
                self._method, self._target = parts[0], parts[1]
                continue
            if line in (b"\r\n", b"\n", b""):
                self._head_read = True
                try:
                    self._length = int(self._headers.get("content-length") or "0")
                except ValueError:
                    self._length = None
                return True
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon or not name.strip():
                raise ServingError(f"malformed header line {line[:100]!r}")
            if len(self._headers) >= _MAX_HEADERS:
                raise ServingError(f"more than {_MAX_HEADERS} header lines")
            self._headers[name.strip().lower()] = value.strip()

    def _read_body(self) -> dict | None:
        """The JSON body once all of it has arrived (``None`` until then)."""
        length = self._length
        if length is None:
            declared = self._headers["content-length"]
            raise ServingError(f"Content-Length {declared!r} is not an integer")
        if length > MAX_BODY_BYTES:
            raise PayloadTooLargeError(
                f"request body is {length} bytes (limit {MAX_BODY_BYTES})"
            )
        if length <= 0:
            raise ServingError(f"request body length {length} out of range")
        if len(self._buffer) < length:
            if not self._eof:
                return None
            raise ServingError(
                f"request body ended after {len(self._buffer)} of {length} bytes"
            )
        try:
            payload = json.loads(self._buffer[:length])
        except ValueError as error:  # not JSON, or not UTF-8
            raise ServingError(f"request body is not JSON: {error}") from None
        if not isinstance(payload, dict):
            raise ServingError("request body must be a JSON object")
        return payload

    def _match(self, payload: dict) -> None:
        """Start serving one parsed /match payload."""
        server = self._server
        service = server.service
        if "record" in payload:
            top_k = payload.get("top_k", 10)
            if not isinstance(top_k, int):
                raise ServingError(f"top_k must be an integer, got {top_k!r}")
            # A lookup blocks until its whole candidate batch is scored,
            # so it runs on the loop's thread pool, not on the loop.
            lookup = server._loop.run_in_executor(
                None, functools.partial(service.lookup, payload["record"], top_k=top_k)
            )
            lookup.add_done_callback(self._looked_up)
            self._state = _WAITING
            return
        if "left" not in payload or "right" not in payload:
            raise ServingError('body must contain either "left"/"right" or "record"')
        # The span stays open until the slot settles, in a callback the
        # loop runs in another context, so it gets a context of its own.
        self._span_context = contextvars.Context()
        self._span = self._span_context.run(span("serving.match", pairs=1).__enter__)
        try:
            self._pending, self._budget = service.admit(payload["left"], payload["right"])
        except Exception as error:
            self._end_span(error)
            raise
        server._waiting[self._pending] = self
        self._pending.add_done_callback(server._filled)
        if self._budget is not None:
            self._timer = server._loop.call_later(self._budget.remaining(), self._expire)
        self._state = _WAITING

    def _looked_up(self, lookup: asyncio.Future) -> None:
        """Answer a candidate lookup from the thread pool's result."""
        try:
            matches = lookup.result()
        except Exception as error:
            self._reply(_error_response(error))
            return
        self._reply(_json(200, {
            "matches": [
                {
                    "record_id": m.record.record_id,
                    "values": list(m.record.values),
                    "shared_tokens": m.shared_tokens,
                }
                for m in matches
            ]
        }))

    def _expire(self) -> None:
        """The budget ran out first: answer now; the slot is left to fill."""
        self._timer = None
        del self._server._waiting[self._pending]
        self.settle()

    def settle(self) -> None:
        """Answer the pair from its slot: filled, or out of budget (504)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        try:
            response = self._server.service.settle(self._pending, self._budget)
        except Exception as error:
            self._end_span(error)
            self._reply(_error_response(error))
            return
        self._span.set(matched=response.matched)
        self._end_span(None)
        self._reply(_json(200, {
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
        }))

    def abandon(self) -> None:
        """The server is stopping: this pair is never settled."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._end_span(asyncio.CancelledError())
        self._server.service.stats.bump("abandoned")

    def _end_span(self, error: BaseException | None) -> None:
        """Close the pair's ``serving.match`` span, failed by ``error`` if given."""
        self._span_context.run(
            self._span.__exit__, None if error is None else type(error), error, None
        )

    def _reply(self, response: bytes) -> None:
        """Send the one response, then close the connection.

        A reply sent before the request was read to its end half-closes
        instead and drains (see :data:`_DRAIN_CAP_BYTES`) before closing.
        """
        self._state = _ANSWERED
        transport = self.transport
        if transport.is_closing():
            return  # the client hung up, or the server is stopping
        transport.write(response)
        unread = not self._eof and (
            self._length is None or len(self._buffer) < self._length
        )
        if not unread:
            transport.close()
            return
        transport.write_eof()
        self._buffer = bytearray()
        self._server._loop.call_later(_DRAIN_S, transport.close)


class MatchHTTPServer:
    """HTTP/1.0 server for one :class:`MatchService`, on one event loop.

    Binds immediately (``port=0`` picks a free ephemeral port, the mode
    the tests use) with ``SO_REUSEADDR`` and a listen backlog of 128;
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
        self._thread: threading.Thread | None = None
        self._owns_service = False
        # The loop thread's alone: open connections, and the connection
        # waiting on each /match slot in flight.
        self._open: set[_Connection] = set()
        self._waiting: dict[PendingResult, _Connection] = {}
        #: Slots the dispatcher filled that the loop has not settled yet.
        self._filled_slots: list[PendingResult] = []
        self._filled_lock = threading.Lock()

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
                self._loop.call_soon_threadsafe(self._stopping.set_result, None)
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
        """Accept connections until stopped; then close the open ones."""
        server = await self._loop.create_server(
            functools.partial(_Connection, self), sock=self._socket, backlog=_BACKLOG
        )
        await self._stopping
        server.close()
        # Accepts still being set up end cancelled.
        current = asyncio.current_task()
        accepting = [task for task in asyncio.all_tasks() if task is not current]
        for task in accepting:
            task.cancel()
        await asyncio.gather(*accepting, return_exceptions=True)
        for connection in self._waiting.values():
            connection.abandon()
        self._waiting.clear()
        for connection in list(self._open):
            connection.transport.abort()
        await asyncio.sleep(0)  # run the aborted transports' close callbacks

    def _filled(self, pending: PendingResult) -> None:
        """A slot's done-callback, on the dispatcher: queue it for the loop.

        Only a slot that finds the queue empty wakes the loop, so a batch
        filled before the loop runs costs one wake-up.  A slot filled
        after the loop closed is ignored: nobody is waiting for it.
        """
        with self._filled_lock:
            self._filled_slots.append(pending)
            if len(self._filled_slots) > 1:
                return
        try:
            self._loop.call_soon_threadsafe(self._settle_filled)
        except RuntimeError:  # the loop is closed
            pass

    def _settle_filled(self) -> None:
        """On the loop: answer every connection whose slot was filled."""
        with self._filled_lock:
            filled, self._filled_slots = self._filled_slots, []
        for pending in filled:
            # None: its timer already answered 504, or the server stopped.
            connection = self._waiting.pop(pending, None)
            if connection is not None:
                connection.settle()

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
