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

Error mapping is structural, never a hang: malformed requests are 400,
an oversized body (:class:`~repro.errors.PayloadTooLargeError`) is 413,
shed load (:class:`~repro.errors.OverloadedError`) is 429 with a
``Retry-After`` hint, a blown per-request deadline is 504, anything
else is 500 — each with a JSON body naming the error type.

Built on :mod:`http.server`'s ``ThreadingHTTPServer`` so concurrent
requests coalesce inside the micro-batcher; no third-party web framework
is involved anywhere.
"""

from __future__ import annotations

import argparse
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..errors import (
    DatasetError,
    DeadlineExceededError,
    OverloadedError,
    PayloadTooLargeError,
    ReproError,
    ServingError,
)
from .service import MatchService

__all__ = ["MatchHTTPServer", "main"]

#: Largest request body accepted, in bytes (a single record pair is tiny).
MAX_BODY_BYTES = 1 << 20

#: The ``Retry-After`` hint (seconds) sent with 429 and unhealthy-503
#: responses: long enough for a micro-batch queue to drain, short enough
#: that a well-behaved client keeps its latency bounded.
RETRY_AFTER_S = 1

#: How much of an oversized body is drained before the 413 goes out —
#: without the drain the client hits a broken pipe mid-upload and never
#: sees the structured error; the cap keeps a hostile Content-Length
#: from turning the courtesy into an unbounded read.
_DRAIN_CAP_BYTES = 8 * MAX_BODY_BYTES


def _make_handler(service: MatchService) -> type[BaseHTTPRequestHandler]:
    """Build a request-handler class bound to one service instance."""

    class Handler(BaseHTTPRequestHandler):
        """Routes /match, /healthz and /metrics onto the bound service."""

        # Keep test and benchmark output clean; stats live in /metrics.
        def log_message(self, format: str, *args: object) -> None:
            """Suppress per-request stderr logging."""

        def _send_json(
            self,
            status: int,
            payload: dict,
            headers: dict[str, str] | None = None,
        ) -> None:
            """Write one JSON response (plus any extra headers)."""
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def _send_error_json(
            self,
            status: int,
            error: BaseException,
            headers: dict[str, str] | None = None,
        ) -> None:
            """Write a structured error response naming the error type."""
            self._send_json(
                status,
                {"error": type(error).__name__, "detail": str(error)},
                headers=headers,
            )

        def _send_text(self, status: int, text: str) -> None:
            """Write one plain-text response (the Prometheus rendering)."""
            body = text.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _wants_prometheus(self, path: str, query: str) -> bool:
            """Whether /metrics should render Prometheus text, not JSON."""
            if "format=prometheus" in query:
                return True
            accept = self.headers.get("Accept", "")
            return "text/plain" in accept

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            """Serve /healthz, /metrics (JSON or Prometheus) and /router."""
            path, _, query = self.path.partition("?")
            if path == "/healthz":
                health = service.healthz()
                if health["status"] == "ok":
                    self._send_json(200, health)
                else:
                    # Unhealthy for any cause — saturation, a dead
                    # dispatcher, an open breaker — fails the probe,
                    # with a Retry-After hint for polling clients.
                    self._send_json(
                        503, health,
                        headers={"Retry-After": str(RETRY_AFTER_S)},
                    )
            elif path == "/metrics":
                if self._wants_prometheus(path, query):
                    self._send_text(200, service.prometheus_metrics())
                else:
                    self._send_json(200, service.metrics())
            elif path == "/router":
                self._send_json(200, service.router_state())
            else:
                self._send_json(404, {"error": "NotFound", "detail": self.path})

        def _read_request(self) -> dict:
            """Parse the JSON request body (raises ServingError when bad)."""
            length = int(self.headers.get("Content-Length") or 0)
            if length > MAX_BODY_BYTES:
                remaining = min(length, _DRAIN_CAP_BYTES)
                while remaining > 0:
                    chunk = self.rfile.read(min(65536, remaining))
                    if not chunk:
                        break
                    remaining -= len(chunk)
                raise PayloadTooLargeError(
                    f"request body is {length} bytes "
                    f"(limit {MAX_BODY_BYTES})"
                )
            if length <= 0:
                raise ServingError(f"request body length {length} out of range")
            try:
                payload = json.loads(self.rfile.read(length))
            except json.JSONDecodeError as error:
                raise ServingError(f"request body is not JSON: {error}") from None
            if not isinstance(payload, dict):
                raise ServingError("request body must be a JSON object")
            return payload

        def _handle_match(self, payload: dict) -> dict:
            """Dispatch one parsed /match payload to the service."""
            if "record" in payload:
                top_k = payload.get("top_k", 10)
                if not isinstance(top_k, int):
                    raise ServingError(f"top_k must be an integer, got {top_k!r}")
                matches = service.lookup(payload["record"], top_k=top_k)
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
                response = service.match_pair(payload["left"], payload["right"])
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
            raise ServingError(
                'body must contain either "left"/"right" or "record"'
            )

        def do_POST(self) -> None:  # noqa: N802 (http.server API)
            """Serve /match with the structural error mapping."""
            if self.path != "/match":
                self._send_json(404, {"error": "NotFound", "detail": self.path})
                return
            try:
                self._send_json(200, self._handle_match(self._read_request()))
            except OverloadedError as error:
                self._send_error_json(
                    429, error, headers={"Retry-After": str(RETRY_AFTER_S)}
                )
            except DeadlineExceededError as error:
                self._send_error_json(504, error)
            except PayloadTooLargeError as error:
                self._send_error_json(413, error)
            except (ServingError, DatasetError, TypeError) as error:
                self._send_error_json(400, error)
            except ReproError as error:
                self._send_error_json(500, error)

    return Handler


class MatchHTTPServer:
    """Threaded HTTP server wrapping one :class:`MatchService`.

    Binds immediately (``port=0`` picks a free ephemeral port, the mode
    the tests use); :meth:`start` serves from a background thread and
    also starts the service's dispatcher if it is not running yet.
    """

    def __init__(
        self, service: MatchService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        """Bind the listening socket for ``service``."""
        self.service = service
        self._httpd = ThreadingHTTPServer((host, port), _make_handler(service))
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None
        self._owns_service = False

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — resolve the port after ``port=0``."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        """Base URL of the bound listener."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "MatchHTTPServer":
        """Serve requests from a background thread."""
        if self._thread is not None:
            raise ServingError("HTTP server already started")
        if not self.service.started:
            self.service.start()
            self._owns_service = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serving-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving, close the socket, stop an owned service."""
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._httpd.server_close()
        if self._owns_service:
            self.service.stop()
            self._owns_service = False

    def __enter__(self) -> "MatchHTTPServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def main(argv: list[str] | None = None) -> None:
    """Serve a matcher artifact over HTTP: ``python -m repro.serving.http``."""
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("artifact", help="artifact directory from --export-artifacts")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765)
    parser.add_argument("--max-batch-size", type=int, default=32)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    args = parser.parse_args(argv)

    from .artifacts import load_artifact

    matcher = load_artifact(args.artifact)
    service = MatchService(
        matcher,
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
    )
    with service, MatchHTTPServer(service, host=args.host, port=args.port) as server:
        print(f"serving {matcher.display_name} on {server.url}")
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            print("shutting down")


if __name__ == "__main__":
    main()
