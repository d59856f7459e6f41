"""Tests for the stdlib HTTP front-end: endpoints and error mapping."""

from __future__ import annotations

import gc
import http.client
import json
import logging
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.matchers.base import Matcher
from repro.matchers.string_sim import StringSimMatcher
from repro.serving.http import MAX_LINE_BYTES, MatchHTTPServer, _Connection
from repro.serving.index import CandidateIndex
from repro.serving.scheduler import MicroBatcher, PendingResult
from repro.serving.service import MatchService


def _post(url: str, payload: dict | bytes) -> tuple[int, dict]:
    data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    request = urllib.request.Request(url + "/match", data=data, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(url: str, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url + path, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class _GatedMatcher(Matcher):
    """Blocks inside predict until released (for saturation tests)."""

    name = "gated"
    display_name = "Gated"

    def __init__(self) -> None:
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def _predict(self, pairs, serialization_seed):
        self.entered.set()
        self.release.wait(10.0)
        return np.zeros(len(pairs), dtype=np.int64)


@pytest.fixture()
def server():
    service = MatchService(StringSimMatcher())
    with MatchHTTPServer(service) as running:
        yield running


class TestEndpoints:
    def test_match_pair(self, server):
        status, body = _post(
            server.url, {"left": ["sony mdr", "audio"], "right": ["sony mdr", "audio"]}
        )
        assert status == 200
        assert body["matched"] is True
        assert body["label"] == 1
        assert body["latency_ms"] >= 0

    def test_metrics_reflect_traffic(self, server):
        _post(server.url, {"left": ["a"], "right": ["a"]})
        status, body = _get(server.url, "/metrics")
        assert status == 200
        assert body["counters"]["requests"] >= 1
        assert "scheduler" in body

    def test_healthz_ok(self, server):
        status, body = _get(server.url, "/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_lookup_endpoint(self):
        index = CandidateIndex(min_shared=1)
        from repro.data.record import Record

        index.add_records(
            [Record(f"r{i}", (f"sony mdr model{i}",), f"e{i}") for i in range(3)]
        )
        service = MatchService(StringSimMatcher(), index=index)
        with MatchHTTPServer(service) as running:
            status, body = _post(
                running.url, {"record": ["sony mdr model1"], "top_k": 2}
            )
        assert status == 200
        assert {m["record_id"] for m in body["matches"]} <= {"r0", "r1", "r2"}


class TestErrorMapping:
    def test_bad_json_is_400(self, server):
        status, body = _post(server.url, b"{nope")
        assert status == 400
        assert body["error"] == "ServingError"

    def test_missing_fields_is_400(self, server):
        status, body = _post(server.url, {"wrong": "shape"})
        assert status == 400
        assert "left" in body["detail"]

    def test_lookup_without_index_is_400(self, server):
        status, body = _post(server.url, {"record": ["a"]})
        assert status == 400
        assert body["error"] == "ServingError"

    def test_unknown_path_is_404(self, server):
        assert _get(server.url, "/nope")[0] == 404
        request = urllib.request.Request(
            server.url + "/other", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        with excinfo.value:
            assert excinfo.value.code == 404


class TestSaturation:
    def test_healthz_degrades_and_match_sheds_when_saturated(self):
        matcher = _GatedMatcher()
        service = MatchService(matcher, max_batch_size=1, max_queue=1)
        with MatchHTTPServer(service) as running:
            blocked = threading.Thread(
                target=_post, args=(running.url, {"left": ["a"], "right": ["a"]}),
                daemon=True,
            )
            blocked.start()
            assert matcher.entered.wait(5.0)
            # Fill the admission queue behind the in-flight batch.
            service._batcher.submit(service.make_pair(["b"], ["b"]))

            status, body = _get(running.url, "/healthz")
            assert status == 503
            assert body["status"] == "degraded"

            status, body = _post(running.url, {"left": ["c"], "right": ["c"]})
            assert status == 429
            assert body["error"] == "OverloadedError"

            matcher.release.set()
            blocked.join(timeout=5.0)
            status, body = _get(running.url, "/healthz")
            assert status == 200


def _headers_of(url: str, path: str = "", data: bytes | None = None) -> tuple[int, dict]:
    """Status and response headers, for error responses too."""
    request = urllib.request.Request(
        url + path, data=data, method="POST" if data is not None else "GET"
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers)


class TestResilienceMapping:
    def test_oversized_body_is_413(self, server):
        from repro.serving.http import MAX_BODY_BYTES

        blob = (
            b'{"left": ["' + b"x" * MAX_BODY_BYTES + b'"], "right": ["x"]}'
        )
        status, body = _post(server.url, blob)
        assert status == 413
        assert body["error"] == "PayloadTooLargeError"

    def test_shed_load_carries_retry_after(self):
        matcher = _GatedMatcher()
        service = MatchService(
            matcher, max_batch_size=1, max_queue=1
        )
        with MatchHTTPServer(service) as running:
            blocked = threading.Thread(
                target=_post,
                args=(running.url, {"left": ["a"], "right": ["a"]}),
                daemon=True,
            )
            blocked.start()
            assert matcher.entered.wait(5.0)
            service._batcher.submit(service.make_pair(["b"], ["b"]))

            payload = json.dumps({"left": ["c"], "right": ["c"]}).encode()
            status, headers = _headers_of(running.url, "/match", data=payload)
            assert status == 429
            assert headers.get("Retry-After") == "1"

            status, headers = _headers_of(running.url, "/healthz")
            assert status == 503
            assert headers.get("Retry-After") == "1"

            matcher.release.set()
            blocked.join(timeout=5.0)

    def test_healthz_degraded_block_lists_causes(self):
        matcher = _GatedMatcher()
        service = MatchService(
            matcher, max_batch_size=1, max_queue=1
        )
        with MatchHTTPServer(service) as running:
            status, body = _get(running.url, "/healthz")
            assert status == 200
            assert body["degraded"]["causes"] == []

            blocked = threading.Thread(
                target=_post,
                args=(running.url, {"left": ["a"], "right": ["a"]}),
                daemon=True,
            )
            blocked.start()
            assert matcher.entered.wait(5.0)
            service._batcher.submit(service.make_pair(["b"], ["b"]))

            status, body = _get(running.url, "/healthz")
            assert status == 503
            assert "saturated" in body["degraded"]["causes"]
            matcher.release.set()
            blocked.join(timeout=5.0)


def _raw(server: MatchHTTPServer, request: bytes) -> tuple[int, dict, bytes]:
    """Send raw bytes on a fresh connection: (status, JSON body, raw head)."""
    with socket.create_connection(server.address, timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body), head


class TestMalformedRequests:
    """Every malformed request gets a 400 with a JSON body naming the error."""

    def test_non_numeric_content_length_is_400(self, server):
        status, body, _ = _raw(
            server, b"POST /match HTTP/1.0\r\nContent-Length: twelve\r\n\r\n{}"
        )
        assert status == 400
        assert body["error"] == "ServingError"
        assert "Content-Length" in body["detail"]

    def test_body_that_is_not_utf8_is_400(self, server):
        payload = b'{"left": ["\xff\xfe"], "right": ["a"]}'
        status, body, _ = _raw(
            server,
            b"POST /match HTTP/1.0\r\nContent-Length: %d\r\n\r\n" % len(payload)
            + payload,
        )
        assert status == 400
        assert body["error"] == "ServingError"

    def test_malformed_request_line_is_400_json(self, server):
        status, body, _ = _raw(server, b"NONSENSE\r\n\r\n")
        assert status == 400
        assert body["error"] == "ServingError"
        assert "request line" in body["detail"]

    @pytest.mark.parametrize("where", ["request line", "header line"])
    def test_line_longer_than_the_reader_limit_is_400(self, server, where):
        filler = b"a" * (MAX_LINE_BYTES + 10)
        if where == "request line":
            request = b"GET /" + filler + b" HTTP/1.0\r\n\r\n"
        else:
            request = b"GET /healthz HTTP/1.0\r\nX-Filler: " + filler + b"\r\n\r\n"
        status, body, _ = _raw(server, request)
        assert status == 400
        assert body["error"] == "ServingError"

    def test_line_far_over_the_limit_gets_its_400_and_a_clean_eof(self, server):
        """Input still unread when the 400 goes out is drained, not reset."""
        request = b"GET /" + b"a" * (256 * 1024) + b" HTTP/1.0\r\n\r\n"
        status, body, _ = _raw(server, request)  # ConnectionResetError on a reset
        assert status == 400
        assert body["error"] == "ServingError"

    def test_unsupported_method_is_501_json(self, server):
        status, body, _ = _raw(server, b"PUT /match HTTP/1.0\r\n\r\n")
        assert status == 501
        assert body["error"] == "NotImplemented"

    def test_response_is_http10_with_its_length(self, server):
        status, body, head = _raw(server, b"GET /healthz HTTP/1.0\r\n\r\n")
        assert status == 200
        assert head.startswith(b"HTTP/1.0 200 OK\r\n")
        assert b"Content-Type: application/json" in head
        assert b"Content-Length: %d" % len(json.dumps(body)) in head


class TestEventLoopFrontEnd:
    def test_listener_keeps_reuseaddr(self, server):
        with socket.socket(fileno=os.dup(server._socket.fileno())) as sock:
            assert sock.getsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR) == 1

    def test_concurrent_clients_get_the_offline_labels(self):
        """16 clients x 25 requests under fast thread switching: all 200.

        Each request goes out in one ``sendall``, as the e2e bench's
        client sends it.  On a host with SYN cookies on, when connects
        overflow the listen backlog, a request that a client splits over
        two segments (``urllib`` sends head and body separately) is now
        and then reset by the kernel before any server sees it, whatever
        serves the socket.
        """
        matcher = StringSimMatcher()
        service = MatchService(matcher)
        trace = [
            ([f"sony mdr {i % 7}", "audio"], [f"sony mdr {i % 5}", "audio"])
            for i in range(400)
        ]
        expected = [
            int(label)
            for label in matcher.predict(
                [service.make_pair(left, right) for left, right in trace]
            )
        ]
        labels: dict[int, tuple[int, int]] = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with MatchHTTPServer(service) as running:

                def client(first: int) -> None:
                    for i in range(first, first + 25):
                        left, right = trace[i]
                        body = json.dumps({"left": left, "right": right}).encode()
                        status, reply, _ = _raw(
                            running,
                            b"POST /match HTTP/1.0\r\nContent-Length: %d\r\n\r\n"
                            % len(body) + body,
                        )
                        labels[i] = (status, reply.get("label"))

                threads = [
                    threading.Thread(target=client, args=(25 * c,)) for c in range(16)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert [labels[i] for i in range(400)] == [(200, label) for label in expected]
        counters = service.metrics()["counters"]
        latency = service.metrics()["latency"]
        assert counters["requests"] == 400
        assert latency["count"] == 400
        assert all(
            counters[key] == 0 for key in ("shed", "timeouts", "errors", "abandoned")
        )

    def test_connects_beyond_six_wait_in_the_backlog_not_on_a_retry(self):
        """16 connects complete before the loop accepts any of them."""
        running = MatchHTTPServer(MatchService(StringSimMatcher()))
        clients = []
        try:
            for _ in range(16):
                clients.append(socket.create_connection(running.address, timeout=0.5))
        finally:
            for client in clients:
                client.close()
            running.stop()
        assert len(clients) == 16

    def test_idle_connection_does_not_delay_healthz(self, server):
        with socket.create_connection(server.address, timeout=10):
            started = time.monotonic()
            status, _body = _get(server.url, "/healthz")
            assert status == 200
            assert time.monotonic() - started < 2.0

    def test_stop_with_a_request_in_flight(self):
        matcher = _GatedMatcher()
        service = MatchService(matcher)
        running = MatchHTTPServer(service).start()
        outcome: list = []

        def client() -> None:
            try:
                outcome.append(_post(running.url, {"left": ["a"], "right": ["a"]}))
            except (OSError, http.client.HTTPException) as error:
                outcome.append(error)

        requester = threading.Thread(target=client)
        requester.start()
        assert matcher.entered.wait(5.0)
        threading.Timer(0.2, matcher.release.set).start()
        started = time.monotonic()
        running.stop()
        assert time.monotonic() - started < 5.0
        requester.join(5.0)
        assert outcome and not requester.is_alive()
        alive = {thread.name for thread in threading.enumerate()}
        assert not alive & {"repro-serving-http", "repro-microbatch"}
        counters = service.metrics()["counters"]
        assert counters["requests"] == 1
        assert counters["abandoned"] + service.metrics()["latency"]["count"] == 1


def _wait_until(condition, timeout_s: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def _post_raw(running: MatchHTTPServer, left: list, right: list) -> tuple[int, dict]:
    """One /match pair sent in one ``sendall``: (status, JSON body)."""
    body = json.dumps({"left": left, "right": right}).encode()
    status, reply, _ = _raw(
        running,
        b"POST /match HTTP/1.0\r\nContent-Length: %d\r\n\r\n" % len(body) + body,
    )
    return status, reply


class TestDeliveryToTheLoop:
    """The loop settles filled slots; a slot never waits on the loop."""

    def test_timed_out_wait_leaves_the_slot_for_the_dispatcher(self):
        """A slot the dispatcher fills after its 504 timer answered is ignored."""
        matcher = _GatedMatcher()
        service = MatchService(matcher, default_budget_s=0.05)
        with MatchHTTPServer(service) as running:
            status, body = _post_raw(running, ["a"], ["a"])
            assert status == 504
            assert body["error"] == "DeadlineExceededError"
            matcher.release.set()
            assert _wait_until(lambda: service._batcher.counters()["processed"] == 1)
            assert _wait_until(lambda: not running._filled_slots)
            assert running._waiting == {}
            assert _get(running.url, "/healthz")[0] == 200
        assert service.metrics()["counters"]["timeouts"] == 1
        assert service.metrics()["latency"]["count"] == 0

    def test_cancelled_wait_leaves_the_slot_for_the_dispatcher(self, caplog):
        """A connection closed by stop() leaves its slot fillable without error."""
        matcher = _GatedMatcher()
        outcome: list = []

        def client() -> None:
            try:
                outcome.append(_post_raw(running, ["a"], ["a"]))
            except (OSError, IndexError) as error:  # reset, or closed unanswered
                outcome.append(error)

        with MatchService(matcher) as service:
            running = MatchHTTPServer(service).start()
            requester = threading.Thread(target=client)
            requester.start()
            assert matcher.entered.wait(5.0)
            # The dispatcher can enter the batch before the loop files the slot.
            assert _wait_until(lambda: len(running._waiting) == 1)
            (pending,) = list(running._waiting)
            running.stop()
            with caplog.at_level(logging.ERROR):
                matcher.release.set()
                assert _wait_until(lambda: pending.done)
            requester.join(5.0)
            assert outcome and not requester.is_alive()
        assert pending.result(0).label == 0
        assert service._batcher.counters()["batch_errors"] == 0
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert service.metrics()["counters"]["abandoned"] == 1

    def test_batch_finishing_after_the_loop_closed_is_ignored(self, caplog):
        running = MatchHTTPServer(MatchService(StringSimMatcher())).start()
        running.stop()
        batcher = MicroBatcher(lambda items, budget: items)
        pending = [batcher.submit(i) for i in range(2)]
        for slot in pending:
            slot.add_done_callback(running._filled)
        with caplog.at_level(logging.ERROR):
            assert batcher.drain() == 1  # delivering to the closed loop raises nothing
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert [p.result(0) for p in pending] == [0, 1]

    def test_delivered_slot_wakes_the_loop(self):
        settled = threading.Event()

        class Waiting:
            def settle(self) -> None:
                settled.set()

        gate = threading.Event()
        with MatchHTTPServer(MatchService(StringSimMatcher())) as running, MicroBatcher(
            lambda items, budget: items if gate.wait(10.0) else []
        ) as batcher:
            pending = batcher.submit(7)
            registered = threading.Event()

            def register() -> None:
                running._waiting[pending] = Waiting()
                registered.set()

            running._loop.call_soon_threadsafe(register)
            assert registered.wait(5.0)
            pending.add_done_callback(running._filled)
            gate.set()
            assert settled.wait(5.0)
        assert pending.result(0) == 7

    def test_a_batch_of_eight_wakes_the_loop_once(self):
        matcher = _GatedMatcher()
        service = MatchService(matcher, max_batch_size=32)
        with MatchHTTPServer(service) as running:
            loop = running._loop
            wakes = []
            call_soon_threadsafe = loop.call_soon_threadsafe

            def counting(callback, *args):
                if threading.current_thread().name == "repro-microbatch":
                    wakes.append(callback)
                return call_soon_threadsafe(callback, *args)

            loop.call_soon_threadsafe = counting
            # A pair submitted past the front-end holds the dispatcher,
            # so the next eight pairs queue and ride one batch.
            service._batcher.submit(service.make_pair(["x"], ["x"]))
            assert matcher.entered.wait(5.0)
            results: dict[int, tuple[int, dict]] = {}

            def client(i: int) -> None:
                results[i] = _post_raw(running, [f"a{i}"], [f"a{i}"])

            clients = [threading.Thread(target=client, args=(i,)) for i in range(8)]
            for thread in clients:
                thread.start()
            assert _wait_until(lambda: service._batcher.queue_depth == 8)
            # Hold the loop while the batch is delivered, so that how the
            # two threads interleave cannot change the count.
            held, release_loop = threading.Event(), threading.Event()

            def hold() -> None:
                held.set()
                release_loop.wait(10.0)

            call_soon_threadsafe(hold)
            assert held.wait(5.0)
            matcher.release.set()
            assert _wait_until(lambda: service._batcher.counters()["processed"] == 9)
            release_loop.set()
            for thread in clients:
                thread.join(10.0)
                assert not thread.is_alive()
        assert len(wakes) == 1
        assert service._batcher.counters()["batches"] == 2
        assert sorted(results) == list(range(8))
        assert all(status == 200 for status, _ in results.values())

    def test_served_connections_are_freed_without_the_collector(self):
        """No request leaves a reference cycle through its connection.

        The client reads its EOF while the loop is still closing the
        transport, so the last connection is waited for; with the
        collector off, one caught in a cycle is never freed.
        """
        gc.collect()
        gc.disable()
        try:
            with MatchHTTPServer(MatchService(StringSimMatcher())) as running:
                for i in range(200):
                    if i % 10 == 9:
                        assert _raw(running, b"GET /healthz HTTP/1.0\r\n\r\n")[0] == 200
                    else:
                        assert _post_raw(running, [f"s{i % 3}"], ["s1"])[0] == 200

                def alive() -> list[_Connection]:
                    return [
                        o for o in gc.get_objects()
                        if isinstance(o, _Connection) and o._server is running
                    ]

                assert _wait_until(lambda: not alive()), f"{len(alive())} alive"
        finally:
            gc.enable()


class TestStartup:
    def test_server_and_artifact_leave_scipy_unloaded(
        self, tmp_path, tiny_config, small_datasets
    ):
        from repro.matchers.anymatch import AnyMatchMatcher
        from repro.serving.artifacts import save_artifact

        matcher = AnyMatchMatcher("gpt2").fit(
            list(small_datasets.values()), tiny_config, seed=0
        )
        directory = save_artifact(matcher, tmp_path / "artifact")
        probe = (
            "import sys\n"
            "import repro.serving.http\n"
            "from repro.serving.artifacts import load_artifact\n"
            f"load_artifact({str(directory)!r})\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            part
            for part in (
                str(Path(repro.__file__).resolve().parent.parent),
                environment.get("PYTHONPATH"),
            )
            if part
        )
        completed = subprocess.run(
            [sys.executable, "-c", probe], env=environment,
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert completed.stdout.strip() == "[]"
