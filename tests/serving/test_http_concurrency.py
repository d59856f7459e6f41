"""Concurrent HTTP error mapping: exact status partitioning under stress.

Drives parallel POSTs into a deliberately tiny service (one in-flight
batch, a two-slot queue) during injected overload and with an open
circuit breaker, and asserts the *exact* partition of status codes —
not just "some failed" — plus that every error body names its error
type.  This pins the property the resilience control plane exists for:
clients always get a structured answer, never a hang or a bare 500.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.matchers.base import Matcher
from repro.reliability.breaker import CircuitBreaker, STATE_OPEN
from repro.routing import MatchRouter, RoutedBackend
from repro.serving.http import MatchHTTPServer
from repro.serving.service import MatchService


def _post(url: str, payload: dict) -> tuple[int, dict]:
    data = json.dumps(payload).encode()
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
    """Blocks inside predict until released."""

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


class _MidScorer(Matcher):
    """Scores every pair mid-band, forcing an escalation request."""

    name = "mid"
    display_name = "Mid"

    def _predict(self, pairs, serialization_seed):
        return np.zeros(len(pairs), dtype=np.int64)

    def match_scores(self, pairs, serialization_seed=None):
        return np.full(len(pairs), 0.5)


class _ConstantMatcher(Matcher):
    """Always answers 1; counts calls."""

    name = "constant"
    display_name = "Constant"

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def _predict(self, pairs, serialization_seed):
        self.calls += 1
        return np.ones(len(pairs), dtype=np.int64)


class TestOverloadPartitioning:
    def test_exact_status_partition_under_concurrent_overload(self):
        matcher = _GatedMatcher()
        service = MatchService(
            matcher,
            max_batch_size=1,
            max_queue=2,
            default_budget_s=0.3,
        )
        with MatchHTTPServer(service) as running:
            with ThreadPoolExecutor(max_workers=6) as pool:
                payload = {"left": ["a"], "right": ["a"]}
                # Phase 1: one request enters the (gated) batch.
                first = pool.submit(_post, running.url, payload)
                assert matcher.entered.wait(5.0)
                # Phase 2: two more fill the admission queue exactly.
                queued = [pool.submit(_post, running.url, payload) for _ in range(2)]
                deadline = threading.Event()
                for _ in range(200):
                    if service._batcher.queue_depth >= 2:
                        break
                    deadline.wait(0.01)
                assert service._batcher.queue_depth == 2
                # Phase 3: saturated — healthz fails, new posts shed.
                status, body = _get(running.url, "/healthz")
                assert status == 503
                assert "saturated" in body["degraded"]["causes"]
                shed = [pool.submit(_post, running.url, payload) for _ in range(3)]
                outcomes = [f.result() for f in [first, *queued, *shed]]
            statuses = sorted(code for code, _body in outcomes)
            # Exact partition: 3 deadline expiries + 3 sheds, nothing else.
            assert statuses == [429, 429, 429, 504, 504, 504]
            for code, body in outcomes:
                assert body["error"] in ("OverloadedError", "DeadlineExceededError")
                if code == 429:
                    assert body["error"] == "OverloadedError"
                if code == 504:
                    assert body["error"] == "DeadlineExceededError"
            matcher.release.set()
            # Recovery: the queue drains and the service serves again.
            for _ in range(200):
                if service._batcher.queue_depth == 0:
                    break
                threading.Event().wait(0.01)
            status, _body = _get(running.url, "/healthz")
            assert status == 200

    def test_open_breaker_serves_degraded_200s_not_errors(self):
        authority = _ConstantMatcher()
        breaker = CircuitBreaker(
            name="expensive",
            min_requests=1,
            failure_threshold=1.0,
            open_duration_s=600.0,
        )
        breaker.record_failure(1)
        assert breaker.state == STATE_OPEN
        router = MatchRouter(
            backends=[
                RoutedBackend(
                    name="cheap", matcher=_MidScorer(), low=0.3, high=0.7
                ),
                RoutedBackend(
                    name="expensive", matcher=authority, breaker=breaker
                ),
            ],
        )
        service = MatchService(_MidScorer(), router=router)
        with MatchHTTPServer(service) as running:
            payload = {"left": ["a"], "right": ["a"]}
            with ThreadPoolExecutor(max_workers=4) as pool:
                outcomes = [
                    f.result()
                    for f in [pool.submit(_post, running.url, payload) for _ in range(8)]
                ]
            # Every request got a degraded answer, not an error.
            assert [code for code, _ in outcomes] == [200] * 8
            for _code, body in outcomes:
                assert body["breaker_open"] is True
                assert body["backend"] == "cheap"
            assert authority.calls == 0
            # The open breaker degrades health but not availability.
            status, body = _get(running.url, "/healthz")
            assert status == 503
            assert body["status"] == "degraded"
            assert "breaker_open:expensive" in body["degraded"]["causes"]
