"""Integration tests: routed MatchService, HTTP /router, artifact profile."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.errors import ConfigurationError, TransientLLMError
from repro.llm.client import EchoClient
from repro.matchers.base import Matcher
from repro.matchers.matchgpt import MatchGPTMatcher
from repro.matchers.string_sim import StringSimMatcher
from repro.reliability.breaker import CircuitBreaker
from repro.reliability.clock import FakeClock
from repro.routing import (
    DriftMonitor,
    MatchRouter,
    RoutedBackend,
    ShadowEvaluator,
    build_cascade_router,
    calibrate_band,
    capture_profile,
    routed_service,
)
from repro.serving.artifacts import load_routing_profile, save_artifact
from repro.serving.http import MatchHTTPServer
from repro.serving.service import MatchService
from tests.conftest import make_pair

TRACE = [
    (["sony mdr headphones", "audio"], ["sony mdr headphones", "audio"]),
    (["sony mdr headphones", "audio"], ["nikon lens kit", "optics"]),
    (["ipa beer 6.5 abv", "hoppy"], ["ipa beer 6.5 abv", "hoppy"]),
    (["canon eos camera", "photo"], ["canon eos r5", "photo"]),
] * 3


def _router(price: float = 0.015, **kwargs) -> MatchRouter:
    expensive = MatchGPTMatcher(EchoClient("Yes"))
    expensive.fit([], None, seed=0)
    return MatchRouter(
        backends=[
            RoutedBackend(
                name="string_sim", matcher=StringSimMatcher(), low=0.25, high=0.65
            ),
            RoutedBackend(
                name="echo-llm", matcher=expensive, price_per_1k_tokens=price
            ),
        ],
        **kwargs,
    )


def _profile_pairs():
    return [
        make_pair(
            ("sony mdr headphones audio",), ("sony mdr headphones audio",),
            label=i % 3 == 0, pair_id=f"prof-{i}",
        )
        for i in range(12)
    ]


class _FailOnceAuthority(Matcher):
    """Answers 1 but fails its first call with a library error."""

    name = "authority"
    display_name = "Authority"

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def _predict(self, pairs, serialization_seed):
        self.calls += 1
        if self.calls == 1:
            raise TransientLLMError("authority down")
        return np.ones(len(pairs), dtype=np.int64)


def _prometheus_samples(text: str) -> dict[str, float]:
    """``{series{labels}: value}`` for every sample line of a render."""
    samples = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            samples[series] = float(value)
    return samples


def _get(url: str, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url + path, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _post(url: str, path: str, payload: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        url + path, data=json.dumps(payload).encode(), method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestRoutedService:
    def test_responses_carry_provenance(self):
        service = MatchService(
            StringSimMatcher(), router=_router(), clock=FakeClock()
        )
        responses = [
            service.match_pair(left, right) for left, right in TRACE
        ]
        backends = {r.backend for r in responses}
        assert backends <= {"string_sim", "echo-llm"}
        assert "string_sim" in backends  # identical pairs decide cheap
        escalated = [r for r in responses if r.escalated]
        assert escalated and all(r.backend == "echo-llm" for r in escalated)
        assert all(r.spend_usd > 0 for r in escalated)
        assert all(
            r.spend_usd == 0.0 for r in responses if not r.escalated
        )

    def test_unrouted_responses_name_the_matcher(self):
        service = MatchService(StringSimMatcher(), clock=FakeClock())
        response = service.match_pair(*TRACE[0])
        assert response.backend == "string_sim"
        assert response.escalated is False
        assert response.spend_usd == 0.0

    def test_unrouted_service_is_a_one_rung_router(self):
        """A plain service and one given the same ladder explicitly agree."""
        runs = []
        for router in (
            None,
            MatchRouter([RoutedBackend(name="string_sim", matcher=StringSimMatcher())]),
        ):
            service = MatchService(StringSimMatcher(), router=router, clock=FakeClock())
            responses = [service.match_pair(left, right) for left, right in TRACE]
            runs.append((responses, service.metrics()))
        assert runs[0] == runs[1]

    def test_metrics_routing_block(self):
        monitor = DriftMonitor(
            capture_profile(_profile_pairs()), window=4, clock=FakeClock()
        )
        service = MatchService(
            StringSimMatcher(), router=_router(), drift_monitor=monitor,
            clock=FakeClock(),
        )
        for left, right in TRACE:
            service.match_pair(left, right)
        metrics = service.metrics()
        assert metrics["routing"]["counters"]["requests"] == len(TRACE)
        assert metrics["routing"]["counters"]["escalations"] > 0
        assert metrics["routing"]["drift"]["pairs_seen"] == len(TRACE)
        assert metrics["routing"]["drift"]["windows_completed"] == len(TRACE) // 4
        assert metrics["routing"]["counters"]["spend_usd"] > 0

    def test_unrouted_metrics_schema_is_stable(self):
        service = MatchService(StringSimMatcher(), clock=FakeClock())
        metrics = service.metrics()
        assert metrics["routing"] == {
            "counters": service.router_state()["router"]["counters"],
            "drift": None,
        }
        assert metrics["routing"]["counters"]["requests"] == 0
        assert metrics["routing"]["counters"]["escalations"] == 0
        backends = service.router_state()["router"]["backends"]
        assert [(b["name"], b["band"]) for b in backends] == [("string_sim", None)]

    def test_router_state_block(self):
        shadow = ShadowEvaluator(StringSimMatcher(), fraction=1.0, min_samples=2)
        service = MatchService(
            StringSimMatcher(), router=_router(), shadow=shadow,
            clock=FakeClock(),
        )
        for left, right in TRACE:
            service.match_pair(left, right)
        state = service.router_state()
        assert {b["name"] for b in state["router"]["backends"]} == {
            "string_sim", "echo-llm"
        }
        assert state["drift"] is None
        assert state["shadow"]["samples"] == len(TRACE)
        assert state["shadow"]["decision"] in {"promote", "hold", "reject"}

    def test_prometheus_carries_router_series(self):
        service = MatchService(
            StringSimMatcher(), router=_router(), clock=FakeClock()
        )
        service.match_pair(*TRACE[0])
        text = service.prometheus_metrics()
        assert "router_requests_total" in text
        assert "router_spend_usd_total" in text

    def test_json_and_prometheus_views_agree(self):
        """Both renderings of /metrics carry the same value for every count."""
        clock = FakeClock()
        breaker = CircuitBreaker(
            name="authority", min_requests=1, failure_threshold=1.0, clock=clock
        )
        router = MatchRouter(
            backends=[
                RoutedBackend(
                    name="string_sim", matcher=StringSimMatcher(),
                    low=0.25, high=0.65,
                ),
                RoutedBackend(
                    name="authority", matcher=_FailOnceAuthority(),
                    price_per_1k_tokens=0.015, breaker=breaker,
                ),
            ],
            clock=clock,
        )
        service = MatchService(StringSimMatcher(), router=router, clock=clock)
        for left, right in TRACE:
            service.match_pair(left, right)
        metrics = service.metrics()
        samples = _prometheus_samples(service.prometheus_metrics())

        routing = metrics["routing"]["counters"]
        assert routing["backend_failures"] >= 1
        assert routing["breaker_open"] >= 1
        assert routing["spend_usd"] > 0
        expected = {f"serving_{k}_total": v for k, v in metrics["counters"].items()}
        expected["serving_latency_measurements_total"] = metrics["latency"]["count"]
        expected.update(
            (f"scheduler_{k}_total", v)
            for k, v in metrics["scheduler"].items()
            if k != "mean_occupancy"
        )
        expected.update((f"router_{k}_total", v) for k, v in routing.items())
        for name, state in metrics["resilience"]["breakers"].items():
            expected[f'breaker_opens_total{{backend="{name}"}}'] = (
                state["counters"]["opens"]
            )
        assert expected['breaker_opens_total{backend="authority"}'] == 1
        assert {series: samples[series] for series in expected} == expected
        unmatched = [
            series for series in samples
            if series.startswith(("serving_", "router_"))
            and series.endswith("_total")
            and series not in expected
        ]
        assert unmatched == []

    def test_routed_replay_is_deterministic(self):
        runs = []
        for _ in range(2):
            service = MatchService(
                StringSimMatcher(), router=_router(), clock=FakeClock()
            )
            labels = [service.match_pair(l, r).label for l, r in TRACE]
            runs.append((labels, service.metrics()))
        assert runs[0] == runs[1]


class TestHTTPRouterEndpoint:
    def test_get_router_on_routed_service(self):
        service = MatchService(StringSimMatcher(), router=_router(), max_wait_ms=1.0)
        with MatchHTTPServer(service) as server:
            status, body = _get(server.url, "/router")
            assert status == 200
            assert body["router"]["counters"]["requests"] == 0
            status, metrics = _get(server.url, "/metrics")
            assert metrics["routing"]["counters"] == body["router"]["counters"]

    def test_get_router_on_unrouted_service(self):
        service = MatchService(StringSimMatcher(), max_wait_ms=1.0)
        with MatchHTTPServer(service) as server:
            status, body = _get(server.url, "/router")
            assert status == 200
            assert [b["name"] for b in body["router"]["backends"]] == ["string_sim"]
            status, metrics = _get(server.url, "/metrics")
            assert metrics["routing"]["counters"] == body["router"]["counters"]

    def test_post_match_carries_provenance(self):
        service = MatchService(StringSimMatcher(), router=_router(), max_wait_ms=1.0)
        with MatchHTTPServer(service) as server:
            left, right = TRACE[0]
            status, body = _post(
                server.url, "/match", {"left": left, "right": right}
            )
            assert status == 200
            assert body["backend"] in ("string_sim", "echo-llm")
            assert body["escalated"] in (True, False)
            assert body["spend_usd"] >= 0.0

    def test_post_match_names_the_matcher_when_unrouted(self):
        service = MatchService(StringSimMatcher(), max_wait_ms=1.0)
        with MatchHTTPServer(service) as server:
            left, right = TRACE[0]
            status, body = _post(
                server.url, "/match", {"left": left, "right": right}
            )
            assert status == 200
            assert body["backend"] == "string_sim"
            assert body["escalated"] is False
            assert body["spend_usd"] == 0.0


class TestCalibration:
    def test_calibrate_band_orders(self):
        pairs = [
            make_pair(("sony mdr headphones",), ("sony mdr headphones",), 1, f"m{i}")
            for i in range(10)
        ] + [
            make_pair(("sony mdr headphones",), ("zebra print rug",), 0, f"n{i}")
            for i in range(10)
        ]
        low, high = calibrate_band(StringSimMatcher(), pairs, min_purity=0.9)
        assert 0.0 <= low < high <= 1.0

    def test_calibrate_band_rejects_scoreless_matcher(self):
        class _NoScores(Matcher):
            name = "noscores"
            display_name = "NoScores"

            def _predict(self, pairs, serialization_seed):
                return np.zeros(len(pairs), dtype=np.int64)

        with pytest.raises(ConfigurationError, match="match_scores"):
            calibrate_band(_NoScores(), _profile_pairs())

    def test_calibrate_band_rejects_empty(self):
        with pytest.raises(ConfigurationError, match="zero pairs"):
            calibrate_band(StringSimMatcher(), [])

    def test_build_cascade_router_shape(self):
        pairs = [
            make_pair(("alpha beta gamma",), ("alpha beta gamma",), 1, f"m{i}")
            for i in range(8)
        ] + [
            make_pair(("alpha beta gamma",), ("delta epsilon zeta",), 0, f"n{i}")
            for i in range(8)
        ]
        expensive = MatchGPTMatcher(EchoClient("Yes"))
        expensive.fit([], None, seed=0)
        router = build_cascade_router(
            StringSimMatcher(), expensive, pairs,
            min_purity=0.9, expensive_price_per_1k_tokens=0.015,
        )
        assert len(router.backends) == 2
        assert router.backends[0].banded
        assert not router.backends[1].banded
        assert router.backends[1].price_per_1k_tokens == 0.015


class TestArtifactProfile:
    def test_profile_round_trips_through_manifest(self, tmp_path):
        profile = capture_profile(_profile_pairs(), vocabulary_size=16)
        save_artifact(
            StringSimMatcher(), tmp_path / "artifact", routing_profile=profile
        )
        assert load_routing_profile(tmp_path / "artifact") == profile

    def test_profileless_artifact_loads_none(self, tmp_path):
        save_artifact(StringSimMatcher(), tmp_path / "artifact")
        assert load_routing_profile(tmp_path / "artifact") is None

    def test_routed_service_arms_drift_from_artifact(self, tmp_path):
        profile = capture_profile(_profile_pairs(), vocabulary_size=16)
        save_artifact(
            StringSimMatcher(), tmp_path / "artifact", routing_profile=profile
        )
        service = routed_service(
            tmp_path / "artifact", _router(), drift_window=4, clock=FakeClock()
        )
        assert service.drift_monitor is not None
        assert service.drift_monitor.profile == profile
        assert service.drift_monitor.window == 4
        response = service.match_pair(*TRACE[0])
        assert response.backend is not None
        assert service.metrics()["routing"]["drift"]["pairs_seen"] == 1

    def test_routed_service_without_profile_runs_unmonitored(self, tmp_path):
        save_artifact(StringSimMatcher(), tmp_path / "artifact")
        service = routed_service(tmp_path / "artifact", _router())
        assert service.drift_monitor is None
        assert service.metrics()["routing"]["drift"] is None
