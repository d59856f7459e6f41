"""The serving chaos drill: a routed service survives a misbehaving tier.

One deterministic scenario on a fake clock, four phases driven by
reassigning the :class:`~repro.reliability.faults.FaultInjector` plan
under a live routed :class:`~repro.serving.service.MatchService`:

1. **healthy** — mid-band pairs escalate to the LLM tier and succeed;
2. **flap** — the tier throws transient errors: requests degrade with
   ``backend_failed`` until the breaker opens, then with
   ``breaker_open`` and *zero* calls against the dead tier;
3. **freeze** — the tier answers but only after a long injected stall:
   slow-call reclassification trips the breaker all the same;
4. **recovery** — after each cooldown a half-open probe succeeds and
   the breaker closes, restoring escalation.

The drill's acceptance property is that every request in every phase
gets a structured :class:`~repro.serving.service.MatchResponse` — no
exception ever reaches the caller — and that the full breaker history
is visible on every operator surface at once: ``/metrics`` JSON, the
Prometheus rendering, ``/healthz`` causes, and ``breaker.transition``
obs spans.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.config import StudyConfig
from repro.llm import EchoClient
from repro.matchers import MatchGPTMatcher
from repro.matchers.base import Matcher
from repro.obs.trace import Tracer, install_tracer, uninstall_tracer
from repro.reliability.breaker import (
    CircuitBreaker,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
)
from repro.reliability.clock import FakeClock
from repro.reliability.faults import FaultInjector, FaultPlan
from repro.routing import MatchRouter, RoutedBackend
from repro.serving.service import MatchService


class _MidScorer(Matcher):
    """Scores every pair mid-band, forcing an escalation request."""

    name = "mid"
    display_name = "Mid"

    def _predict(self, pairs, serialization_seed):
        return np.zeros(len(pairs), dtype=np.int64)

    def match_scores(self, pairs, serialization_seed=None):
        return np.full(len(pairs), 0.5)


class _Drill:
    """The assembled stack plus a tiny request driver."""

    def __init__(self, tmp_path) -> None:
        self.clock = FakeClock()
        self.injector = FaultInjector(
            EchoClient(fixed_answer="Yes"), plan=FaultPlan(),
            clock=self.clock,
        )
        authority = MatchGPTMatcher(self.injector).fit(
            [], StudyConfig(name="chaos", seeds=(0,), dataset_scale=0.05)
        )
        self.breaker = CircuitBreaker(
            name="expensive",
            min_requests=3,
            failure_threshold=1.0,
            open_duration_s=10.0,
            half_open_probes=1,
            slow_call_threshold_s=1.0,
            clock=self.clock,
        )
        router = MatchRouter(
            backends=[
                RoutedBackend(
                    name="cheap", matcher=_MidScorer(), low=0.3, high=0.7
                ),
                RoutedBackend(
                    name="expensive", matcher=authority, breaker=self.breaker
                ),
            ],
            clock=self.clock,
        )
        # Unstarted service: deterministic inline dispatch, no threads.
        self.service = MatchService(
            _MidScorer(), router=router, clock=self.clock
        )
        self.tracer = install_tracer(Tracer(tmp_path / "chaos_trace.jsonl"))
        self._sequence = 0

    def request(self):
        """One unique in-band request (a fresh prompt key every time)."""
        self._sequence += 1
        value = f"acme widget {self._sequence}"
        return self.service.match_pair([value], [value])


@pytest.fixture()
def drill(tmp_path):
    d = _Drill(tmp_path)
    yield d
    uninstall_tracer()


class TestServingChaosDrill:
    def test_flap_freeze_and_recovery_without_a_single_error(self, drill):
        responses = []

        # Phase 1 — healthy: escalations reach the LLM tier and match.
        for _ in range(2):
            responses.append(drill.request())
        assert all(r.backend == "expensive" for r in responses)
        assert all(r.matched for r in responses)
        assert drill.breaker.state == STATE_CLOSED

        # Phase 2 — flap: the tier throws on every call.  Requests
        # degrade to the band midpoint instead of erroring, and the
        # third consecutive failure opens the breaker.  (The healthy
        # successes first age out of the rolling window, so the failure
        # rate the breaker sees is the flap's, not the mixture's.)
        drill.clock.advance(drill.breaker.window_s)
        drill.injector.plan = FaultPlan(transient_rate=1.0)
        flapped = [drill.request() for _ in range(3)]
        responses.extend(flapped)
        assert all(r.backend_failed for r in flapped)
        assert all(r.backend == "cheap" for r in flapped)
        assert drill.breaker.state == STATE_OPEN

        # While open, traffic degrades without touching the dead tier.
        calls_when_opened = drill.injector._attempts.copy()
        opened = [drill.request() for _ in range(2)]
        responses.extend(opened)
        assert all(r.breaker_open for r in opened)
        assert drill.injector._attempts == calls_when_opened

        # The open breaker is a health cause, not an availability loss.
        health = drill.service.healthz()
        assert health["status"] == "degraded"
        assert "breaker_open:expensive" in health["degraded"]["causes"]
        assert drill.service.metrics()["resilience"]["breakers"][
            "expensive"
        ]["state"] == STATE_OPEN
        assert 'breaker_state{backend="expensive"} 1' in (
            drill.service.prometheus_metrics()
        )

        # Phase 3 — recovery: the fault clears, the cooldown elapses,
        # and a single successful probe closes the breaker.
        drill.injector.plan = FaultPlan()
        drill.clock.advance(10.0)
        assert drill.breaker.state == STATE_HALF_OPEN
        probe = drill.request()
        responses.append(probe)
        assert probe.backend == "expensive"
        assert drill.breaker.state == STATE_CLOSED

        # Phase 4 — freeze: the tier still answers, but each call stalls
        # far past the slow-call threshold; the stall is reclassified as
        # failure and the breaker opens again without a single error.
        drill.injector.plan = FaultPlan(latency_rate=1.0, latency_s=5.0)
        frozen = [drill.request() for _ in range(3)]
        responses.extend(frozen)
        assert all(r.backend == "expensive" for r in frozen)
        assert all(r.matched for r in frozen)
        assert drill.breaker.state == STATE_OPEN
        assert drill.breaker.counters["slow_calls"] == 3
        shed = drill.request()
        responses.append(shed)
        assert shed.breaker_open

        # Final recovery: unfreeze, cool down, probe, closed again.
        drill.injector.plan = FaultPlan()
        drill.clock.advance(10.0)
        final = drill.request()
        responses.append(final)
        assert final.backend == "expensive"
        assert drill.breaker.state == STATE_CLOSED

        # The headline property: every request in every phase got a
        # structured answer — nothing raised, nothing hung, no error
        # or timeout was ever counted.
        assert len(responses) == 13
        counters = drill.service.stats.counters
        assert counters["requests"] == 13
        assert counters["errors"] == 0
        assert counters["timeouts"] == 0
        assert drill.service.router.counters["backend_failures"] == 3
        assert drill.service.router.counters["breaker_open"] == 3

        # The full open/probe/close history is on the wire: twice
        # around the state machine, in order.
        states = [s for _t, s in drill.breaker.transitions]
        assert states == [
            STATE_OPEN, STATE_HALF_OPEN, STATE_CLOSED,
            STATE_OPEN, STATE_HALF_OPEN, STATE_CLOSED,
        ]
        assert drill.service.metrics()["resilience"]["breakers"][
            "expensive"
        ]["state"] == STATE_CLOSED
        assert 'breaker_state{backend="expensive"} 0' in (
            drill.service.prometheus_metrics()
        )

        # ...and in the trace: every transition emitted an obs span.
        drill.tracer.flush()
        records = [
            json.loads(line)
            for line in drill.tracer.path.read_text().splitlines()
        ]
        transitions = [
            r["attrs"]["to"]
            for r in records
            if r["kind"] == "span" and r["name"] == "breaker.transition"
        ]
        assert transitions == states
