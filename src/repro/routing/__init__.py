"""Adaptive routing: cost/SLO-aware dispatch, drift watch, shadow gate.

The paper's cost-vs-quality frontier (a cheap scorer answers most pairs;
the expensive model earns its price only on the uncertain tail) becomes
a *serving* subsystem here, in four parts:

* :mod:`~repro.routing.policy` — :class:`MatchRouter` dispatches each
  request across an ordered ladder of backends using calibrated
  confidence bands, under per-request and rolling token-dollar budgets.
* :mod:`~repro.routing.drift` — a :class:`DriftMonitor` with bounded
  streaming state (one count-min sketch per window) scores live traffic
  against the :class:`RoutingProfile` captured at artifact-export time
  (its vocabulary drawn by a seeded reservoir sample): domain overlap
  and positive-rate skew, the two signals the study found predictive
  of transfer quality.
* :mod:`~repro.routing.shadow` — :class:`ShadowEvaluator` scores a
  candidate artifact on a deterministic fraction of live traffic and
  gates promotion on agreement with the primary.
* :mod:`~repro.routing.wiring` — glue that calibrates bands, assembles
  the canonical cascade router, and composes a routed
  :class:`~repro.serving.service.MatchService` from an artifact.

See ``docs/ROUTING.md`` for the operator-facing walkthrough and
``benchmarks/bench_routing.py`` for the cost/quality numbers.
"""

from .drift import (
    CountMinSketch,
    DriftEvent,
    DriftMonitor,
    DriftScores,
    ReservoirSample,
    RoutingProfile,
    capture_profile,
    pair_tokens,
)
from .policy import (
    PROMPT_OVERHEAD_TOKENS,
    MatchRouter,
    RouteDecision,
    RoutedBackend,
    SpendLedger,
    request_tokens,
)
from .shadow import ShadowEvaluator
from .wiring import build_cascade_router, calibrate_band, routed_service

__all__ = [
    "PROMPT_OVERHEAD_TOKENS",
    "request_tokens",
    "RoutedBackend",
    "RouteDecision",
    "SpendLedger",
    "MatchRouter",
    "pair_tokens",
    "CountMinSketch",
    "ReservoirSample",
    "RoutingProfile",
    "capture_profile",
    "DriftScores",
    "DriftEvent",
    "DriftMonitor",
    "ShadowEvaluator",
    "calibrate_band",
    "build_cascade_router",
    "routed_service",
]
