"""Wiring: calibrate a routing ladder and attach it to the serving stack.

:mod:`repro.routing.policy` knows how to *decide*; this module knows how
to *assemble*.  Three pieces of glue:

* :func:`calibrate_band` turns a held-out labelled split into the
  ``(low, high)`` confidence band one ladder rung needs, via
  :func:`repro.eval.calibration.confidence_band` over the rung's own
  ``match_scores``.
* :func:`build_cascade_router` assembles the canonical two-rung ladder
  (cheap scorer gated by a calibrated band, expensive authority) — the
  serve-time twin of :class:`~repro.matchers.cascade.CascadeMatcher`,
  with optional token-dollar budgets.
* :func:`routed_service` loads a matcher artifact, arms a
  :class:`~repro.routing.drift.DriftMonitor` from the routing profile
  embedded in its manifest (when present), and composes a routed
  :class:`~repro.serving.service.MatchService` in one call.

The serving imports happen inside :func:`routed_service`, keeping
``import repro.routing`` cheap and cycle-free: serving never imports
routing at module level, and routing only touches serving when asked to
build a service.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..data.pairs import RecordPair
from ..errors import ConfigurationError
from ..eval.calibration import confidence_band
from ..matchers.base import Matcher
from ..reliability.breaker import CircuitBreaker
from ..reliability.clock import Clock
from .drift import DriftMonitor
from .policy import MatchRouter, RoutedBackend, SpendLedger

__all__ = ["calibrate_band", "build_cascade_router", "routed_service"]


def calibrate_band(
    matcher: Matcher,
    pairs: Sequence[RecordPair],
    min_purity: float = 0.95,
    seed: int | None = None,
) -> tuple[float, float]:
    """The ``(low, high)`` confidence band of ``matcher`` on a held-out split.

    Scores ``pairs`` with the matcher's own ``match_scores`` (the same
    scores the router will see at serve time — calibrating on anything
    else would be self-deception) and hands the labelled scores to
    :func:`repro.eval.calibration.confidence_band`.  ``seed`` is the
    serialization seed forwarded to ``match_scores``.
    """
    if not hasattr(matcher, "match_scores"):
        raise ConfigurationError(
            f"{matcher.display_name} exposes no match_scores(); "
            "it cannot be band-calibrated"
        )
    pairs = list(pairs)
    if not pairs:
        raise ConfigurationError("cannot calibrate a band on zero pairs")
    labels = np.array([p.label for p in pairs], dtype=np.int64)
    scores = np.asarray(matcher.match_scores(pairs, seed), dtype=np.float64)
    return confidence_band(labels, scores, min_purity=min_purity)


def build_cascade_router(
    cheap: Matcher,
    expensive: Matcher,
    calibration_pairs: Sequence[RecordPair],
    min_purity: float = 0.95,
    cheap_name: str = "cheap",
    expensive_name: str = "expensive",
    cheap_price_per_1k_tokens: float = 0.0,
    expensive_price_per_1k_tokens: float = 0.0,
    per_request_budget_usd: float | None = None,
    ledger: SpendLedger | None = None,
    serialization_seed: int | None = None,
    clock: Clock | None = None,
    escalation_breaker: CircuitBreaker | None = None,
) -> MatchRouter:
    """Assemble the canonical cheap-then-expensive two-rung router.

    The cheap rung's band is calibrated on ``calibration_pairs`` at
    ``min_purity`` (scores outside the band decide locally; the open
    interval escalates to ``expensive``).  Prices are dollars per 1k
    input tokens as :mod:`repro.llm.pricing` publishes them; budgets and
    ledger are forwarded to :class:`~repro.routing.policy.MatchRouter`
    untouched.  ``escalation_breaker`` (optional) is attached to the
    expensive rung so a failing or frozen authority is isolated and the
    router degrades to the cheap rung's band midpoint instead of
    erroring (see ``docs/FAILURE_SEMANTICS.md`` §9).
    """
    low, high = calibrate_band(
        cheap, calibration_pairs, min_purity=min_purity, seed=serialization_seed
    )
    return MatchRouter(
        backends=[
            RoutedBackend(
                name=cheap_name,
                matcher=cheap,
                price_per_1k_tokens=cheap_price_per_1k_tokens,
                low=low,
                high=high,
            ),
            RoutedBackend(
                name=expensive_name,
                matcher=expensive,
                price_per_1k_tokens=expensive_price_per_1k_tokens,
                breaker=escalation_breaker,
            ),
        ],
        per_request_budget_usd=per_request_budget_usd,
        ledger=ledger,
        serialization_seed=serialization_seed,
        clock=clock,
    )


def routed_service(
    artifact_directory,
    router: MatchRouter,
    drift_window: int = 512,
    min_overlap: float = 0.5,
    max_skew: float = 0.25,
    shadow=None,
    **service_kwargs,
):
    """A routed :class:`~repro.serving.service.MatchService` from an artifact.

    Loads the matcher artifact under ``artifact_directory`` (it names
    the service on ``/healthz``; every request is scored by ``router``), arms
    a :class:`~repro.routing.drift.DriftMonitor` from the routing
    profile embedded in the manifest — services from profile-less
    artifacts simply run without drift monitoring — and composes the
    service around ``router``.  ``shadow`` is an optional
    :class:`~repro.routing.shadow.ShadowEvaluator`; remaining keyword
    arguments pass through to the service constructor.
    """
    # Lazy: touching repro.serving only when a service is actually built
    # keeps `import repro.routing` free of the serving stack (and of any
    # import cycle through it).
    from ..serving.artifacts import load_artifact, load_routing_profile
    from ..serving.service import MatchService

    matcher = load_artifact(artifact_directory)
    profile = load_routing_profile(artifact_directory)
    monitor = None
    if profile is not None:
        monitor = DriftMonitor(
            profile,
            window=drift_window,
            min_overlap=min_overlap,
            max_skew=max_skew,
            clock=router.clock,
        )
    return MatchService(
        matcher,
        router=router,
        drift_monitor=monitor,
        shadow=shadow,
        **service_kwargs,
    )
