"""Cost/SLO-aware routing policy: which matcher answers which request.

The paper's central result is a cost-vs-quality frontier (Tables 5-6,
Figure 3): a cheap scorer answers most pairs nearly as well as a hosted
LLM, and the hard tail is where the expensive model earns its price.
The offline :class:`~repro.matchers.cascade.CascadeMatcher` exploits
that split batch-at-a-time; :class:`MatchRouter` is its serve-time
counterpart — it dispatches each live request across an ordered ladder
of *backends* (cheap scorer -> surrogate -> LLM matcher) and adds the
two concerns only a serving system has:

* **Confidence-banded escalation.**  Every non-final backend carries a
  ``(low, high)`` band calibrated offline via
  :func:`repro.eval.calibration.confidence_band`: scores outside the
  band decide immediately (``>= high`` match, ``<= low`` non-match),
  scores inside escalate to the next rung.  With no budgets configured
  a two-rung router reproduces the offline cascade's decisions exactly
  (the parity tests pin this).
* **Token-dollar budgets.**  Escalation to a priced backend is charged
  against a per-request cap and a rolling-window :class:`SpendLedger`
  (priced via :mod:`repro.llm.pricing`-style dollars per 1k input
  tokens).  A pair the budget cannot afford is *decided at the current
  rung* — the router degrades to the cheaper answer instead of failing
  the request — and flagged ``budget_limited`` in its decision.

A third serving-only concern joined in the resilience control plane
(see ``docs/FAILURE_SEMANTICS.md`` §9):

* **Backend isolation and deadline degradation.**  Each rung may carry
  a :class:`~repro.reliability.breaker.CircuitBreaker`; escalation to a
  rung whose breaker is open is *decided at the current rung* (band
  midpoint, flagged ``breaker_open``), a rung call that raises degrades
  the affected pairs the same way (flagged ``backend_failed``) while
  feeding the breaker, and a request whose
  :class:`~repro.reliability.budget.DeadlineBudget` ran out before an
  escalation is decided immediately (flagged ``deadline_limited``).
  The router therefore *always answers*: only an entry-rung failure —
  where no cheaper answer exists — propagates to the caller.

Determinism: pairs are charged and decided in submission order, the
ledger's window is pruned on an injectable
:class:`~repro.reliability.clock.Clock`, and no unseeded randomness is
involved anywhere — the same request trace over the same clock yields
byte-identical decisions, which the routing determinism test pins.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..data.pairs import RecordPair
from ..data.serialize import serialize_pair
from ..errors import ConfigurationError, ReproError
from ..llm.tokens import count_tokens
from ..matchers.base import Matcher
from ..obs.trace import span
from ..reliability.breaker import CircuitBreaker
from ..reliability.budget import DeadlineBudget
from ..reliability.clock import Clock, SystemClock

__all__ = [
    "PROMPT_OVERHEAD_TOKENS",
    "request_tokens",
    "RoutedBackend",
    "RouteDecision",
    "SpendLedger",
    "MatchRouter",
]

#: Fixed token allowance for what a zero-shot match prompt wraps around
#: the pair serialisation (task header + entity/answer scaffold) — the
#: same order of magnitude :func:`repro.llm.tokens.count_tokens` reports
#: for the canonical *general-complex-force* prompt frame.
PROMPT_OVERHEAD_TOKENS = 32


def request_tokens(pair: RecordPair) -> int:
    """Input tokens one pair costs when sent to a prompt-based backend.

    The canonical column order is used (the routed prompt's permutation
    does not change its token count materially, and pricing must be a
    pure function of the pair), plus the fixed zero-shot prompt overhead.
    """
    return PROMPT_OVERHEAD_TOKENS + count_tokens(serialize_pair(pair, seed=None))


@dataclass(frozen=True)
class RoutedBackend:
    """One rung of the routing ladder.

    Non-final rungs need a ``(low, high)`` confidence band and a matcher
    exposing ``match_scores``; the final rung is the authority and only
    its ``predict`` is called.  ``price_per_1k_tokens`` is the backend's
    input price in dollars (0 for locally-hosted matchers), the unit
    :mod:`repro.llm.pricing` publishes.  ``breaker`` (optional) is the
    rung's :class:`~repro.reliability.breaker.CircuitBreaker`: the
    router consults it before escalating *to* this rung and feeds it
    the outcome of every call made to the rung.
    """

    name: str
    matcher: Matcher
    price_per_1k_tokens: float = 0.0
    low: float | None = None
    high: float | None = None
    breaker: CircuitBreaker | None = None

    def __post_init__(self) -> None:
        """Validate the price and (when present) the confidence band."""
        if self.price_per_1k_tokens < 0:
            raise ConfigurationError(f"{self.name}: price must be non-negative")
        if (self.low is None) != (self.high is None):
            raise ConfigurationError(
                f"{self.name}: low and high must be set together"
            )
        if self.low is not None and not 0.0 <= self.low < self.high <= 1.0:
            raise ConfigurationError(
                f"{self.name}: need 0 <= low < high <= 1, got "
                f"({self.low}, {self.high})"
            )

    @property
    def banded(self) -> bool:
        """Whether this rung carries a confidence band (non-final rungs)."""
        return self.low is not None

    def spend_usd(self, tokens: int) -> float:
        """Dollar cost of sending ``tokens`` input tokens to this backend."""
        return tokens / 1000.0 * self.price_per_1k_tokens

    def pair_cost_usd(self, pair: RecordPair) -> float:
        """Dollar cost of sending ``pair`` to this backend.

        An unpriced backend costs nothing, so its pairs are never
        tokenized (:func:`request_tokens` is the router's costliest
        per-pair step).
        """
        if self.price_per_1k_tokens <= 0:
            return 0.0
        return self.spend_usd(request_tokens(pair))


@dataclass(frozen=True)
class RouteDecision:
    """The provenance of one routed request's answer."""

    #: Predicted label (1 = match).
    label: int
    #: Name of the backend that produced the final answer.
    backend: str
    #: Whether the request escalated past the first rung.
    escalated: bool
    #: Dollars spent on this request across every rung it touched.
    spend_usd: float
    #: Whether a budget stopped an escalation the bands asked for.
    budget_limited: bool = False
    #: Whether an open circuit breaker stopped an escalation (decided
    #: at the current rung's band midpoint instead).
    breaker_open: bool = False
    #: Whether the escalated backend's call failed and the decision
    #: fell back to the last healthy rung's band midpoint.
    backend_failed: bool = False
    #: Whether the request's deadline budget ran out before an
    #: escalation and the decision was taken at the current rung.
    deadline_limited: bool = False


class SpendLedger:
    """A rolling token-dollar budget over an injectable clock.

    Charges append ``(timestamp, dollars)`` entries; entries older than
    ``window_s`` are pruned on every interaction, so the state is
    bounded by the charge rate and the check "would this new charge
    exceed ``budget_usd`` within the current window?" is exact.  With a
    :class:`~repro.reliability.clock.FakeClock` the window's pruning —
    and therefore every budget decision — is fully deterministic.
    """

    def __init__(
        self,
        budget_usd: float,
        window_s: float = 60.0,
        clock: Clock | None = None,
    ) -> None:
        """A ledger allowing ``budget_usd`` of spend per ``window_s``."""
        if budget_usd <= 0:
            raise ConfigurationError(f"budget_usd must be positive, got {budget_usd}")
        if window_s <= 0:
            raise ConfigurationError(f"window_s must be positive, got {window_s}")
        self.budget_usd = float(budget_usd)
        self.window_s = float(window_s)
        self.clock = clock or SystemClock()
        self._entries: deque[tuple[float, float]] = deque()
        self._window_spend = 0.0
        #: Total dollars ever charged (never pruned).
        self.total_spend_usd = 0.0
        #: How many charges the budget refused.
        self.denials = 0

    def _prune(self, now: float) -> None:
        """Drop entries that fell out of the rolling window."""
        horizon = now - self.window_s
        while self._entries and self._entries[0][0] <= horizon:
            _, cost = self._entries.popleft()
            self._window_spend -= cost

    def window_spend_usd(self) -> float:
        """Dollars charged inside the current window."""
        self._prune(self.clock.monotonic())
        return self._window_spend

    def charge(self, cost_usd: float) -> None:
        """Record ``cost_usd`` of spend unconditionally (no gate, no denial).

        The entry rung of a router always runs — its cost is a floor the
        budget cannot refuse — so the ledger must *record* it even when
        the window is already over budget.  Recording keeps the
        conservation invariant exact: ``total_spend_usd`` equals the sum
        of every decision's ``spend_usd`` (the property
        ``repro.verify``'s spend-conservation checker enforces).
        Refusable spend (escalations) goes through :meth:`try_charge`.
        """
        now = self.clock.monotonic()
        self._prune(now)
        self._entries.append((now, cost_usd))
        self._window_spend += cost_usd
        self.total_spend_usd += cost_usd

    def try_charge(self, cost_usd: float) -> bool:
        """Charge ``cost_usd`` if it fits the window budget; else refuse.

        A refusal counts in :attr:`denials` and charges nothing — the
        caller is expected to decide at the cheaper rung instead.
        """
        now = self.clock.monotonic()
        self._prune(now)
        if self._window_spend + cost_usd > self.budget_usd + 1e-12:
            self.denials += 1
            return False
        self._entries.append((now, cost_usd))
        self._window_spend += cost_usd
        self.total_spend_usd += cost_usd
        return True

    def as_dict(self) -> dict:
        """JSON-ready ledger state for ``GET /router``."""
        return {
            "budget_usd": self.budget_usd,
            "window_s": self.window_s,
            "window_spend_usd": round(self.window_spend_usd(), 8),
            "total_spend_usd": round(self.total_spend_usd, 8),
            "denials": self.denials,
        }


class MatchRouter:
    """Dispatch requests across a ladder of confidence-banded backends.

    ``backends`` is ordered cheapest-first; every rung except the last
    must be banded (it needs a way to say "I am not sure").  A one-rung
    ladder is the plain single-matcher path: every pair is decided by
    its ``predict``.  Budgets are
    both optional: ``per_request_budget_usd`` caps one request's total
    spend, ``ledger`` caps the rolling spend across requests.  The entry
    rung always runs (a router must answer something); budgets gate
    *escalations* only.
    """

    def __init__(
        self,
        backends: Sequence[RoutedBackend],
        per_request_budget_usd: float | None = None,
        ledger: SpendLedger | None = None,
        serialization_seed: int | None = None,
        clock: Clock | None = None,
    ) -> None:
        """Validate the ladder and zero the routing counters.

        ``serialization_seed`` is forwarded to every backend's
        ``match_scores``/``predict`` call (``None`` = canonical column
        order); ``clock`` defaults to the ledger's clock so the two
        never disagree about window time.
        """
        if not backends:
            raise ConfigurationError("a router needs at least one backend")
        names = [b.name for b in backends]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"backend names must be unique, got {names}")
        for backend in backends[:-1]:
            if not backend.banded:
                raise ConfigurationError(
                    f"non-final backend {backend.name!r} needs a confidence band"
                )
            if not hasattr(backend.matcher, "match_scores"):
                raise ConfigurationError(
                    f"non-final backend {backend.name!r} exposes no "
                    "match_scores(); it cannot gate escalation"
                )
        if per_request_budget_usd is not None and per_request_budget_usd <= 0:
            raise ConfigurationError("per_request_budget_usd must be positive")
        self.backends = tuple(backends)
        self.per_request_budget_usd = per_request_budget_usd
        self.ledger = ledger
        self.serialization_seed = serialization_seed
        self.clock = clock or (ledger.clock if ledger is not None else SystemClock())
        #: Monotonic routing totals (JSON-ready via :meth:`state`).
        self.counters: dict[str, float] = {
            "requests": 0,
            "escalations": 0,
            "budget_limited": 0,
            "breaker_open": 0,
            "backend_failures": 0,
            "deadline_limited": 0,
            "spend_usd": 0.0,
        }
        self._decided_by: dict[str, int] = {b.name: 0 for b in self.backends}

    # -- the decision procedure ----------------------------------------------

    def route(
        self,
        pairs: Sequence[RecordPair],
        budget: DeadlineBudget | None = None,
    ) -> list[RouteDecision]:
        """Decide every pair, escalating only inside confidence bands.

        Pairs are processed rung by rung as one batch per rung (so the
        underlying matchers keep their batching advantage); budget
        charges happen in submission order, making the whole procedure
        a pure function of (pairs, clock, ledger state).  ``budget``
        (optional) is the request's deadline budget: once it expires,
        remaining pairs are decided at the rung they have reached
        instead of escalating further (``deadline_limited``).
        """
        pairs = list(pairs)
        if not pairs:
            return []
        with span("router.decide", pairs=len(pairs)) as route_span:
            decisions = self._route_batch(pairs, budget)
            escalated = sum(1 for d in decisions if d.escalated)
            spend = sum(d.spend_usd for d in decisions)
            self.counters["requests"] += len(decisions)
            self.counters["escalations"] += escalated
            self.counters["budget_limited"] += sum(
                1 for d in decisions if d.budget_limited
            )
            self.counters["breaker_open"] += sum(
                1 for d in decisions if d.breaker_open
            )
            self.counters["backend_failures"] += sum(
                1 for d in decisions if d.backend_failed
            )
            self.counters["deadline_limited"] += sum(
                1 for d in decisions if d.deadline_limited
            )
            self.counters["spend_usd"] += spend
            for decision in decisions:
                self._decided_by[decision.backend] += 1
            route_span.set(escalated=escalated, spend_usd=round(spend, 8))
        return decisions

    def _charge(self, cost: float, spent_so_far: float) -> bool:
        """Whether one escalation's cost fits both budgets (charging it)."""
        if (
            self.per_request_budget_usd is not None
            and spent_so_far + cost > self.per_request_budget_usd + 1e-12
        ):
            return False
        if self.ledger is not None and cost > 0:
            return self.ledger.try_charge(cost)
        return True

    def _invoke(self, backend: RoutedBackend, method: str, batch: list):
        """Call one rung's matcher, feeding its breaker the outcome.

        Successes report the call's wall-clock on the router's clock so
        a breaker with ``slow_call_threshold_s`` can isolate a frozen
        backend that technically still answers.
        """
        started = self.clock.monotonic()
        try:
            if method == "predict":
                result = backend.matcher.predict(batch, self.serialization_seed)
            else:
                result = backend.matcher.match_scores(batch, self.serialization_seed)
        except ReproError:
            # Only library failures feed the breaker: a programming
            # error (TypeError et al.) propagates without poisoning the
            # rung's health accounting.
            if backend.breaker is not None:
                backend.breaker.record_failure(len(batch))
            raise
        if backend.breaker is not None:
            backend.breaker.record_success(
                len(batch), duration_s=self.clock.monotonic() - started
            )
        return result

    @staticmethod
    def _degraded(
        carried: tuple[str, bool, float, float, float],
        spend: float,
        **flags: bool,
    ) -> RouteDecision:
        """A band-midpoint decision at the rung ``carried`` describes."""
        backend_name, escalated, score, low, high = carried
        midpoint = (low + high) / 2.0
        return RouteDecision(
            label=int(score >= midpoint),
            backend=backend_name,
            escalated=escalated,
            spend_usd=spend,
            **flags,
        )

    def _route_batch(
        self, pairs: list[RecordPair], budget: DeadlineBudget | None = None
    ) -> list[RouteDecision]:
        """One rung-by-rung pass over ``pairs`` (in submission order)."""
        n = len(pairs)
        decisions: list[RouteDecision | None] = [None] * n
        # Entry-rung charges are unconditional: the ladder's first rung
        # is the router's floor and is priced into `spend`, not gated.
        # They go through ``charge`` (not ``try_charge``) so the ledger
        # records exactly what the decisions report spending — a denied
        # entry charge would otherwise leave the ledger short of the
        # spend that happened anyway.
        entry = self.backends[0]
        entry_costs = [entry.pair_cost_usd(p) for p in pairs]
        if self.ledger is not None and entry.price_per_1k_tokens > 0:
            for cost in entry_costs:
                self.ledger.charge(cost)
        active = list(range(n))
        spent = list(entry_costs)
        # The last banded rung's view of each escalated pair — the
        # fallback decision point when a later rung fails.
        carry: dict[int, tuple[str, bool, float, float, float]] = {}

        for tier, backend in enumerate(self.backends):
            if not active:
                break
            batch = [pairs[i] for i in active]
            if not backend.banded:
                # Final rung: the authority decides everything left.
                try:
                    labels = self._invoke(backend, "predict", batch)
                except ReproError:
                    if tier == 0:
                        raise
                    # Every pair here escalated through a banded rung,
                    # so a cheaper answer exists: degrade, don't fail.
                    # The swallowed error shows on /metrics as the
                    # router's ``backend_failures``.
                    for pos, i in enumerate(active):
                        decisions[i] = self._degraded(
                            carry[i], spent[pos], backend_failed=True
                        )
                    active = []
                    break
                for pos, i in enumerate(active):
                    decisions[i] = RouteDecision(
                        label=int(labels[pos]),
                        backend=backend.name,
                        escalated=tier > 0,
                        spend_usd=spent[pos],
                    )
                active = []
                break

            try:
                scores = np.asarray(
                    self._invoke(backend, "match_scores", batch),
                    dtype=np.float64,
                )
            except ReproError:
                if tier == 0:
                    # No cheaper rung exists below the entry rung; the
                    # caller's retry layer owns this failure.
                    raise
                for pos, i in enumerate(active):
                    decisions[i] = self._degraded(
                        carry[i], spent[pos], backend_failed=True
                    )
                active = []
                break
            next_backend = self.backends[tier + 1]
            expired = budget is not None and budget.expired
            still_active: list[int] = []
            still_spent: list[float] = []
            for pos, i in enumerate(active):
                score = float(scores[pos])
                here = (backend.name, tier > 0, score, backend.low, backend.high)
                if score >= backend.high:
                    decisions[i] = RouteDecision(
                        label=1, backend=backend.name, escalated=tier > 0,
                        spend_usd=spent[pos],
                    )
                    continue
                if score <= backend.low:
                    decisions[i] = RouteDecision(
                        label=0, backend=backend.name, escalated=tier > 0,
                        spend_usd=spent[pos],
                    )
                    continue
                # Escalation admission, cheapest refusal first: a spent
                # deadline consumes nothing, an open breaker must not
                # burn budget, and only then is the charge attempted.
                if expired:
                    decisions[i] = self._degraded(
                        here, spent[pos], deadline_limited=True
                    )
                    continue
                if next_backend.breaker is not None and not next_backend.breaker.allow():
                    decisions[i] = self._degraded(
                        here, spent[pos], breaker_open=True
                    )
                    continue
                cost = next_backend.pair_cost_usd(pairs[i])
                if self._charge(cost, spent[pos]):
                    carry[i] = here
                    still_active.append(i)
                    still_spent.append(spent[pos] + cost)
                else:
                    # Budget-frustrated escalation: decide here, at the
                    # band's midpoint, and flag the degradation.
                    decisions[i] = self._degraded(
                        here, spent[pos], budget_limited=True
                    )
            active = still_active
            spent = still_spent
        return [d for d in decisions if d is not None]

    # -- prediction façade ----------------------------------------------------

    def predict(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        """Labels only — the drop-in :meth:`Matcher.predict` shape."""
        return np.array([d.label for d in self.route(pairs)], dtype=np.int64)

    # -- introspection --------------------------------------------------------

    def counter_totals(self) -> dict:
        """The routing counters, JSON-ready (``spend_usd`` to 1e-8 USD)."""
        return {
            k: (round(v, 8) if k == "spend_usd" else int(v))
            for k, v in self.counters.items()
        }

    def state(self) -> dict:
        """JSON-ready router state for ``GET /router``."""
        return {
            "backends": [
                {
                    "name": b.name,
                    "matcher": b.matcher.display_name,
                    "price_per_1k_tokens": b.price_per_1k_tokens,
                    "band": [b.low, b.high] if b.banded else None,
                    "decided": self._decided_by[b.name],
                    "breaker": (
                        b.breaker.as_dict() if b.breaker is not None else None
                    ),
                }
                for b in self.backends
            ],
            "counters": self.counter_totals(),
            "per_request_budget_usd": self.per_request_budget_usd,
            "ledger": self.ledger.as_dict() if self.ledger is not None else None,
        }
