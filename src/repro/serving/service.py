"""The match service: index -> scheduler -> matcher behind one façade.

:class:`MatchService` is the composition point of the online subsystem.
A request travels::

    match_pair / lookup / admit
        -> CandidateIndex.query          (lookup only: candidate generation)
        -> MicroBatcher.submit           (admission control, coalescing)
        -> MatchRouter.route             (one batched model call per rung)
        -> settle -> MatchResponse       (label + latency back to the caller)

:meth:`MatchService.match_pair` blocks its calling thread until the
outcome arrives.  :meth:`MatchService.admit` is the same admission
without the wait: it returns the request's
:class:`~repro.serving.scheduler.PendingResult`, an event loop (the HTTP
front-end's) waits on that slot's done-callback, and
:meth:`MatchService.settle` then folds the outcome into the response and
the stats exactly as ``match_pair`` does.

Reliability reuses the study's machinery: a
:class:`~repro.reliability.policy.RetryPolicy` re-runs a failed batch
when its error is retryable (same classification as offline,
:func:`repro.reliability.policy.is_retryable`, same deterministic seeded
backoff), a per-request :class:`~repro.reliability.budget.DeadlineBudget`
bounds the caller's wait, and overload sheds with a structured
:class:`~repro.errors.OverloadedError` instead of hanging.  Every
request outcome is counted in :class:`ServingStats`; ``GET /metrics``
reads it next to the batcher's, the router's and the breakers' own
counters, each count kept once by the object that produces it.

Determinism: a service that was never :meth:`start`-ed dispatches
*inline* — submissions are processed in deterministic FIFO batches when
the caller blocks — so the same request trace over the same matcher
(fault-injected or not) yields identical responses and identical
counters, which the serving determinism tests pin.

Routing: every batch is dispatched through a
:class:`~repro.routing.policy.MatchRouter` — the confidence-banded
backend ladder passed as ``router=``, or else a one-rung ladder around
the service's matcher.  Responses carry routing provenance
(``backend``, ``escalated``, ``spend_usd``), an attached
:class:`~repro.routing.drift.DriftMonitor` folds every decided pair into
its drift windows, and an attached
:class:`~repro.routing.shadow.ShadowEvaluator` shadow-scores the
deterministic sample — all on the dispatcher side of the queue, off the
caller's critical path.  ``GET /metrics`` carries a ``routing`` block
and ``GET /router`` exposes the full router/drift/shadow state (see
``docs/ROUTING.md``).
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

from ..data.pairs import RecordPair
from ..data.record import Record
from ..errors import DeadlineExceededError, OverloadedError, ReproError, ServingError
from ..matchers.base import Matcher
from ..obs.registry import MetricsRegistry
from ..obs.trace import span
from ..reliability.breaker import STATE_GAUGE, STATE_OPEN
from ..reliability.budget import DeadlineBudget
from ..reliability.clock import Clock, SystemClock
from ..reliability.policy import RetryPolicy
from ..routing.policy import MatchRouter, RoutedBackend
from .index import Candidate, CandidateIndex
from .scheduler import MicroBatcher, PendingResult

__all__ = ["MatchResponse", "LookupMatch", "ServingStats", "MatchService"]


@dataclass(frozen=True)
class MatchResponse:
    """The outcome of one pair-matching request."""

    #: Predicted label (1 = the two records describe the same entity).
    label: int
    #: Admission-to-completion latency in seconds.
    latency_s: float
    #: Routing provenance: which backend answered (the matcher's
    #: ``name`` on a service built without a router).
    backend: str | None = None
    #: Whether the request escalated past the router's first rung.
    escalated: bool = False
    #: Token-dollars this request spent across the rungs it touched.
    spend_usd: float = 0.0
    #: Degradation provenance: whether a spend budget, an open circuit
    #: breaker, a failed backend, or an expired deadline budget stopped
    #: an escalation the confidence bands asked for.
    budget_limited: bool = False
    breaker_open: bool = False
    backend_failed: bool = False
    deadline_limited: bool = False

    @property
    def matched(self) -> bool:
        """Whether the pair was predicted a match."""
        return self.label == 1


@dataclass(frozen=True)
class LookupMatch:
    """One corpus record the matcher confirmed against a probe."""

    record: Record
    #: Blocking evidence: non-stop-word tokens shared with the probe.
    shared_tokens: int


class ServingStats:
    """Thread-safe request/latency accounting for one service.

    Counters are plain monotonically increasing totals, so a replayed
    request trace reproduces them exactly; latency percentiles are
    computed over a bounded window of the most recent requests.  Only
    what the service itself decides is counted here: scored pairs,
    escalations, spend and degradations are the router's counts
    (:attr:`MatchRouter.counters <repro.routing.policy.MatchRouter.counters>`).

    The request counters partition exactly: every admitted request is
    eventually accounted as completed (one recorded latency), ``shed``,
    ``timeouts``, ``errors`` or ``abandoned`` — never two of those,
    never none.  ``abandoned`` covers requests admitted alongside one
    that then shed, timed out or errored: the failure propagates to the
    caller before their outcomes are awaited, so without the counter
    they would silently fall out of the accounting.  The partition is
    machine-checked by ``repro.verify``'s stats-partition invariant.
    ``unexpected_errors`` counts the subset of ``errors`` that were not
    library errors — a programming error escaping the batch callable.
    """

    #: How many recent latencies the percentile window keeps.
    WINDOW = 2048

    def __init__(self) -> None:
        """All-zero counters and an empty latency window."""
        self._lock = threading.Lock()
        self.counters: dict[str, int] = {
            "requests": 0,
            "lookups": 0,
            "matches": 0,
            "shed": 0,
            "timeouts": 0,
            "errors": 0,
            "unexpected_errors": 0,
            "abandoned": 0,
            "batch_retries": 0,
        }
        self._latencies: deque[float] = deque(maxlen=self.WINDOW)
        self._latency_total = 0.0
        self._latency_count = 0

    def bump(self, key: str, amount: int = 1) -> None:
        """Add ``amount`` to one counter."""
        with self._lock:
            self.counters[key] += amount

    def record_latency(self, seconds: float) -> None:
        """Fold one request latency into the totals and the window."""
        with self._lock:
            self._latencies.append(seconds)
            self._latency_total += seconds
            self._latency_count += 1

    @staticmethod
    def _percentile(ordered: list[float], q: float) -> float:
        """Nearest-rank percentile of a pre-sorted non-empty list."""
        rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
        return ordered[rank]

    def latency_summary(self) -> dict[str, float]:
        """Count/mean/p50/p95/p99/max over the recent-latency window, in ms.

        ``count`` is the all-time number of recorded latencies (the
        window only bounds what the percentiles are computed over).  An
        *empty* window — no request has completed yet — returns the full
        schema with every value an explicit ``0``: consumers can always
        read every key, and must treat percentiles as meaningful only
        when ``count > 0`` (a zero p50 with ``count == 0`` means "no
        data", not "instant requests").
        """
        with self._lock:
            window = sorted(self._latencies)
            total, count = self._latency_total, self._latency_count
        if not window:
            return {
                "count": 0, "mean_ms": 0.0, "p50_ms": 0.0,
                "p95_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0,
            }
        return {
            "count": count,
            "mean_ms": round(1000.0 * total / count, 3),
            "p50_ms": round(1000.0 * self._percentile(window, 0.50), 3),
            "p95_ms": round(1000.0 * self._percentile(window, 0.95), 3),
            "p99_ms": round(1000.0 * self._percentile(window, 0.99), 3),
            "max_ms": round(1000.0 * window[-1], 3),
        }

    def as_dict(self) -> dict:
        """The service's own part of the ``GET /metrics`` block."""
        with self._lock:
            counters = dict(self.counters)
        return {"counters": counters, "latency": self.latency_summary()}


class MatchService:
    """An online entity-matching service over one routing ladder.

    ``index`` (optional) enables :meth:`lookup` — probe-record requests
    that retrieve candidates before matching.  Batching, admission
    control, retries and deadline budgets are configured here and
    applied to every request path.
    """

    def __init__(
        self,
        matcher: Matcher,
        index: CandidateIndex | None = None,
        max_batch_size: int = 32,
        max_queue: int = 256,
        retry_policy: RetryPolicy | None = None,
        serialization_seed: int | None = None,
        clock: Clock | None = None,
        router: MatchRouter | None = None,
        drift_monitor=None,
        shadow=None,
        default_budget_s: float | None = None,
    ) -> None:
        """Compose the serving stack around ``matcher``.

        ``retry_policy`` re-runs a batch whose failure is retryable under
        the study's error classification; ``serialization_seed`` fixes
        the column order shown to the matcher (``None`` = canonical
        order) so responses are a pure function of the request trace.
        The scheduler forms FIFO batches of up to ``max_batch_size``
        pairs; a trained matcher's model call sorts each batch by token
        length itself (:func:`repro.models.training.predict_proba`).

        ``router`` (a :class:`~repro.routing.policy.MatchRouter`) is the
        scoring path: batches route through its backend ladder and
        responses carry routing provenance.  Without one, the service
        routes through a one-rung ladder named ``matcher.name``; with
        one, ``matcher`` only names the service (health checks) — pass
        the router's final backend for an accurate display.
        ``drift_monitor`` and ``shadow`` (see :mod:`repro.routing`) are
        fed every decided batch on the dispatcher side of the queue.

        ``default_budget_s`` gives every request a deadline budget
        unless its call overrides one; the budget is the only time
        limit, threaded through queueing, retries, router hops and the
        caller's wait so each stage sees only the time that is left.
        """
        self.matcher = matcher
        self.index = index
        self.retry_policy = retry_policy
        self.drift_monitor = drift_monitor
        self.shadow = shadow
        self.default_budget_s = default_budget_s
        self.serialization_seed = serialization_seed
        self.clock = clock or SystemClock()
        if router is None:
            router = MatchRouter(
                [RoutedBackend(name=matcher.name, matcher=matcher)],
                serialization_seed=serialization_seed,
                clock=self.clock,
            )
        self.router = router
        self.stats = ServingStats()
        self._batcher = MicroBatcher(
            self._process_batch,
            max_batch_size=max_batch_size,
            max_queue=max_queue,
            clock=self.clock,
        )
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "MatchService":
        """Launch the background dispatcher (threaded serving mode)."""
        self._batcher.start()
        self._started = True
        return self

    def stop(self) -> None:
        """Drain outstanding requests and stop the dispatcher."""
        self._batcher.stop()
        self._started = False

    def __enter__(self) -> "MatchService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def started(self) -> bool:
        """Whether the background dispatcher is running."""
        return self._started

    # -- the batched model call ---------------------------------------------

    def _process_batch(
        self, pairs: list[RecordPair], budget: DeadlineBudget | None
    ) -> list:
        """Route one coalesced batch, retrying retryable failures.

        Returns one :class:`~repro.routing.policy.RouteDecision` per
        pair.  ``budget`` is the batch's tightest remaining deadline
        budget: a retry whose backoff does not fit it
        (:meth:`~repro.reliability.budget.DeadlineBudget.fits`) fails
        immediately with a ``serving.retry_backoff``-staged deadline
        error instead of sleeping into a wait nobody can win.
        """
        policy = self.retry_policy
        attempt = 1
        while True:
            try:
                return self._route_batch(pairs, budget)
            except Exception as error:
                if (
                    policy is None
                    or not policy.retryable(error)
                    or attempt >= policy.max_attempts
                ):
                    raise
                delay = policy.delay_for_error(
                    error, attempt, key=f"serving/{pairs[0].pair_id}"
                )
                if budget is not None and not budget.fits(delay):
                    raise DeadlineExceededError(
                        f"retry backoff ({delay:.3f}s) would outlive the "
                        f"deadline budget ({budget.remaining():.3f}s left)",
                        stage="serving.retry_backoff",
                    ) from error
                self.stats.bump("batch_retries")
                if delay > 0:
                    self.clock.sleep(delay)
                attempt += 1

    def _route_batch(
        self, pairs: list[RecordPair], budget: DeadlineBudget | None
    ) -> list:
        """Route one batch and feed the drift monitor + shadow evaluator.

        Drift and shadow run here — on the dispatcher side of the queue
        — so the monitoring cost is paid per batch, not per caller, and
        a shadow candidate's latency never extends a live response.
        """
        decisions = self.router.route(pairs, budget=budget)
        if self.drift_monitor is not None:
            for pair, decision in zip(pairs, decisions):
                self.drift_monitor.update(pair, decision.label)
        if self.shadow is not None:
            self.shadow.observe(pairs, [d.label for d in decisions])
        return decisions

    # -- request paths -------------------------------------------------------

    def _request_budget(
        self, budget_s: float | None
    ) -> DeadlineBudget | None:
        """The deadline budget one request carries (``None`` = unbounded)."""
        total = budget_s if budget_s is not None else self.default_budget_s
        if total is None:
            return None
        return DeadlineBudget(total, clock=self.clock)

    def _submit_pairs(
        self,
        pairs: Sequence[RecordPair],
        budget: DeadlineBudget | None = None,
    ) -> list:
        """Admit pairs into the scheduler (shedding is counted and raised)."""
        pending = []
        for pair in pairs:
            self.stats.bump("requests")
            try:
                pending.append(self._batcher.submit(pair, budget=budget))
            except OverloadedError:
                self.stats.bump("shed")
                # Requests admitted before this shed are never awaited —
                # the error propagates to the caller first — so account
                # them as abandoned to keep the request partition exact.
                if pending:
                    self.stats.bump("abandoned", len(pending))
                raise
        if not self._started:
            # Inline mode: deterministic FIFO dispatch while the caller
            # would otherwise block forever waiting for a thread.
            self._batcher.drain()
        return pending

    def settle(
        self, pending: PendingResult, budget: DeadlineBudget | None
    ) -> MatchResponse:
        """Wait for one ``RouteDecision``, folding it into the stats.

        A deadline budget caps the wait at its remaining time, so the
        caller never blocks past the budget it granted the whole request.
        A caller that already waited elsewhere (the HTTP front-end's
        event loop) settles a delivered slot, or one whose budget has
        run out, without blocking.
        """
        try:
            outcome = pending.result(
                None if budget is None else budget.remaining()
            )
        except DeadlineExceededError:
            self.stats.bump("timeouts")
            raise
        except ReproError:
            self.stats.bump("errors")
            raise
        except Exception:
            # Not part of the library's error taxonomy — a programming
            # error escaping the batch callable.  Still counted as an
            # error (the partition must stay exact), and separately so
            # the /metrics endpoint shows the anomaly even after the
            # caller's stack trace scrolls away.
            self.stats.bump("errors")
            self.stats.bump("unexpected_errors")
            raise
        latency = pending.latency_s or 0.0
        self.stats.record_latency(latency)
        if outcome.label == 1:
            self.stats.bump("matches")
        return MatchResponse(
            label=outcome.label,
            latency_s=latency,
            backend=outcome.backend,
            escalated=outcome.escalated,
            spend_usd=outcome.spend_usd,
            budget_limited=outcome.budget_limited,
            breaker_open=outcome.breaker_open,
            backend_failed=outcome.backend_failed,
            deadline_limited=outcome.deadline_limited,
        )

    @staticmethod
    def _as_record(values: Sequence[str], record_id: str) -> Record:
        """An anonymous request record (no entity identity, by design)."""
        if not values:
            raise ServingError("a request record needs at least one value")
        return Record(record_id, tuple(str(v) for v in values), entity_id="")

    def make_pair(
        self, left: Sequence[str] | Record, right: Sequence[str] | Record
    ) -> RecordPair:
        """Build an unlabelled candidate pair from raw attribute values.

        The placeholder label 0 is never read by ``predict``; both sides
        must have the same attribute count (aligned schemas are a
        protocol requirement, Section 2.1).
        """
        left_record = left if isinstance(left, Record) else self._as_record(left, "req-l")
        right_record = (
            right if isinstance(right, Record) else self._as_record(right, "req-r")
        )
        if left_record.n_attributes != right_record.n_attributes:
            raise ServingError(
                f"schema mismatch: {left_record.n_attributes} vs "
                f"{right_record.n_attributes} attributes"
            )
        return RecordPair(
            pair_id=f"{left_record.record_id}|{right_record.record_id}",
            left=left_record,
            right=right_record,
            label=0,
        )

    def admit(
        self,
        left: Sequence[str] | Record,
        right: Sequence[str] | Record,
        budget_s: float | None = None,
    ) -> tuple[PendingResult, DeadlineBudget | None]:
        """Admit one record pair without waiting for its batch.

        Returns the request's slot and its deadline budget; pass both to
        :meth:`settle` once the slot is filled or the budget is spent.
        Shedding raises :class:`~repro.errors.OverloadedError` here, as
        in :meth:`match_pair`.
        """
        budget = self._request_budget(budget_s)
        pending = self._submit_pairs([self.make_pair(left, right)], budget)
        return pending[0], budget

    def match_pair(
        self,
        left: Sequence[str] | Record,
        right: Sequence[str] | Record,
        budget_s: float | None = None,
    ) -> MatchResponse:
        """Match one record pair (coalesced with concurrent requests).

        ``budget_s`` (default: the service's ``default_budget_s``) is
        the request's end-to-end deadline budget, threaded through the
        queue, the batch call and the result wait.
        """
        with span("serving.match", pairs=1) as match_span:
            response = self.settle(*self.admit(left, right, budget_s))
            match_span.set(matched=response.matched)
            return response

    def match_pairs(
        self,
        pairs: Sequence[RecordPair],
        budget_s: float | None = None,
    ) -> list[MatchResponse]:
        """Match many pairs; each is an independently batched request.

        One deadline budget covers the whole call — it is the caller's
        time that is being spent, regardless of how many batches the
        pairs landed in.
        """
        with span("serving.match", pairs=len(pairs)) as match_span:
            budget = self._request_budget(budget_s)
            pending = self._submit_pairs(list(pairs), budget)
            responses: list[MatchResponse] = []
            try:
                for p in pending:
                    responses.append(self.settle(p, budget))
            except BaseException:
                # The failing request was just counted (timeout/error by
                # settle); everything admitted after it is never awaited
                # because this raise reaches the caller first — count
                # those as abandoned so the partition stays exact.
                abandoned = len(pending) - len(responses) - 1
                if abandoned > 0:
                    self.stats.bump("abandoned", abandoned)
                raise
            match_span.set(matched=sum(1 for r in responses if r.matched))
            return responses

    def lookup(
        self,
        probe: Sequence[str] | Record,
        top_k: int = 10,
        budget_s: float | None = None,
    ) -> list[LookupMatch]:
        """Find corpus records matching a probe: block, then batch-match.

        Queries the candidate index for the probe's ``top_k`` candidates
        and returns the subset the matcher confirms, best-blocking-first.
        ``budget_s`` is the candidates' shared deadline budget, as in
        :meth:`match_pairs`.  Requires the service to be constructed
        with an index.
        """
        if self.index is None:
            raise ServingError("lookup needs a CandidateIndex (none configured)")
        probe_record = (
            probe if isinstance(probe, Record) else self._as_record(probe, "probe")
        )
        with span("serving.lookup", top_k=top_k) as lookup_span:
            self.stats.bump("lookups")
            candidates: list[Candidate] = self.index.query(probe_record, top_k=top_k)
            lookup_span.set(candidates=len(candidates))
            if not candidates:
                return []
            pairs = [self.make_pair(probe_record, c.record) for c in candidates]
            responses = self.match_pairs(pairs, budget_s=budget_s)
            matches = [
                LookupMatch(record=c.record, shared_tokens=c.shared_tokens)
                for c, response in zip(candidates, responses)
                if response.matched
            ]
            lookup_span.set(matches=len(matches))
            return matches

    # -- health and metrics --------------------------------------------------

    def healthz(self) -> dict:
        """Liveness/saturation report for the ``/healthz`` endpoint.

        ``status`` is ``"ok"``, ``"degraded"`` (saturated queue or an
        open breaker — the service still answers, worse) or ``"dead"``
        (the dispatcher thread died — threaded requests will only time
        out).  The ``degraded`` block lists every active cause so an
        operator sees *why* in one read, not just that something is off.
        """
        saturated = self._batcher.saturated
        dispatcher_dead = self._started and not self._batcher.dispatcher_alive
        open_breakers = [
            backend.name
            for backend in self.router.backends
            if backend.breaker is not None and backend.breaker.state == STATE_OPEN
        ]
        causes: list[str] = []
        if dispatcher_dead:
            causes.append("dispatcher_dead")
        if saturated:
            causes.append("saturated")
        causes.extend(f"breaker_open:{name}" for name in open_breakers)
        if dispatcher_dead:
            status = "dead"
        elif causes:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "saturated": saturated,
            "queue_depth": self._batcher.queue_depth,
            "max_queue": self._batcher.max_queue,
            "started": self._started,
            "matcher": self.matcher.display_name,
            "degraded": {
                "causes": causes,
                "dispatcher_alive": not dispatcher_dead,
                "open_breakers": open_breakers,
            },
        }

    def metrics(self) -> dict:
        """The full stats block for the ``/metrics`` endpoint.

        Reads each owner of a count once: the service's
        :class:`ServingStats`, the batcher's scheduler counters, the
        router's counters with the drift monitor's current scores/events
        (``None`` without a monitor), and every rung's breaker.
        """
        block = self.stats.as_dict()
        scheduler = self._batcher.counters()
        batches = scheduler["batches"]
        block["scheduler"] = {
            **scheduler,
            "mean_occupancy": (
                round(scheduler["occupancy_sum"] / batches, 3) if batches else 0.0
            ),
        }
        block["routing"] = {
            "counters": self.router.counter_totals(),
            "drift": (
                self.drift_monitor.as_dict()
                if self.drift_monitor is not None
                else None
            ),
        }
        block["resilience"] = {
            "breakers": {
                backend.name: backend.breaker.as_dict()
                for backend in self.router.backends
                if backend.breaker is not None
            },
        }
        return block

    def router_state(self) -> dict:
        """The ``GET /router`` block: ladder, budgets, drift, shadow."""
        return {
            "router": self.router.state(),
            "drift": (
                self.drift_monitor.as_dict()
                if self.drift_monitor is not None
                else None
            ),
            "shadow": self.shadow.as_dict() if self.shadow is not None else None,
        }

    def prometheus_metrics(self) -> str:
        """The :meth:`metrics` block in the Prometheus text exposition format.

        Encodes one :meth:`metrics` snapshot, so the JSON and Prometheus
        views of ``GET /metrics`` cannot disagree, plus the three live
        gauges :meth:`healthz` also reads: queue depth, saturation and
        dispatcher liveness.
        """
        block = self.metrics()
        registry = MetricsRegistry()
        for key, value in block["counters"].items():
            registry.counter(f"serving_{key}_total", value)
        for key, value in block["latency"].items():
            if key == "count":
                registry.counter("serving_latency_measurements_total", value)
            else:
                registry.gauge(f"serving_latency_{key}", value)
        for key, value in block["scheduler"].items():
            if key == "mean_occupancy":
                registry.gauge("scheduler_mean_occupancy", value)
            else:
                registry.counter(f"scheduler_{key}_total", value)
        registry.gauge("serving_queue_depth", self._batcher.queue_depth)
        registry.gauge("serving_saturated", 1.0 if self._batcher.saturated else 0.0)
        registry.gauge(
            "serving_dispatcher_alive",
            1.0 if self._batcher.dispatcher_alive else 0.0,
        )
        for name, breaker in block["resilience"]["breakers"].items():
            registry.gauge(
                "breaker_state", STATE_GAUGE[breaker["state"]], backend=name
            )
            registry.counter(
                "breaker_opens_total", breaker["counters"]["opens"], backend=name
            )
        for key, value in block["routing"]["counters"].items():
            registry.counter(f"router_{key}_total", value)
        drift = block["routing"]["drift"]
        if drift is not None:
            registry.counter("drift_windows_total", drift["windows_completed"])
            registry.counter("drift_events_total", drift["events"])
            if drift["last_scores"] is not None:
                registry.gauge(
                    "drift_domain_overlap",
                    drift["last_scores"]["domain_overlap"],
                )
                registry.gauge(
                    "drift_positive_skew",
                    drift["last_scores"]["positive_skew"],
                )
        return registry.render_prometheus()
