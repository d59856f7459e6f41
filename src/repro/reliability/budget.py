"""Deadline budgets: one request-scoped time budget, carved per stage.

A request that crosses several stages — admission queue, micro-batch
wait, retry attempts, router ladder hops — used to give *each* stage a
fresh timeout, so the caller's total wait could silently overshoot any
one of them.  :class:`DeadlineBudget` fixes the accounting: the caller
sets one total budget at the edge (``MatchService.match_pair``'s
``budget_s``, or a :class:`~repro.reliability.policy.RetryPolicy`'s
``default_timeout_s`` for one LLM request), the budget object travels
with the request, and every stage asks it instead of inventing its own
deadline.  It is the only time limit in the library, so "is the
deadline spent?" (:attr:`~DeadlineBudget.expired`) and "does this
backoff fit?" (:meth:`~DeadlineBudget.fits`) have one answer everywhere,
including at the equality edge: a wait that would end exactly when the
budget does is refused.

Two exits exist for a request that cannot finish in time, and which one
fires is a per-stage policy decision (documented in
``docs/FAILURE_SEMANTICS.md`` §9):

* **degrade** — a stage with a cheaper answer available (the router
  deciding at the current rung's band midpoint) consumes no more budget
  and answers; the response is flagged so provenance survives.
* **raise** — a stage with nothing to answer with raises
  :class:`~repro.errors.DeadlineExceededError` *naming itself* via the
  error's ``stage`` attribute, so "which stage ate the budget" is one
  attribute away instead of a log-spelunking exercise.

Like everything in :mod:`repro.reliability`, the budget reads time from
an injectable :class:`~repro.reliability.clock.Clock`, so tests drive
expiry with a :class:`~repro.reliability.clock.FakeClock` and never
sleep.
"""

from __future__ import annotations

from ..errors import ConfigurationError, DeadlineExceededError
from .clock import Clock, SystemClock

__all__ = ["DeadlineBudget"]


class DeadlineBudget:
    """One request's remaining time, threaded through every stage.

    Immutable configuration (total, clock, start) with a live
    :meth:`remaining` — the object is safe to share across the stages
    of one request but is *per request*: two requests must never share
    a budget (each caller's wait is its own).
    """

    def __init__(self, total_s: float, clock: Clock | None = None) -> None:
        """A budget of ``total_s`` seconds starting now."""
        if total_s <= 0:
            raise ConfigurationError(f"total_s must be positive, got {total_s}")
        self.total_s = float(total_s)
        self.clock = clock or SystemClock()
        self._started_at = self.clock.monotonic()

    def elapsed(self) -> float:
        """Seconds consumed so far (never negative)."""
        return max(0.0, self.clock.monotonic() - self._started_at)

    def remaining(self) -> float:
        """Seconds left, clamped at zero — what every stage waits on."""
        return max(0.0, self.total_s - self.elapsed())

    def fits(self, delay_s: float) -> bool:
        """Whether a wait of ``delay_s`` ends strictly before the budget.

        ``remaining() == delay_s`` does *not* fit: a backoff that would
        wake exactly at the deadline leaves no time for the attempt it
        waits for.
        """
        return self.remaining() > delay_s

    @property
    def expired(self) -> bool:
        """Whether the budget is fully consumed (not even a zero wait fits)."""
        return not self.fits(0.0)

    def check(self, stage: str) -> None:
        """Raise if the budget is spent, naming the consuming ``stage``.

        The raised :class:`~repro.errors.DeadlineExceededError` carries
        ``stage`` both in its message and as an attribute.
        """
        if self.expired:
            raise DeadlineExceededError(
                f"deadline budget of {self.total_s}s exhausted in stage "
                f"{stage!r} (elapsed {self.elapsed():.3f}s)",
                stage=stage,
            )
