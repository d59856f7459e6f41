"""Retry policy: error classification and seeded exponential backoff.

A :class:`RetryPolicy` answers three questions for the retry layer:

1. *Should this error be retried?*  Only errors that provably left no
   completion behind — :class:`~repro.errors.TransientLLMError` (which
   includes rate limits) — plus garbled-but-resampleable output
   (:class:`~repro.errors.MalformedCompletionError`) are retryable.
   Budget trips, prompt bugs and deadline expiry are terminal.
2. *How long to wait before attempt N+1?*  Exponential backoff,
   ``base * multiplier^(attempt-1)`` capped at ``max_delay_s``, scaled by
   a **deterministic seeded jitter**: the jitter factor is a pure
   function of ``(policy seed, request key, attempt)``, so a re-run of
   the same study sleeps the same schedule — no hidden nondeterminism.
3. *How many attempts in total?*  ``max_attempts`` bounds the loop; the
   final failure is raised as
   :class:`~repro.errors.RetryExhaustedError` chaining the last error.

A study's policy has one source: ``full_run --retries N`` (or
``run_study(retries=N)``) sets ``StudyConfig.retry_policy`` to
``RetryPolicy(max_attempts=N + 1)``, and every grid cell carries that
config to whichever process runs it.

The full derivation (including the rate-limit ``retry_after_s`` floor
and the cache interaction) is documented in ``docs/FAILURE_SEMANTICS.md``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from ..errors import (
    ConfigurationError,
    MalformedCompletionError,
    RateLimitError,
    TransientLLMError,
)

__all__ = ["RetryPolicy", "is_retryable", "DEFAULT_POLICY"]


def is_retryable(error: BaseException) -> bool:
    """Classify one error: ``True`` iff re-issuing the request is safe.

    Retryable: :class:`~repro.errors.TransientLLMError` and its
    subclasses (rate limits, overload, network blips) and
    :class:`~repro.errors.MalformedCompletionError` (resample garbled
    output).  Everything else — budget trips, prompt errors, deadline
    expiry, programming errors — is terminal.
    """
    return isinstance(error, (TransientLLMError, MalformedCompletionError))


def _unit_float(seed: int, key: str, attempt: int) -> float:
    """A deterministic uniform draw in ``[0, 1)`` for one jitter event."""
    digest = hashlib.blake2b(
        f"{seed}|{attempt}|{key}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget, backoff curve, and deterministic jitter for requests."""

    #: Total attempts including the first (``1`` disables retries).
    max_attempts: int = 4
    #: Backoff before the second attempt, in seconds.
    base_delay_s: float = 0.05
    #: Ceiling on any single backoff sleep, in seconds.
    max_delay_s: float = 2.0
    #: Geometric growth factor between consecutive backoffs.
    multiplier: float = 2.0
    #: Jitter half-width: the delay is scaled by a factor drawn
    #: deterministically from ``[1 - jitter, 1 + jitter]``.
    jitter: float = 0.5
    #: Seed for the deterministic jitter draws.
    seed: int = 0
    #: Per-request deadline in seconds (``None`` = no deadline): each
    #: request :class:`~repro.reliability.retry.RetryingClient` completes
    #: gets a :class:`~repro.reliability.budget.DeadlineBudget` of this
    #: size.
    default_timeout_s: float | None = None

    def __post_init__(self) -> None:
        """Validate ranges (attempts >= 1, delays and jitter sane)."""
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ConfigurationError("backoff delays must be non-negative")
        if self.multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError("jitter must be in [0, 1)")
        if self.default_timeout_s is not None and self.default_timeout_s <= 0:
            raise ConfigurationError("default_timeout_s must be positive")

    def retryable(self, error: BaseException) -> bool:
        """Whether ``error`` is worth another attempt (see :func:`is_retryable`)."""
        return is_retryable(error)

    def backoff_delay(self, attempt: int, key: str = "") -> float:
        """Seconds to wait after failed attempt ``attempt`` (1-based).

        ``raw = min(max_delay_s, base_delay_s * multiplier^(attempt-1))``
        scaled by the deterministic jitter factor for
        ``(seed, key, attempt)`` and re-capped at ``max_delay_s``.
        A :class:`~repro.errors.RateLimitError` hint is applied by the
        caller via :meth:`delay_for_error`.
        """
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        raw = min(self.max_delay_s, self.base_delay_s * self.multiplier ** (attempt - 1))
        if self.jitter:
            factor = 1.0 - self.jitter + 2.0 * self.jitter * _unit_float(
                self.seed, key, attempt
            )
            raw = min(self.max_delay_s, raw * factor)
        return raw

    def delay_for_error(
        self, error: BaseException, attempt: int, key: str = ""
    ) -> float:
        """The backoff for one failure, honouring rate-limit hints.

        A server-provided ``retry_after_s`` is a *floor*: the policy
        never re-issues a rate-limited request earlier than the backend
        asked, even when the backoff curve is shorter.
        """
        delay = self.backoff_delay(attempt, key=key)
        retry_after = getattr(error, "retry_after_s", None)
        if isinstance(error, RateLimitError) and retry_after is not None:
            delay = max(delay, float(retry_after))
        return delay

    def without_retries(self) -> "RetryPolicy":
        """A copy of this policy with retries disabled (one attempt)."""
        return replace(self, max_attempts=1)


#: The policy a study runs under when reliability is enabled without an
#: explicit configuration.  ``max_attempts=4`` strictly exceeds the fault
#: injector's default ``max_consecutive=3``, so a seeded fault plan can
#: never exhaust the default policy — the byte-identical-parity guarantee.
DEFAULT_POLICY = RetryPolicy()
