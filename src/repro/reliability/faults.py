"""Deterministic fault injection over any LLM client.

No real API is reachable from this offline reproduction, so failure
semantics are made testable the same way the hosted models are: by
simulation.  :class:`FaultInjector` wraps any
:class:`~repro.llm.client.LLMClient` and injects, from a seeded RNG,
the four failure modes a production request layer must survive:

* **transient errors** — :class:`~repro.errors.TransientLLMError`, the
  generic 5xx/connection-reset class;
* **rate limits** — :class:`~repro.errors.RateLimitError` carrying a
  ``retry_after_s`` hint;
* **latency spikes** — the request succeeds but only after
  ``latency_s`` of injected delay (stragglers, cold shards);
* **malformed completions** — the response arrives with garbled text
  that fails yes/no parsing, exercising response validation.

Decisions are a pure function of ``(plan seed, request key, attempt
index)``, where the attempt index counts completions *per request key
per injector instance*.  Two consequences follow:

1. **Order independence.**  Every grid cell builds its own client (and
   with it its own injector), so the fault sequence a cell sees does not
   depend on thread interleaving or executor backend — fault-injected
   parallel runs stay byte-identical to fault-injected serial runs.
2. **Bounded adversary.**  ``max_consecutive`` caps how many *error*
   faults in a row one request key can receive; the next attempt passes
   through.  Any retry policy with ``max_attempts > max_consecutive``
   therefore always converges to the clean response, which is what makes
   the "20% faults, identical tables" acceptance property provable.

A study's plan has one source: ``full_run --faults SPEC`` (or
``run_study(faults=SPEC)``) sets ``StudyConfig.fault_plan`` to
:meth:`FaultPlan.parse` of the spec, and every grid cell carries that
config to whichever process runs it.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Callable

from ..errors import ConfigurationError, RateLimitError, TransientLLMError
from ..llm.client import LLMClient, LLMRequest, LLMResponse
from .clock import Clock, SystemClock
from .counters import Tally

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "MALFORMED_TEXT",
    "CRASH_EXIT_CODE",
    "register_crash_hook",
    "unregister_crash_hook",
    "reset_crash_state",
]

#: The exit status of an injected crash — SIGKILL's conventional 128+9,
#: so a crash-point fault is indistinguishable from a real ``kill -9``.
CRASH_EXIT_CODE = 137

#: The garbled completion text injected for malformed-completion faults.
#: Deliberately free of any standalone yes/no token so that
#: :func:`repro.llm.prompts.parse_answer` rejects it.
MALFORMED_TEXT = "<<upstream 502: truncated completi"


def _unit_float(seed: int, key: str, attempt: int) -> float:
    """A deterministic uniform draw in ``[0, 1)`` per fault decision."""
    digest = hashlib.blake2b(
        f"{seed}|{attempt}|{key}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """Rates and shapes of the injected failure modes.

    Rates are per-attempt probabilities and must sum to at most 1; the
    remaining mass is a clean pass-through.  :meth:`parse` reads the
    ``--faults`` spec, e.g.
    ``"transient=0.2,rate_limit=0.05,latency=0.1,malformed=0.05,seed=3"``.
    """

    #: Probability of a :class:`~repro.errors.TransientLLMError` per attempt.
    transient_rate: float = 0.0
    #: Probability of a :class:`~repro.errors.RateLimitError` per attempt.
    rate_limit_rate: float = 0.0
    #: Probability of an injected latency spike per attempt.
    latency_rate: float = 0.0
    #: Probability of a malformed (unparseable) completion per attempt.
    malformed_rate: float = 0.0
    #: Duration of one injected latency spike, in seconds.
    latency_s: float = 0.01
    #: The ``retry_after_s`` hint attached to injected rate-limit errors.
    retry_after_s: float = 0.05
    #: Seed of the deterministic fault RNG.
    seed: int = 0
    #: Cap on consecutive *error* faults (transient, rate-limit,
    #: malformed) per request key; the next attempt passes through clean.
    max_consecutive: int = 3
    #: Kill the process (``os._exit(137)``) at the Nth completed LLM
    #: call, counted process-wide across injector instances; 0 disables.
    crash_at: int = 0
    #: Whether the injected crash first fires registered crash hooks so
    #: durable state (the cell journal) can simulate a torn final write.
    torn_write: bool = False

    def __post_init__(self) -> None:
        """Validate rates, durations and the consecutive-fault cap."""
        if self.crash_at < 0:
            raise ConfigurationError("crash_at must be >= 0 (0 disables)")
        rates = (
            self.transient_rate,
            self.rate_limit_rate,
            self.latency_rate,
            self.malformed_rate,
        )
        if any(r < 0 for r in rates):
            raise ConfigurationError("fault rates must be non-negative")
        if sum(rates) > 1.0 + 1e-9:
            raise ConfigurationError(
                f"fault rates sum to {sum(rates):.3f} > 1"
            )
        if self.latency_s < 0 or self.retry_after_s < 0:
            raise ConfigurationError("fault durations must be non-negative")
        if self.max_consecutive < 1:
            raise ConfigurationError("max_consecutive must be >= 1")

    @property
    def error_rate(self) -> float:
        """Combined per-attempt probability of the three *error* faults."""
        return self.transient_rate + self.rate_limit_rate + self.malformed_rate

    @property
    def any_faults(self) -> bool:
        """Whether this plan injects anything at all."""
        return self.error_rate > 0 or self.latency_rate > 0 or self.crash_at > 0

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a ``key=value`` spec string (``--faults``)."""
        kwargs: dict[str, object] = {}
        fields = {
            "transient": ("transient_rate", float),
            "rate_limit": ("rate_limit_rate", float),
            "latency": ("latency_rate", float),
            "malformed": ("malformed_rate", float),
            "latency_s": ("latency_s", float),
            "retry_after_s": ("retry_after_s", float),
            "seed": ("seed", int),
            "max_consecutive": ("max_consecutive", int),
            "crash_at": ("crash_at", int),
            "torn_write": ("torn_write", int),
        }
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ConfigurationError(f"bad fault spec fragment {part!r}")
            name, _, value = part.partition("=")
            try:
                field_name, cast = fields[name.strip()]
            except KeyError:
                known = ", ".join(sorted(fields))
                raise ConfigurationError(
                    f"unknown fault spec key {name!r}; choose from: {known}"
                ) from None
            try:
                kwargs[field_name] = cast(value.strip())
            except ValueError:
                raise ConfigurationError(
                    f"fault spec {name}={value!r} is not a {cast.__name__}"
                ) from None
        if "torn_write" in kwargs:
            kwargs["torn_write"] = bool(kwargs["torn_write"])
        return cls(**kwargs)  # type: ignore[arg-type]


# -- crash-point faults ------------------------------------------------------
#
# A crash is not an exception a retry policy can see: the process is gone.
# Crash-point plans make that failure mode deterministic — the Nth completed
# LLM call process-wide calls ``os._exit(137)``, exactly as if the OOM killer
# or an operator's ``kill -9`` landed mid-grid.  With ``torn_write`` the
# registered crash hooks fire first, letting durable state (the cell
# journal) leave a partial final record behind, which is the worst on-disk
# state a real power cut can produce for an append-only log.

_crash_hooks: dict[int, Callable[[], None]] = {}
_next_hook_token = 0
_completions = 0


def register_crash_hook(hook: Callable[[], None]) -> int:
    """Register ``hook`` to run just before an injected crash exits.

    Returns a token for :func:`unregister_crash_hook`.  Hooks simulate
    in-flight I/O at the moment of death (e.g. the journal's torn final
    line) and must not assume the process survives them.
    """
    global _next_hook_token
    _next_hook_token += 1
    _crash_hooks[_next_hook_token] = hook
    return _next_hook_token


def unregister_crash_hook(token: int) -> None:
    """Remove a crash hook; unknown tokens are ignored."""
    _crash_hooks.pop(token, None)


def reset_crash_state() -> None:
    """Reset the process-wide completion counter and hook registry.

    Test isolation only — a real run never survives its crash point.
    """
    global _completions
    _completions = 0
    _crash_hooks.clear()


def _maybe_crash(plan: FaultPlan) -> None:
    """Count one completed call; die if ``plan``'s crash point is reached."""
    global _completions
    if plan.crash_at <= 0:
        return
    _completions += 1
    if _completions >= plan.crash_at:
        if plan.torn_write:
            for hook in list(_crash_hooks.values()):
                try:
                    hook()
                except Exception:  # noqa: BLE001 - dying anyway; hooks are best-effort
                    pass
        # os._exit skips atexit/finally handlers on purpose: a crash that
        # runs cleanup code would not be a crash.
        os._exit(CRASH_EXIT_CODE)


class FaultInjector(LLMClient):
    """Wrap a client so seeded, reproducible faults precede completions.

    Transparent when no fault fires: the inner client's response passes
    through unmodified, and ``model_name`` / ``cache_salt`` are
    propagated so completion-cache keys are unaffected by the wrapper.
    """

    def __init__(
        self,
        inner: LLMClient,
        plan: FaultPlan,
        clock: Clock | None = None,
        tally: Tally | None = None,
    ) -> None:
        """Wrap ``inner`` under ``plan``, sleeping on ``clock``.

        Injected faults are counted into ``tally`` (default: a fresh
        :class:`Tally`).
        """
        self.inner = inner
        self.plan = plan
        self.clock = clock or SystemClock()
        self.tally = tally if tally is not None else Tally()
        self.model_name = inner.model_name
        self.cache_salt = getattr(inner, "cache_salt", "")
        self._attempts: dict[str, int] = {}
        self._consecutive: dict[str, int] = {}

    def _finish(self, response: LLMResponse) -> LLMResponse:
        """Deliver a completed response, honouring any crash point."""
        _maybe_crash(self.plan)
        return response

    def complete(self, request: LLMRequest) -> LLMResponse:
        """Complete ``request``, possibly injecting one planned fault.

        Raises the injected error class for transient/rate-limit faults;
        latency spikes sleep on the injector's clock and then pass
        through; malformed faults return the inner response with its
        text replaced by :data:`MALFORMED_TEXT`.
        """
        key = hashlib.blake2b(
            request.prompt.encode(), digest_size=8
        ).hexdigest()
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1

        if self._consecutive.get(key, 0) >= self.plan.max_consecutive:
            # Bounded adversary: this key has faulted the maximum number
            # of times in a row — let the attempt through clean.
            self._consecutive[key] = 0
            return self._finish(self.inner.complete(request))

        draw = _unit_float(self.plan.seed, key, attempt)
        plan = self.plan
        tally = self.tally
        if draw < plan.transient_rate:
            self._consecutive[key] = self._consecutive.get(key, 0) + 1
            tally.record("faults_injected")
            tally.record("transient_faults")
            raise TransientLLMError(
                f"injected transient failure (attempt {attempt})"
            )
        draw -= plan.transient_rate
        if draw < plan.rate_limit_rate:
            self._consecutive[key] = self._consecutive.get(key, 0) + 1
            tally.record("faults_injected")
            tally.record("rate_limit_faults")
            raise RateLimitError(
                f"injected rate limit (attempt {attempt})",
                retry_after_s=plan.retry_after_s,
            )
        draw -= plan.rate_limit_rate
        if draw < plan.malformed_rate:
            self._consecutive[key] = self._consecutive.get(key, 0) + 1
            tally.record("faults_injected")
            tally.record("malformed_completions")
            response = self.inner.complete(request)
            return self._finish(
                LLMResponse(
                    text=MALFORMED_TEXT,
                    model=response.model,
                    prompt_tokens=response.prompt_tokens,
                    completion_tokens=response.completion_tokens,
                )
            )
        draw -= plan.malformed_rate
        if draw < plan.latency_rate:
            # Latency is not an error: the attempt still succeeds, so the
            # consecutive-error run for this key ends here.
            tally.record("faults_injected")
            tally.record("latency_spikes")
            self._consecutive[key] = 0
            self.clock.sleep(plan.latency_s)
            return self._finish(self.inner.complete(request))
        self._consecutive[key] = 0
        return self._finish(self.inner.complete(request))
