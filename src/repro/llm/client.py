"""LLM client abstraction and usage metering.

Matchers talk to any :class:`LLMClient` — in this offline reproduction the
implementation is :class:`~repro.llm.simulated.SimulatedLLM`, but the
interface mirrors a thin commercial-API wrapper: a prompt goes in, text
and token usage come out, and a :class:`UsageMeter` enforces token/dollar
budgets (the paper spends $290 on OpenAI calls; budget control is part of
any real deployment).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import BudgetExceededError, LLMError
from .tokens import count_tokens

__all__ = [
    "LLMRequest",
    "LLMResponse",
    "LLMClient",
    "UsageMeter",
    "MeteredClient",
    "EchoClient",
]


@dataclass(frozen=True)
class LLMRequest:
    """One completion request."""

    prompt: str
    max_tokens: int = 4
    #: Experiment bookkeeping (e.g. the demonstration strategy label).
    #: Metadata never carries labels or entity identities.
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Reject empty prompts and non-positive token budgets."""
        if not self.prompt:
            raise LLMError("empty prompt")
        if self.max_tokens <= 0:
            raise LLMError("max_tokens must be positive")


@dataclass(frozen=True)
class LLMResponse:
    """A completion plus its token usage."""

    text: str
    model: str
    prompt_tokens: int
    completion_tokens: int

    @property
    def total_tokens(self) -> int:
        """Prompt plus completion tokens."""
        return self.prompt_tokens + self.completion_tokens


class LLMClient:
    """Interface every LLM backend implements."""

    #: Model identifier reported in responses.
    model_name: str = "unknown"
    #: Extra key material for the content-addressed completion cache
    #: (:mod:`repro.runtime.cache`).  Backends whose responses depend on
    #: state beyond ``(model_name, prompt)`` — e.g. the simulated
    #: service's decision seed — must encode that state here so cached
    #: responses are provably interchangeable with recomputed ones.
    cache_salt: str = ""

    def complete(self, request: LLMRequest) -> LLMResponse:
        """Answer one request (implemented by every backend).

        Failures raise :class:`~repro.errors.LLMError` subclasses; the
        transient subset (see :mod:`repro.reliability.policy`) is safe
        to retry because no completion was produced.
        """
        raise NotImplementedError


class UsageMeter:
    """Accumulates token usage and dollar cost across requests.

    ``price_per_1k_tokens`` prices *input* tokens only — the study models
    EM as sequence classification whose single-word output is negligible
    (Section 2.3).
    """

    def __init__(
        self,
        price_per_1k_tokens: float = 0.0,
        token_budget: int | None = None,
        dollar_budget: float | None = None,
    ) -> None:
        """Set the input-token price and optional token/dollar budgets."""
        if price_per_1k_tokens < 0:
            raise LLMError("price must be non-negative")
        self.price_per_1k_tokens = price_per_1k_tokens
        self.token_budget = token_budget
        self.dollar_budget = dollar_budget
        self.n_requests = 0
        self.prompt_tokens = 0
        self.completion_tokens = 0

    @property
    def total_tokens(self) -> int:
        """Prompt plus completion tokens."""
        return self.prompt_tokens + self.completion_tokens

    @property
    def dollars_spent(self) -> float:
        """Input-token spend so far at the configured price."""
        return self.prompt_tokens / 1_000 * self.price_per_1k_tokens

    def record(self, response: LLMResponse) -> None:
        """Account one response; raises once a budget would be exceeded."""
        self.n_requests += 1
        self.prompt_tokens += response.prompt_tokens
        self.completion_tokens += response.completion_tokens
        if self.token_budget is not None and self.total_tokens > self.token_budget:
            raise BudgetExceededError(
                f"token budget {self.token_budget} exceeded ({self.total_tokens})"
            )
        if self.dollar_budget is not None and self.dollars_spent > self.dollar_budget:
            raise BudgetExceededError(
                f"dollar budget ${self.dollar_budget:.4f} exceeded "
                f"(${self.dollars_spent:.4f})"
            )


class MeteredClient(LLMClient):
    """Wrap a client so every call is recorded on a meter."""

    def __init__(self, inner: LLMClient, meter: UsageMeter) -> None:
        """Wrap ``inner`` so ``meter`` accounts every completion."""
        self.inner = inner
        self.meter = meter
        self.model_name = inner.model_name
        self.cache_salt = getattr(inner, "cache_salt", "")

    def complete(self, request: LLMRequest) -> LLMResponse:
        """Complete through the inner client, then meter the response."""
        response = self.inner.complete(request)
        self.meter.record(response)
        return response


class EchoClient(LLMClient):
    """Deterministic test double: always answers ``fixed_answer``."""

    def __init__(self, fixed_answer: str = "No", model_name: str = "echo") -> None:
        """A client that answers every prompt with ``fixed_answer``."""
        self.fixed_answer = fixed_answer
        self.model_name = model_name

    def complete(self, request: LLMRequest) -> LLMResponse:
        """Return the fixed answer with real token accounting."""
        return LLMResponse(
            text=self.fixed_answer,
            model=self.model_name,
            prompt_tokens=count_tokens(request.prompt),
            completion_tokens=count_tokens(self.fixed_answer),
        )
