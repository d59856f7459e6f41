"""Client hardening: the one composition point for the reliability stack.

A study grid cell funnels every LLM client it builds through
:func:`harden_client`, passing the retry policy and fault plan its
:class:`~repro.config.StudyConfig` carries and the cell's
:class:`~repro.reliability.counters.Tally`; the cell then wraps the
result in its completion cache.  Nothing here reads a global or the
environment, so a pool worker gets its settings with the pickled cell.
The wrappers compose in the one order that preserves both parity and
cache semantics::

    CachedClient( RetryingClient( FaultInjector( SimulatedLLM ) ) )

— faults innermost (they model the unreliable backend), retries around
them (so retries see injected faults), and the cache outermost (so hits
skip the whole stack and only validated responses are ever stored).
"""

from __future__ import annotations

from ..llm.client import LLMClient
from .counters import Tally
from .faults import FaultInjector, FaultPlan
from .policy import RetryPolicy
from .retry import RetryingClient, validate_yes_no

__all__ = ["harden_client"]


def harden_client(
    client: LLMClient,
    policy: RetryPolicy | None = None,
    plan: FaultPlan | None = None,
    tally: Tally | None = None,
) -> LLMClient:
    """Compose the reliability stack around ``client``.

    Identity when neither ``policy`` nor a fault-injecting ``plan`` is
    given: default study behaviour is unchanged.  A plan that injects
    anything wraps the client in a
    :class:`~repro.reliability.faults.FaultInjector`; a policy *or* such
    a plan wraps the result in a
    :class:`~repro.reliability.retry.RetryingClient` carrying the yes/no
    response validator (a plan without a policy gets the default policy,
    whose ``max_attempts`` out-budgets the injector's
    ``max_consecutive`` cap).  Both wrappers count into ``tally``.
    """
    if plan is not None and plan.any_faults:
        client = FaultInjector(client, plan, tally=tally)
    else:
        plan = None
    if policy is None and plan is None:
        return client
    return RetryingClient(
        client, policy or RetryPolicy(), validate=validate_yes_no, tally=tally
    )
