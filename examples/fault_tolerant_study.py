"""Fault-tolerant matching: inject API failures, retry, get identical results.

The hosted APIs behind the paper throttle, drop connections, and
occasionally return garbage. This example wraps the simulated LLM in a
deterministic :class:`FaultInjector` (20% transient errors, 5% rate
limits, 5% malformed completions) and a :class:`RetryingClient` with the
default backoff policy, then shows that the matcher's predictions are
*byte-identical* to a fault-free run — the retries absorb every fault.

Run:  python examples/fault_tolerant_study.py
"""

from __future__ import annotations

from repro import (
    MatchGPTMatcher,
    SimulatedLLM,
    build_dataset,
    get_llm_profile,
    get_profile,
    precision_recall_f1,
)
from repro.errors import RetryExhaustedError
from repro.reliability import (
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    RetryingClient,
    Tally,
    validate_yes_no,
)


def main() -> None:
    dataset, world = build_dataset("BEER", scale=0.3, seed=7)
    labels = dataset.labels()
    profile = get_profile("smoke")

    # 1. The fault-free reference run.
    clean = SimulatedLLM(get_llm_profile("gpt-4o-mini"), world, seed=0)
    matcher = MatchGPTMatcher(clean).fit([], profile)
    reference = matcher.predict(dataset.pairs, serialization_seed=0)
    p, r, f1 = precision_recall_f1(labels, reference)
    print(f"clean run      P {p:5.1f}  R {r:5.1f}  F1 {f1:5.1f}")

    # 2. The same run through a hostile network: 30% of requests fault.
    #    The plan is a *bounded adversary* (max_consecutive=3 < the
    #    policy's 4 attempts), so retries always converge, and every
    #    fault draw depends only on (seed, prompt, attempt) — never on
    #    call order.
    plan = FaultPlan(transient_rate=0.2, rate_limit_rate=0.05,
                     malformed_rate=0.05, seed=7)
    policy = RetryPolicy()  # 4 attempts, exp. backoff, seeded jitter
    #    Both wrappers count into one local tally.
    backend = SimulatedLLM(get_llm_profile("gpt-4o-mini"), world, seed=0)
    tally = Tally()
    hardened = RetryingClient(
        FaultInjector(backend, plan, tally=tally), policy,
        validate=validate_yes_no, tally=tally,
    )

    matcher = MatchGPTMatcher(hardened).fit([], profile)
    faulted = matcher.predict(dataset.pairs, serialization_seed=0)
    delta = tally.snapshot()

    p, r, f1 = precision_recall_f1(labels, faulted)
    print(f"faulted run    P {p:5.1f}  R {r:5.1f}  F1 {f1:5.1f}")
    print(f"  faults injected: {delta['faults_injected']:.0f} "
          f"(transient {delta['transient_faults']:.0f}, "
          f"rate-limit {delta['rate_limit_faults']:.0f}, "
          f"malformed {delta['malformed_completions']:.0f})")
    print(f"  request retries: {delta['request_retries']:.0f}, "
          f"backoff slept {delta['retry_sleep_seconds']:.2f}s")

    assert list(faulted) == list(reference), "retries must not change any prediction"
    print("predictions are byte-identical to the clean run")

    # 3. Without retries the same faults are fatal: the first injected
    #    error (or garbled completion) surfaces immediately.
    fragile = RetryingClient(
        FaultInjector(SimulatedLLM(get_llm_profile("gpt-4o-mini"), world, seed=0),
                      plan),
        policy.without_retries(), validate=validate_yes_no,
    )
    try:
        MatchGPTMatcher(fragile).fit([], profile).predict(
            dataset.pairs, serialization_seed=0
        )
    except RetryExhaustedError as error:
        print(f"without retries: {type(error).__name__} "
              f"(caused by {type(error.__cause__).__name__})")


if __name__ == "__main__":
    main()
