"""FaultInjector: determinism, the bounded adversary, fault shapes."""

from __future__ import annotations

import pytest

from repro.errors import (
    ConfigurationError,
    MalformedCompletionError,
    PromptError,
    RateLimitError,
    TransientLLMError,
)
from repro.llm.client import EchoClient, LLMRequest
from repro.llm.prompts import parse_answer
from repro.reliability import (
    FakeClock,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    RetryingClient,
    Tally,
    validate_yes_no,
)
from repro.reliability import faults
from repro.reliability.faults import MALFORMED_TEXT

_PROMPTS = [f"Do entries A{i} and B{i} match? ('Yes'/'No')" for i in range(40)]


def _outcome(injector: FaultInjector, prompt: str) -> str:
    """One attempt's outcome tag for determinism comparisons."""
    try:
        response = injector.complete(LLMRequest(prompt=prompt))
    except RateLimitError:
        return "rate_limit"
    except TransientLLMError:
        return "transient"
    return "malformed" if response.text == MALFORMED_TEXT else "clean"


def _plan(**overrides) -> FaultPlan:
    defaults = dict(transient_rate=0.2, rate_limit_rate=0.1,
                    malformed_rate=0.1, retry_after_s=0.0, seed=5)
    defaults.update(overrides)
    return FaultPlan(**defaults)


class TestDeterminism:
    def test_fault_sequence_is_independent_of_request_order(self):
        """Per-prompt outcomes depend on (seed, prompt, attempt) only —
        interleaving requests differently must not move any fault."""
        forward = FaultInjector(EchoClient(), _plan())
        ordered = {p: [_outcome(forward, p) for _ in range(3)] for p in _PROMPTS}

        shuffled = FaultInjector(EchoClient(), _plan())
        interleaved: dict[str, list[str]] = {p: [] for p in _PROMPTS}
        for attempt in range(3):  # round-robin instead of depth-first
            for p in reversed(_PROMPTS):
                interleaved[p].append(_outcome(shuffled, p))
        assert interleaved == ordered

    def test_fresh_injector_replays_identically(self):
        a = FaultInjector(EchoClient(), _plan())
        b = FaultInjector(EchoClient(), _plan())
        for p in _PROMPTS:
            assert [_outcome(a, p)] * 1 == [_outcome(b, p)]

    def test_seed_changes_the_sequence(self):
        a = FaultInjector(EchoClient(), _plan(seed=5))
        b = FaultInjector(EchoClient(), _plan(seed=6))
        assert [_outcome(a, p) for p in _PROMPTS] != [
            _outcome(b, p) for p in _PROMPTS
        ]


class TestBoundedAdversary:
    def test_consecutive_errors_capped_then_clean(self):
        plan = _plan(transient_rate=1.0, rate_limit_rate=0.0,
                     malformed_rate=0.0, max_consecutive=3)
        injector = FaultInjector(EchoClient("No"), plan)
        request = LLMRequest(prompt=_PROMPTS[0])
        for _ in range(3):
            with pytest.raises(TransientLLMError):
                injector.complete(request)
        assert injector.complete(request).text == "No"  # the cap kicks in
        with pytest.raises(TransientLLMError):  # and the run restarts
            injector.complete(request)

    def test_default_policy_always_outlasts_default_adversary(self):
        """max_attempts (4) > max_consecutive (3): retries always converge,
        even at 100% error rate."""
        plan = _plan(transient_rate=0.8, rate_limit_rate=0.1,
                     malformed_rate=0.1)
        client = RetryingClient(
            FaultInjector(EchoClient("Yes"), plan),
            RetryPolicy(base_delay_s=0.0, jitter=0.0),
            clock=FakeClock(), validate=validate_yes_no,
        )
        for p in _PROMPTS:
            assert client.complete(LLMRequest(prompt=p)).text == "Yes"


class TestFaultShapes:
    def test_rate_limit_carries_the_hint(self):
        plan = _plan(transient_rate=0.0, rate_limit_rate=1.0,
                     malformed_rate=0.0, retry_after_s=0.25)
        injector = FaultInjector(EchoClient(), plan)
        with pytest.raises(RateLimitError) as excinfo:
            injector.complete(LLMRequest(prompt=_PROMPTS[0]))
        assert excinfo.value.retry_after_s == 0.25

    def test_malformed_text_fails_yes_no_parsing(self):
        with pytest.raises(PromptError):
            parse_answer(MALFORMED_TEXT)
        plan = _plan(transient_rate=0.0, rate_limit_rate=0.0,
                     malformed_rate=1.0)
        injector = FaultInjector(EchoClient("Yes"), plan)
        response = injector.complete(LLMRequest(prompt=_PROMPTS[0]))
        assert response.text == MALFORMED_TEXT
        with pytest.raises(MalformedCompletionError):
            validate_yes_no(response)

    def test_latency_spike_sleeps_but_succeeds(self):
        clock = FakeClock()
        plan = FaultPlan(latency_rate=1.0, latency_s=0.3, seed=1)
        injector = FaultInjector(EchoClient("No"), plan, clock=clock)
        assert injector.complete(LLMRequest(prompt=_PROMPTS[0])).text == "No"
        assert clock.sleeps == [0.3]

    def test_faults_count_into_the_shared_tally(self):
        tally = Tally()
        client = RetryingClient(
            FaultInjector(EchoClient("Yes"), _plan(), tally=tally),
            RetryPolicy(base_delay_s=0.0, jitter=0.0),
            validate=validate_yes_no,
            tally=tally,
        )
        for prompt in _PROMPTS:
            client.complete(LLMRequest(prompt=prompt))
        counts = tally.snapshot()
        assert counts["faults_injected"] == (
            counts["transient_faults"] + counts["rate_limit_faults"]
            + counts["malformed_completions"]
        ) > 0
        # Every injected error cost one more attempt, and a retry.
        assert counts["request_retries"] == counts["faults_injected"]
        assert counts["attempts"] == len(_PROMPTS) + counts["request_retries"]


class TestPlanSpecs:
    def test_parse_covers_every_rate_key(self):
        spec = ("transient=0.2,rate_limit=0.05,latency=0.1,malformed=0.05,"
                "latency_s=0.02,retry_after_s=0.1,seed=3,max_consecutive=2")
        assert FaultPlan.parse(spec) == FaultPlan(
            transient_rate=0.2, rate_limit_rate=0.05, latency_rate=0.1,
            malformed_rate=0.05, latency_s=0.02, retry_after_s=0.1, seed=3,
            max_consecutive=2,
        )
        # Whitespace and empty fragments are tolerated; unset keys default.
        assert FaultPlan.parse(" transient = 0.2 ,, seed=3 ") == FaultPlan(
            transient_rate=0.2, seed=3
        )
        assert FaultPlan.parse("") == FaultPlan()
        for bad in ("transient", "seed=three", "max_consecutive=1.5"):
            with pytest.raises(ConfigurationError):
                FaultPlan.parse(bad)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(transient_rate=0.6, malformed_rate=0.6)  # sums past 1
        with pytest.raises(ConfigurationError):
            FaultPlan(transient_rate=-0.1)
        with pytest.raises(ConfigurationError):
            FaultPlan(max_consecutive=0)
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("transient=0.2,nonsense=1")


class TestCrashPoint:
    """Deterministic crash-at-Nth-completion and torn-write fault modes."""

    @pytest.fixture(autouse=True)
    def _clean_state(self):
        faults.reset_crash_state()
        yield
        faults.reset_crash_state()

    def test_parse_crash_keys(self):
        assert FaultPlan.parse("crash_at=3,torn_write=1") == FaultPlan(
            crash_at=3, torn_write=True
        )
        parsed = FaultPlan.parse("crash_at=2,torn_write=0")
        assert parsed.crash_at == 2 and parsed.torn_write is False
        assert FaultPlan.parse("crash_at=1").torn_write is False

    def test_validation_and_any_faults(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(crash_at=-1)
        assert FaultPlan(crash_at=1).any_faults
        assert not FaultPlan().any_faults

    def test_crash_fires_at_nth_completion(self, monkeypatch):
        exits = []
        monkeypatch.setattr(
            faults.os, "_exit", lambda code: exits.append(code) or _exit_stub()
        )
        injector = FaultInjector(EchoClient(), FaultPlan(crash_at=2))
        injector.complete(LLMRequest(prompt=_PROMPTS[0]))  # 1st survives
        with pytest.raises(_StubExit):
            injector.complete(LLMRequest(prompt=_PROMPTS[1]))  # 2nd dies
        assert exits == [faults.CRASH_EXIT_CODE]

    def test_counter_is_shared_across_injectors(self, monkeypatch):
        monkeypatch.setattr(faults.os, "_exit", lambda code: _exit_stub())
        plan = FaultPlan(crash_at=2)
        first = FaultInjector(EchoClient(), plan)
        second = FaultInjector(EchoClient(), plan)
        first.complete(LLMRequest(prompt=_PROMPTS[0]))
        with pytest.raises(_StubExit):
            second.complete(LLMRequest(prompt=_PROMPTS[1]))

    def test_torn_write_fires_hooks_before_exit(self, monkeypatch):
        events = []
        monkeypatch.setattr(faults.os, "_exit", lambda code: _exit_stub())
        token = faults.register_crash_hook(lambda: events.append("torn"))
        injector = FaultInjector(
            EchoClient(), FaultPlan(crash_at=1, torn_write=True)
        )
        with pytest.raises(_StubExit):
            injector.complete(LLMRequest(prompt=_PROMPTS[0]))
        assert events == ["torn"]
        faults.unregister_crash_hook(token)

    def test_hooks_skipped_without_torn_write(self, monkeypatch):
        events = []
        monkeypatch.setattr(faults.os, "_exit", lambda code: _exit_stub())
        faults.register_crash_hook(lambda: events.append("torn"))
        injector = FaultInjector(EchoClient(), FaultPlan(crash_at=1))
        with pytest.raises(_StubExit):
            injector.complete(LLMRequest(prompt=_PROMPTS[0]))
        assert events == []

    def test_unregister_is_idempotent(self):
        token = faults.register_crash_hook(lambda: None)
        faults.unregister_crash_hook(token)
        faults.unregister_crash_hook(token)  # unknown token: no error
        assert token not in faults._crash_hooks


class _StubExit(BaseException):
    """Stands in for the process disappearing under ``os._exit``."""


def _exit_stub():
    raise _StubExit
