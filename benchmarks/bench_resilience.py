"""Resilience bench: breaker availability under a flapping backend.

**Breakers buy availability per backend call.**  A two-rung router
escalates every pair to an authority that goes down for a window of the
drill (each doomed call also stalls a simulated second — the retry-storm
tax).  Routed with a :class:`repro.reliability.breaker.CircuitBreaker`
on the authority versus without one, both arms must answer 100% of
requests (failures degrade to band-midpoint decisions, never error),
but the breaker arm must pay at most half the doomed backend calls and
at most half the stall time: the breaker converts hammering a dead
backend into instant degradation plus a probe every cooldown.

Results are written to ``BENCH_resilience.json`` at the repository
root.  Run directly (``python benchmarks/bench_resilience.py``,
``--smoke`` for a CI-sized subset) or through pytest.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from repro.data.pairs import RecordPair
from repro.data.record import Record
from repro.errors import TransientLLMError
from repro.matchers.base import Matcher
from repro.reliability.breaker import STATE_CLOSED, CircuitBreaker
from repro.reliability.clock import FakeClock
from repro.routing import MatchRouter, RoutedBackend

_REPO_ROOT = Path(__file__).resolve().parent.parent
_OUT_PATH = _REPO_ROOT / "BENCH_resilience.json"

#: Acceptance bars the checked-in result must clear.
_MIN_CALL_REDUCTION = 2.0
_MIN_STALL_REDUCTION = 2.0

#: Flapping-backend drill shape (all times on a fake clock).
_FLAP_DOWN_FROM_S = 10.0
_FLAP_DOWN_UNTIL_S = 30.0
_FLAP_INTERARRIVAL_S = 0.25
_FLAP_FAIL_STALL_S = 1.0
_FLAP_OK_STALL_S = 0.01


# -- the drill: breaker availability under a flapping backend ------------------


class _MidScorer(Matcher):
    """Scores every pair mid-band, forcing an escalation request."""

    name = "mid"
    display_name = "Mid"

    def _predict(self, pairs, serialization_seed):
        return np.zeros(len(pairs), dtype=np.int64)

    def match_scores(self, pairs, serialization_seed=None):
        return np.full(len(pairs), 0.5)


class _FlappingAuthority(Matcher):
    """Fails (with a stall) inside the down window, answers 1 otherwise."""

    name = "flapping"
    display_name = "Flapping"

    def __init__(self, clock: FakeClock) -> None:
        super().__init__()
        self.clock = clock
        self.calls = 0
        self.failures = 0
        self.stall_s = 0.0

    def _predict(self, pairs, serialization_seed):
        self.calls += 1
        now = self.clock.monotonic()
        if _FLAP_DOWN_FROM_S <= now < _FLAP_DOWN_UNTIL_S:
            self.failures += 1
            self.stall_s += _FLAP_FAIL_STALL_S
            self.clock.advance(_FLAP_FAIL_STALL_S)
            raise TransientLLMError("authority is down")
        self.stall_s += _FLAP_OK_STALL_S
        self.clock.advance(_FLAP_OK_STALL_S)
        return np.ones(len(pairs), dtype=np.int64)


def _request_pair(i: int) -> RecordPair:
    """One unique in-band request pair."""
    left = Record(f"b{i}-l", (f"acme widget {i}",), "e1", source="left")
    right = Record(f"b{i}-r", (f"acme widget {i}",), "e1", source="right")
    return RecordPair(f"b{i}", left, right, label=1)


def _run_flap_arm(n_requests: int, with_breaker: bool) -> dict:
    """Drive the flapping drill through one router arm."""
    clock = FakeClock()
    authority = _FlappingAuthority(clock)
    breaker = (
        # A short window and a 50% rate keep the healthy traffic that
        # precedes the outage from diluting the failure rate: the
        # breaker reacts to the last few seconds, not the whole drill.
        CircuitBreaker(
            name="authority",
            min_requests=3,
            failure_threshold=0.5,
            window_s=3.0,
            open_duration_s=5.0,
            half_open_probes=1,
            clock=clock,
        )
        if with_breaker
        else None
    )
    router = MatchRouter(
        backends=[
            RoutedBackend(name="cheap", matcher=_MidScorer(), low=0.3, high=0.7),
            RoutedBackend(name="authority", matcher=authority, breaker=breaker),
        ],
        clock=clock,
    )
    answered = 0
    degraded = 0
    for i in range(n_requests):
        decisions = router.route([_request_pair(i)])
        answered += len(decisions)
        degraded += sum(
            1 for d in decisions if d.backend_failed or d.breaker_open
        )
        clock.advance(_FLAP_INTERARRIVAL_S)
    arm = {
        "arm": "breaker" if with_breaker else "no_breaker",
        "requests": n_requests,
        "answered": answered,
        "degraded": degraded,
        "authority_calls": authority.calls,
        "authority_failures": authority.failures,
        "stall_s": round(authority.stall_s, 3),
    }
    if breaker is not None:
        arm["breaker"] = {
            "final_state": breaker.state,
            "opens": int(breaker.counters["opens"]),
            "closes": int(breaker.counters["closes"]),
            "rejected": int(breaker.counters["rejected"]),
        }
    return arm


def _bench_flapping(n_requests: int) -> dict:
    """The flapping drill, with and without the breaker."""
    bare = _run_flap_arm(n_requests, with_breaker=False)
    guarded = _run_flap_arm(n_requests, with_breaker=True)
    return {
        "down_window_s": [_FLAP_DOWN_FROM_S, _FLAP_DOWN_UNTIL_S],
        "interarrival_s": _FLAP_INTERARRIVAL_S,
        "fail_stall_s": _FLAP_FAIL_STALL_S,
        "no_breaker": bare,
        "breaker": guarded,
        "call_reduction": round(
            bare["authority_failures"]
            / max(guarded["authority_failures"], 1),
            2,
        ),
        "stall_reduction": round(
            bare["stall_s"] / max(guarded["stall_s"], 1e-9), 2
        ),
    }


# -- harness -------------------------------------------------------------------


def run_bench(smoke: bool = False, out_path: Path = _OUT_PATH) -> dict:
    """Run the drill, assert the acceptance bars, write the doc."""
    flapping = _bench_flapping(n_requests=200 if smoke else 600)

    availability_ok = (
        flapping["no_breaker"]["answered"] == flapping["no_breaker"]["requests"]
        and flapping["breaker"]["answered"] == flapping["breaker"]["requests"]
    )
    criteria = {
        "availability_1_0_both_arms": availability_ok,
        "call_reduction": flapping["call_reduction"],
        "call_reduction_target": _MIN_CALL_REDUCTION,
        "stall_reduction": flapping["stall_reduction"],
        "stall_reduction_target": _MIN_STALL_REDUCTION,
    }
    criteria["passed"] = (
        availability_ok
        and criteria["call_reduction"] >= _MIN_CALL_REDUCTION
        and criteria["stall_reduction"] >= _MIN_STALL_REDUCTION
    )
    document = {
        "bench": "resilience",
        "profile": "bench-resilience" + ("-smoke" if smoke else ""),
        "flapping_backend": flapping,
        "criteria": criteria,
        "note": (
            "the flapping drill runs entirely on a FakeClock, so its stall "
            "seconds are simulated and deterministic.  Both arms of the "
            "flapping drill answer every request — backend failure "
            "degrades to the band midpoint (backend_failed) and an open "
            "breaker degrades instantly (breaker_open); the breaker's "
            "win is paying fewer doomed calls, not answering more."
        ),
    }
    assert criteria["passed"], f"acceptance not met: {criteria}"
    assert flapping["breaker"]["breaker"]["opens"] >= 1
    assert flapping["breaker"]["breaker"]["final_state"] == STATE_CLOSED
    out_path.write_text(json.dumps(document, indent=2) + "\n")
    print(
        f"[bench_resilience] flapping: doomed calls "
        f"{flapping['no_breaker']['authority_failures']} -> "
        f"{flapping['breaker']['authority_failures']} "
        f"({flapping['call_reduction']}x fewer), stall "
        f"{flapping['no_breaker']['stall_s']}s -> "
        f"{flapping['breaker']['stall_s']}s -> {out_path}",
        flush=True,
    )
    return document


def test_resilience_bench_smoke(tmp_path):
    """CI smoke: the drill clears its bars at the smoke scale."""
    document = run_bench(
        smoke=True, out_path=tmp_path / "BENCH_resilience_smoke.json"
    )
    assert document["criteria"]["passed"]
    flapping = document["flapping_backend"]
    assert flapping["breaker"]["answered"] == flapping["breaker"]["requests"]
    assert flapping["breaker"]["breaker"]["final_state"] == STATE_CLOSED


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: ``--smoke`` for the CI subset, ``--out`` to redirect."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized subset")
    parser.add_argument("--out", default=str(_OUT_PATH))
    args = parser.parse_args(argv)
    run_bench(smoke=args.smoke, out_path=Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
