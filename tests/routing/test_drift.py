"""Tests for the drift monitor: sketches, profiles, windows, events."""

from __future__ import annotations

import json
import zlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.reliability.clock import FakeClock
from repro.routing import (
    CountMinSketch,
    DriftMonitor,
    ReservoirSample,
    RoutingProfile,
    capture_profile,
    pair_tokens,
)
from tests.conftest import make_pair


def _pair(text: str, label: int = 0, pair_id: str = "p0"):
    return make_pair((text,), (text,), label=label, pair_id=pair_id)


class _PerTokenSketch(CountMinSketch):
    """The fold before the scatter: one numpy scalar increment per token and row."""

    def add_all(self, tokens, count=1):
        for token in tokens:
            data = token.encode("utf-8")
            for row in range(self.depth):
                column = zlib.crc32(data, row * 0x9E3779B1 & 0xFFFFFFFF) % self.width
                self._table[row, column] += count
            self.total += count


class TestPairTokens:
    def test_lowercased_both_sides(self):
        pair = make_pair(("Sony MDR",), ("Nikon Lens",), label=0)
        assert pair_tokens(pair) == ["sony", "mdr", "nikon", "lens"]


class TestCountMinSketch:
    def test_never_undercounts(self):
        sketch = CountMinSketch(width=16, depth=2)
        for i in range(100):
            sketch.add(f"token{i % 7}")
        for i in range(7):
            assert sketch.estimate(f"token{i}") >= 100 // 7
        assert sketch.total == 100

    def test_add_all_counts_repeats_and_matches_add(self):
        batched = CountMinSketch(width=16, depth=3)
        batched.add_all(["a", "b", "a", "a"])
        one_by_one = CountMinSketch(width=16, depth=3)
        for token in ["a", "b", "a", "a"]:
            one_by_one.add(token)
        assert np.array_equal(batched._table, one_by_one._table)
        assert batched.total == one_by_one.total == 4
        assert batched.estimate("a") >= 3
        batched.add_all([])
        assert batched.total == 4

    def test_exact_when_sparse(self):
        sketch = CountMinSketch(width=1024, depth=4)
        sketch.add("alpha", 3)
        sketch.add("beta")
        assert sketch.estimate("alpha") == 3
        assert sketch.estimate("beta") == 1

    def test_reset(self):
        sketch = CountMinSketch(width=64, depth=2)
        sketch.add("alpha")
        sketch.reset()
        assert sketch.estimate("alpha") == 0
        assert sketch.total == 0

    def test_hashing_is_process_independent(self):
        # Seeded crc32, never Python's salted hash(): the same token
        # always lands in the same columns.
        a = CountMinSketch(width=64, depth=3)
        b = CountMinSketch(width=64, depth=3)
        assert a._columns("entity") == b._columns("entity")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CountMinSketch(width=4)


class TestReservoirSample:
    def test_bounded_capacity(self):
        reservoir = ReservoirSample(capacity=8, seed=0)
        for i in range(1000):
            reservoir.add(f"t{i}")
        assert len(reservoir.items) == 8
        assert reservoir.seen == 1000

    def test_deterministic(self):
        streams = []
        for _ in range(2):
            reservoir = ReservoirSample(capacity=8, seed=3)
            for i in range(500):
                reservoir.add(f"t{i}")
            streams.append(list(reservoir.items))
        assert streams[0] == streams[1]

    def test_reset_reseeds(self):
        reservoir = ReservoirSample(capacity=4, seed=3)
        for i in range(100):
            reservoir.add(f"t{i}")
        first = list(reservoir.items)
        reservoir.reset()
        for i in range(100):
            reservoir.add(f"t{i}")
        assert reservoir.items == first


class TestRoutingProfile:
    def test_capture_and_json_round_trip(self):
        pairs = [
            _pair("sony mdr headphones", label=1, pair_id=f"a{i}") for i in range(5)
        ] + [
            _pair("nikon lens kit", label=0, pair_id=f"b{i}") for i in range(15)
        ]
        profile = capture_profile(pairs, vocabulary_size=16, seed=0)
        assert profile.positive_rate == pytest.approx(0.25)
        assert profile.n_pairs == 20
        assert "sony" in profile.vocabulary
        # Must survive a JSON round trip unchanged (it lives in the
        # artifact manifest).
        state = json.loads(json.dumps(profile.to_state()))
        assert RoutingProfile.from_state(state) == profile

    def test_capture_requires_pairs(self):
        with pytest.raises(ConfigurationError):
            capture_profile([])

    def test_capture_deterministic(self):
        pairs = [_pair(f"token{i} shared vocab", pair_id=f"p{i}") for i in range(50)]
        assert capture_profile(pairs, seed=1) == capture_profile(pairs, seed=1)


class TestDriftMonitor:
    def _profile(self):
        pairs = [
            _pair("sony mdr headphones audio", label=i % 4 == 0, pair_id=f"p{i}")
            for i in range(20)
        ]
        return capture_profile(pairs, vocabulary_size=16, seed=0)

    def test_window_closes_at_size(self):
        monitor = DriftMonitor(self._profile(), window=4, clock=FakeClock())
        for i in range(3):
            assert monitor.update(_pair("sony mdr headphones audio"), 0) is None
        scores = monitor.update(_pair("sony mdr headphones audio"), 1)
        assert scores is not None
        assert scores.window_index == 1
        assert scores.n_pairs == 4
        assert monitor.as_dict()["partial_window_pairs"] == 0

    def test_matching_traffic_scores_clean(self):
        monitor = DriftMonitor(
            self._profile(), window=4, min_overlap=0.5, max_skew=0.5,
            clock=FakeClock(),
        )
        for i in range(3):
            monitor.update(_pair("sony mdr headphones audio"), 0)
        scores = monitor.update(_pair("sony mdr headphones audio"), 1)
        assert scores.domain_overlap == 1.0
        assert scores.positive_skew == pytest.approx(abs(0.25 - monitor.profile.positive_rate))
        assert len(monitor.events) == 0

    def test_drifted_traffic_emits_events(self):
        monitor = DriftMonitor(
            self._profile(), window=4, min_overlap=0.9, max_skew=0.1,
            clock=FakeClock(),
        )
        for i in range(4):
            monitor.update(_pair("totally different vocabulary here"), 1)
        kinds = {event.kind for event in monitor.events}
        assert kinds == {"domain_overlap", "positive_skew"}
        state = monitor.as_dict()
        assert state["events"] == 2
        assert state["last_event"]["kind"] == "positive_skew"

    def test_events_deque_is_bounded(self):
        monitor = DriftMonitor(
            self._profile(), window=1, min_overlap=1.0, clock=FakeClock()
        )
        for i in range(DriftMonitor.MAX_EVENTS + 20):
            monitor.update(_pair("unrelated words entirely"), 0)
        assert len(monitor.events) == DriftMonitor.MAX_EVENTS

    def test_deterministic_replay(self):
        stream = [
            (_pair(f"item {i % 5} description", pair_id=f"p{i}"), i % 3 == 0)
            for i in range(30)
        ]
        states = []
        for _ in range(2):
            monitor = DriftMonitor(self._profile(), window=8, clock=FakeClock())
            for pair, label in stream:
                monitor.update(pair, int(label))
            states.append(json.dumps(monitor.as_dict(), sort_keys=True))
        assert states[0] == states[1]

    def test_scatter_fold_matches_the_per_token_fold(self):
        """Same tables, states, scores and events over windows and a partial one."""
        words = ["sony", "mdr", "headphones", "audio", "nikon", "lens", "kit", "drift"]
        stream = [
            (
                make_pair(
                    (" ".join(words[(i + k) % 8] for k in range(i % 5 + 1)), "Audio Audio"),
                    (f"SKU{i % 4} {words[i % 8]}", "audio"),
                    label=0,
                    pair_id=f"p{i}",
                ),
                int(i % 3 == 0),
            )
            for i in range(29)
        ]
        clocks = FakeClock(), FakeClock()
        scattered = DriftMonitor(
            self._profile(), window=8, min_overlap=0.9, max_skew=0.1,
            sketch_width=64, sketch_depth=3, clock=clocks[0],
        )
        per_token = DriftMonitor(
            self._profile(), window=8, min_overlap=0.9, max_skew=0.1,
            sketch_width=64, sketch_depth=3, clock=clocks[1],
        )
        per_token._sketch = _PerTokenSketch(width=64, depth=3)
        for pair, label in stream:
            for clock in clocks:
                clock.advance(0.5)
            assert scattered.update(pair, label) == per_token.update(pair, label)
            assert np.array_equal(scattered._sketch._table, per_token._sketch._table)
            assert scattered._sketch.total == per_token._sketch.total
            assert scattered.as_dict() == per_token.as_dict()
        assert scattered.as_dict()["windows_completed"] == 3
        assert scattered.as_dict()["partial_window_pairs"] == 5
        assert scattered._sketch.total > 0
        assert scattered.last_scores == per_token.last_scores
        assert list(scattered.events) == list(per_token.events)
        assert len(scattered.events) > 0

    def test_validation(self):
        profile = self._profile()
        with pytest.raises(ConfigurationError):
            DriftMonitor(profile, window=0)
        with pytest.raises(ConfigurationError):
            DriftMonitor(profile, min_overlap=1.5)
        with pytest.raises(ConfigurationError):
            DriftMonitor(profile, max_skew=-0.1)
