"""Online drift detection against the profile a matcher was fitted on.

The study's Finding-2 analysis shows cross-dataset F1 is predicted by
*domain overlap* (shared vocabulary between transfer and target) and
*label skew* (how far the positive rate drifts) — i.e. a served matcher
is only as good as the resemblance between live traffic and the data it
was fitted on.  This module watches exactly those two signals online:

* At artifact-export time, :func:`capture_profile` summarises the
  fitted data into a small, JSON-serialisable :class:`RoutingProfile`
  (a vocabulary sample, the positive rate, mean pair length) that
  travels inside the artifact manifest.
* At serve time, a :class:`DriftMonitor` folds every routed pair into
  **bounded** streaming state — a fixed-width count-min sketch for token
  membership/frequency, one scatter of cell indices per pair; no
  per-token dict ever grows with the stream — and, once per window,
  compares the window against the profile: a windowed domain-overlap
  score and the positive-rate skew.  Threshold crossings emit
  :class:`DriftEvent` records into a bounded deque (and an obs span +
  counter), which ``GET /metrics`` surfaces.

Everything is deterministic: token hashing is seeded ``crc32`` (never
Python's per-process ``hash``), the profile's reservoir sample is drawn
with a seeded RNG, and event timestamps come from the injectable clock —
the same pair stream always produces the same scores and events.
"""

from __future__ import annotations

import zlib
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..data.pairs import RecordPair
from ..errors import ConfigurationError
from ..obs.trace import span
from ..reliability.clock import Clock, SystemClock

__all__ = [
    "pair_tokens",
    "CountMinSketch",
    "ReservoirSample",
    "RoutingProfile",
    "capture_profile",
    "DriftScores",
    "DriftEvent",
    "DriftMonitor",
]


def pair_tokens(pair: RecordPair) -> list[str]:
    """Lower-cased whitespace tokens of both records of a pair."""
    tokens: list[str] = []
    for record in (pair.left, pair.right):
        for value in record.values:
            tokens.extend(value.lower().split())
    return tokens


class CountMinSketch:
    """Fixed-width approximate token-frequency counter.

    ``depth`` independent seeded-``crc32`` hash rows of ``width``
    counters each; :meth:`estimate` returns the row-minimum, which can
    only over-count (never under-count).  State is ``depth x width``
    ``int64`` cells regardless of how many tokens stream through — the
    bounded-memory property the drift monitor needs.
    """

    def __init__(self, width: int = 1024, depth: int = 4) -> None:
        """A zeroed sketch of ``depth`` rows x ``width`` counters."""
        if width < 8 or depth < 1:
            raise ConfigurationError(f"need width >= 8 and depth >= 1, got {width}x{depth}")
        self.width = width
        self.depth = depth
        self._table = np.zeros((depth, width), dtype=np.int64)
        #: Each row's crc32 seed, and the flat index of each row's first cell.
        self._seeds = [row * 0x9E3779B1 & 0xFFFFFFFF for row in range(depth)]
        self._row_starts = np.arange(0, depth * width, width, dtype=np.int64)[:, None]
        #: Total tokens added (the denominator for frequency estimates).
        self.total = 0

    def _columns(self, token: str) -> list[int]:
        """The per-row column indices of ``token`` (seeded crc32)."""
        data = token.encode("utf-8")
        return [zlib.crc32(data, seed) % self.width for seed in self._seeds]

    def add(self, token: str, count: int = 1) -> None:
        """Fold ``count`` occurrences of ``token`` into the sketch."""
        self.add_all([token], count)

    def add_all(self, tokens: Sequence[str], count: int = 1) -> None:
        """Fold ``count`` occurrences of every token in ``tokens``.

        The tokens' cells in every row go into one scatter of flat
        indices (a token repeated in ``tokens`` counts each time), so
        numpy is called once per call, not once per token and row.
        """
        data = [token.encode("utf-8") for token in tokens]
        cells = np.array(
            [zlib.crc32(item, seed) for seed in self._seeds for item in data],
            dtype=np.int64,
        )
        cells.shape = (self.depth, len(data))
        cells %= self.width
        cells += self._row_starts
        np.add.at(self._table.reshape(-1), cells.reshape(-1), count)
        self.total += count * len(data)

    def estimate(self, token: str) -> int:
        """An upper-bound estimate of how often ``token`` was added."""
        return int(min(self._table[row, col] for row, col in enumerate(self._columns(token))))

    def reset(self) -> None:
        """Zero every counter (start a new window)."""
        self._table.fill(0)
        self.total = 0


class ReservoirSample:
    """A fixed-capacity uniform sample of a token stream.

    Classic reservoir sampling with a construction-seeded RNG, so the
    same stream yields the same sample.  :func:`capture_profile` draws
    the profile's vocabulary with it.
    """

    def __init__(self, capacity: int = 256, seed: int = 0) -> None:
        """An empty reservoir holding at most ``capacity`` tokens."""
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self._seed = seed
        self.items: list[str] = []
        self.seen = 0

    def add(self, token: str) -> None:
        """Offer one token to the reservoir."""
        self.seen += 1
        if len(self.items) < self.capacity:
            self.items.append(token)
            return
        slot = int(self._rng.integers(0, self.seen))
        if slot < self.capacity:
            self.items[slot] = token

    def reset(self) -> None:
        """Empty the reservoir and re-seed the RNG (new window, same seed)."""
        self._rng = np.random.default_rng(self._seed)
        self.items = []
        self.seen = 0


@dataclass(frozen=True)
class RoutingProfile:
    """The fitted-data summary a drift monitor compares traffic against.

    Captured at artifact-export time and stored in the artifact manifest
    (plain JSON — no pickled state), so a serving process reloading the
    artifact reloads the exact profile the matcher was fitted under.
    """

    #: Sorted distinct-token sample of the fitted data's vocabulary.
    vocabulary: tuple[str, ...]
    #: Fraction of fitted pairs labelled a match.
    positive_rate: float
    #: Mean :func:`pair_tokens` length of the fitted pairs.
    mean_pair_tokens: float
    #: How many pairs the profile summarises.
    n_pairs: int

    def to_state(self) -> dict:
        """JSON-ready form for the artifact manifest."""
        return {
            "vocabulary": list(self.vocabulary),
            "positive_rate": self.positive_rate,
            "mean_pair_tokens": self.mean_pair_tokens,
            "n_pairs": self.n_pairs,
        }

    @classmethod
    def from_state(cls, state: dict) -> "RoutingProfile":
        """Rebuild a profile from :meth:`to_state` output."""
        return cls(
            vocabulary=tuple(str(t) for t in state["vocabulary"]),
            positive_rate=float(state["positive_rate"]),
            mean_pair_tokens=float(state["mean_pair_tokens"]),
            n_pairs=int(state["n_pairs"]),
        )


def capture_profile(
    pairs: Sequence[RecordPair],
    vocabulary_size: int = 256,
    seed: int = 0,
) -> RoutingProfile:
    """Summarise labelled pairs into a :class:`RoutingProfile`.

    The vocabulary sample is drawn by frequency-weighted reservoir over
    the token stream, then de-duplicated and sorted — a deterministic,
    bounded picture of what the fitted domain "talks about".
    """
    if not pairs:
        raise ConfigurationError("cannot capture a routing profile from no pairs")
    reservoir = ReservoirSample(capacity=vocabulary_size * 4, seed=seed)
    token_counts = 0
    positives = 0
    for pair in pairs:
        tokens = pair_tokens(pair)
        token_counts += len(tokens)
        positives += int(pair.label == 1)
        for token in tokens:
            reservoir.add(token)
    vocabulary = tuple(sorted(set(reservoir.items))[:vocabulary_size])
    return RoutingProfile(
        vocabulary=vocabulary,
        positive_rate=positives / len(pairs),
        mean_pair_tokens=token_counts / len(pairs),
        n_pairs=len(pairs),
    )


@dataclass(frozen=True)
class DriftScores:
    """One window's drift measurements against the profile."""

    #: Which completed window produced these scores (1-based).
    window_index: int
    #: Pairs in the window.
    n_pairs: int
    #: Fraction of profile-vocabulary tokens observed in the window
    #: (count-min membership: may slightly over-estimate, never under).
    domain_overlap: float
    #: ``|window positive rate - profile positive rate|``.
    positive_skew: float
    #: The window's predicted-positive rate itself.
    positive_rate: float

    def as_dict(self) -> dict:
        """JSON-ready form for ``GET /metrics``."""
        return {
            "window_index": self.window_index,
            "n_pairs": self.n_pairs,
            "domain_overlap": round(self.domain_overlap, 4),
            "positive_skew": round(self.positive_skew, 4),
            "positive_rate": round(self.positive_rate, 4),
        }


@dataclass(frozen=True)
class DriftEvent:
    """A threshold crossing: the traffic has drifted off the profile."""

    #: ``"domain_overlap"`` or ``"positive_skew"``.
    kind: str
    #: The offending measured value.
    value: float
    #: The configured threshold it crossed.
    threshold: float
    #: The scores of the window that tripped.
    scores: DriftScores
    #: Clock timestamp (monotonic seconds) when the window closed.
    at_monotonic: float


class DriftMonitor:
    """Windowed drift scoring of a live pair stream against a profile.

    Every routed pair is :meth:`update`-d with its decided label; each
    completed window of ``window`` pairs is scored and the sketch reset,
    so memory stays bounded by the sketch size, never the stream length.
    ``min_overlap``/``max_skew`` are the event thresholds; events land
    in a bounded deque (newest kept).
    """

    #: How many threshold-crossing events are retained.
    MAX_EVENTS = 64

    def __init__(
        self,
        profile: RoutingProfile,
        window: int = 512,
        min_overlap: float = 0.5,
        max_skew: float = 0.25,
        sketch_width: int = 1024,
        sketch_depth: int = 4,
        clock: Clock | None = None,
    ) -> None:
        """Monitor drift against ``profile`` in windows of ``window`` pairs."""
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        if not 0.0 <= min_overlap <= 1.0:
            raise ConfigurationError(f"min_overlap must be in [0, 1], got {min_overlap}")
        if not 0.0 <= max_skew <= 1.0:
            raise ConfigurationError(f"max_skew must be in [0, 1], got {max_skew}")
        self.profile = profile
        self.window = window
        self.min_overlap = min_overlap
        self.max_skew = max_skew
        self.clock = clock or SystemClock()
        self._sketch = CountMinSketch(width=sketch_width, depth=sketch_depth)
        self._window_pairs = 0
        self._window_positives = 0
        self._windows_completed = 0
        self.last_scores: DriftScores | None = None
        self.events: deque[DriftEvent] = deque(maxlen=self.MAX_EVENTS)
        #: Total pairs ever observed.
        self.pairs_seen = 0

    def update(self, pair: RecordPair, label: int) -> DriftScores | None:
        """Fold one routed pair (and its decided label) into the window.

        Returns the window's :class:`DriftScores` when this update
        completes a window, else ``None``.
        """
        with span("drift.update") as update_span:
            self._sketch.add_all(pair_tokens(pair))
            self._window_pairs += 1
            self._window_positives += int(label == 1)
            self.pairs_seen += 1
            if self._window_pairs < self.window:
                return None
            scores = self._close_window()
            update_span.set(
                window=scores.window_index,
                domain_overlap=scores.domain_overlap,
                positive_skew=scores.positive_skew,
            )
            return scores

    def _close_window(self) -> DriftScores:
        """Score the completed window, emit events, reset the window."""
        self._windows_completed += 1
        vocabulary = self.profile.vocabulary
        if vocabulary:
            present = sum(1 for token in vocabulary if self._sketch.estimate(token) > 0)
            overlap = present / len(vocabulary)
        else:
            overlap = 1.0
        positive_rate = self._window_positives / self._window_pairs
        skew = abs(positive_rate - self.profile.positive_rate)
        scores = DriftScores(
            window_index=self._windows_completed,
            n_pairs=self._window_pairs,
            domain_overlap=overlap,
            positive_skew=skew,
            positive_rate=positive_rate,
        )
        self.last_scores = scores
        now = self.clock.monotonic()
        if overlap < self.min_overlap:
            self.events.append(DriftEvent(
                kind="domain_overlap", value=overlap,
                threshold=self.min_overlap, scores=scores, at_monotonic=now,
            ))
        if skew > self.max_skew:
            self.events.append(DriftEvent(
                kind="positive_skew", value=skew,
                threshold=self.max_skew, scores=scores, at_monotonic=now,
            ))
        self._sketch.reset()
        self._window_pairs = 0
        self._window_positives = 0
        return scores

    def as_dict(self) -> dict:
        """JSON-ready monitor state for ``GET /metrics`` / ``GET /router``."""
        return {
            "window": self.window,
            "pairs_seen": self.pairs_seen,
            "windows_completed": self._windows_completed,
            "partial_window_pairs": self._window_pairs,
            "thresholds": {
                "min_overlap": self.min_overlap,
                "max_skew": self.max_skew,
            },
            "profile": {
                "positive_rate": self.profile.positive_rate,
                "vocabulary_size": len(self.profile.vocabulary),
                "n_pairs": self.profile.n_pairs,
            },
            "last_scores": self.last_scores.as_dict() if self.last_scores else None,
            "events": len(self.events),
            "last_event": (
                {
                    "kind": self.events[-1].kind,
                    "value": round(self.events[-1].value, 4),
                    "threshold": self.events[-1].threshold,
                    "window_index": self.events[-1].scores.window_index,
                }
                if self.events
                else None
            ),
        }
