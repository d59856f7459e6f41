"""The metrics registry: counters, gauges and histograms.

:class:`MetricsRegistry` is the one series store of :mod:`repro.obs`.
It holds what no other object counts — the span series a tracer feeds
it — and renders the ``GET /metrics`` Prometheus view.  Counts that an
object already keeps (a study's :class:`~repro.runtime.stats.RuntimeStats`,
a service's :class:`~repro.serving.service.ServingStats`, a router's or
a breaker's ``counters``) stay with that object and are never copied in.

* **Counters** are monotonically increasing totals (``spans_total``);
  **gauges** are last-written values (``serving_queue_depth``);
  **histograms** bucket observations into *fixed*, pre-declared upper
  bounds so two snapshots taken on different machines (or merged across
  workers) line up bucket-for-bucket.
* Every series carries optional labels (``span_seconds{name="grid.cell"}``)
  and every update takes one lock — thread-pool grid cells and the
  serving dispatcher mutate a registry concurrently.
* :meth:`MetricsRegistry.snapshot` emits a deterministic, JSON-ready
  document and :meth:`MetricsRegistry.merge` folds a snapshot back in.
  Counter and histogram merging is element-wise addition, so merging is
  associative and commutative — worker deltas can be combined in any
  order and the total is exact (the property
  ``tests/obs/test_registry.py`` pins).  Gauges are last-write-wins.
* :meth:`MetricsRegistry.render_prometheus` renders the whole registry
  in the Prometheus text exposition format, which ``GET /metrics``
  serves alongside the JSON block.

Timing goes through an injectable monotonic clock (any object with
``monotonic()``; default ``time.perf_counter``) so the timed helpers are
testable without sleeping.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

from ..errors import ConfigurationError

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
]

#: Default histogram upper bounds, in seconds: spans range from
#: sub-millisecond no-op checks to multi-minute grid phases.  A final
#: implicit ``+Inf`` bucket catches everything beyond the last bound.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: Series key: (metric name, sorted (label, value) pairs).
_SeriesKey = tuple[str, tuple[tuple[str, str], ...]]


def _series_key(name: str, labels: dict[str, object]) -> _SeriesKey:
    """The canonical dict key for one labelled series."""
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_block(labels: tuple[tuple[str, str], ...]) -> str:
    """Prometheus-style ``{k="v",...}`` rendering (empty when unlabelled)."""
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


def _prom_name(name: str) -> str:
    """Sanitise a metric name for the Prometheus exposition format."""
    return "".join(c if (c.isalnum() or c in "_:") else "_" for c in name)


def _prom_value(value: float) -> str:
    """Render one sample value (integers without a trailing ``.0``)."""
    return str(int(value)) if float(value).is_integer() else repr(float(value))


class _Histogram:
    """One fixed-bucket histogram series (bounds frozen at creation)."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        #: Per-bucket (non-cumulative) counts; the extra final slot is
        #: the implicit ``+Inf`` overflow bucket.
        self.counts = [0] * (len(buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.sum += value
        self.count += 1


class MetricsRegistry:
    """Thread-safe counters, gauges and fixed-bucket histograms.

    One registry per scope of interest: a traced study run feeds its
    tracer's span series into one, the serving layer builds an
    ephemeral one to render ``GET /metrics``, and tests construct their
    own.
    """

    def __init__(self, clock: Callable[[], float] | object | None = None) -> None:
        """An empty registry timing through ``clock``.

        ``clock`` is either a callable returning monotonic seconds or an
        object with a ``monotonic()`` method (the reliability layer's
        :class:`~repro.reliability.clock.Clock` shape); default
        ``time.perf_counter``.
        """
        if clock is None:
            self._clock: Callable[[], float] = time.perf_counter
        elif callable(clock):
            self._clock = clock  # type: ignore[assignment]
        else:
            self._clock = clock.monotonic  # type: ignore[union-attr]
        self._lock = threading.Lock()
        self._counters: dict[_SeriesKey, float] = {}
        self._gauges: dict[_SeriesKey, float] = {}
        self._histograms: dict[_SeriesKey, _Histogram] = {}

    # -- updates -------------------------------------------------------------

    def counter(self, name: str, amount: float = 1.0, /, **labels: object) -> None:
        """Add ``amount`` to the counter series ``name{labels}``.

        ``name``/``amount`` are positional-only so any keyword —
        including ``name`` itself — is a label.
        """
        key = _series_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + amount

    def gauge(self, name: str, value: float, /, **labels: object) -> None:
        """Set the gauge series ``name{labels}`` to ``value`` (last wins)."""
        key = _series_key(name, labels)
        with self._lock:
            self._gauges[key] = float(value)

    def histogram(
        self,
        name: str,
        value: float,
        /,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> None:
        """Fold ``value`` into the histogram series ``name{labels}``.

        The first observation of a series fixes its bucket bounds; a
        later call with a *different* ``buckets`` tuple is a
        configuration error (fixed buckets are what make merged
        snapshots line up).
        """
        key = _series_key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = _Histogram(tuple(buckets))
            elif buckets is not DEFAULT_BUCKETS and tuple(buckets) != hist.buckets:
                raise ConfigurationError(
                    f"histogram {name!r} already declared with buckets "
                    f"{hist.buckets}; cannot re-declare with {tuple(buckets)}"
                )
            hist.observe(float(value))

    @contextmanager
    def timed(self, name: str, /, **labels: object) -> Iterator[None]:
        """Observe the elapsed clock seconds of the body into ``name``."""
        started = self._clock()
        try:
            yield
        finally:
            self.histogram(name, self._clock() - started, **labels)

    # -- snapshot / merge ----------------------------------------------------

    def snapshot(self) -> dict:
        """A deterministic, JSON-ready copy of every series.

        Series are sorted by ``(name, labels)``; histogram counts are
        per-bucket (non-cumulative) so merging is plain element-wise
        addition.
        """
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        return {
            "counters": [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in counters
            ],
            "gauges": [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in gauges
            ],
            "histograms": [
                {
                    "name": name,
                    "labels": dict(labels),
                    "buckets": list(hist.buckets),
                    "counts": list(hist.counts),
                    "sum": hist.sum,
                    "count": hist.count,
                }
                for (name, labels), hist in histograms
            ],
        }

    def merge(self, snapshot: dict) -> "MetricsRegistry":
        """Fold one :meth:`snapshot` document into this registry.

        Counters and histogram buckets add element-wise (associative and
        commutative — worker deltas merge in any order); gauges are
        last-write-wins, so merge order matters for them and callers who
        need a deterministic gauge should merge in a fixed order.
        Histogram series must agree on bucket bounds.
        """
        for entry in snapshot.get("counters", ()):
            self.counter(entry["name"], entry["value"], **entry["labels"])
        for entry in snapshot.get("gauges", ()):
            self.gauge(entry["name"], entry["value"], **entry["labels"])
        for entry in snapshot.get("histograms", ()):
            key = _series_key(entry["name"], entry["labels"])
            buckets = tuple(entry["buckets"])
            with self._lock:
                hist = self._histograms.get(key)
                if hist is None:
                    hist = self._histograms[key] = _Histogram(buckets)
                elif hist.buckets != buckets:
                    raise ConfigurationError(
                        f"cannot merge histogram {entry['name']!r}: bucket "
                        f"bounds differ ({hist.buckets} vs {buckets})"
                    )
                for index, count in enumerate(entry["counts"]):
                    hist.counts[index] += count
                hist.sum += entry["sum"]
                hist.count += entry["count"]
        return self

    # -- rendering -----------------------------------------------------------

    def render_prometheus(self) -> str:
        """The whole registry in the Prometheus text exposition format.

        Counters render as ``name{labels} value``, gauges likewise, and
        histograms expand into the conventional ``_bucket`` (cumulative,
        with ``le`` labels), ``_sum`` and ``_count`` families.  Series
        order is deterministic (sorted), so two renders of equal
        registries are byte-identical.
        """
        lines: list[str] = []
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        seen_types: set[str] = set()

        def type_line(name: str, kind: str) -> None:
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} {kind}")

        for (name, labels), value in counters:
            prom = _prom_name(name)
            type_line(prom, "counter")
            lines.append(f"{prom}{_label_block(labels)} {_prom_value(value)}")
        for (name, labels), value in gauges:
            prom = _prom_name(name)
            type_line(prom, "gauge")
            lines.append(f"{prom}{_label_block(labels)} {_prom_value(value)}")
        for (name, labels), hist in histograms:
            prom = _prom_name(name)
            type_line(prom, "histogram")
            cumulative = 0
            for bound, count in zip(hist.buckets, hist.counts):
                cumulative += count
                le_labels = labels + (("le", _prom_value(bound)),)
                lines.append(f"{prom}_bucket{_label_block(le_labels)} {cumulative}")
            cumulative += hist.counts[-1]
            inf_labels = labels + (("le", "+Inf"),)
            lines.append(f"{prom}_bucket{_label_block(inf_labels)} {cumulative}")
            lines.append(f"{prom}_sum{_label_block(labels)} {_prom_value(hist.sum)}")
            lines.append(f"{prom}_count{_label_block(labels)} {hist.count}")
        return "\n".join(lines) + ("\n" if lines else "")
