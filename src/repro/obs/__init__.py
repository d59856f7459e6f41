"""repro.obs — the observability layer (trace spans + metrics registry).

Counts stay with the objects that produce them —
:class:`~repro.runtime.stats.RuntimeStats` in a study run (the
``runtime`` block of ``full_study.json``), and the service's
:class:`~repro.serving.service.ServingStats`, its batcher, router and
breakers behind ``GET /metrics``.  This package adds the dimension none
of them has — *which stage of which request spent the time*:

* :mod:`repro.obs.trace` — the :func:`span` context manager with
  contextvars parent/child propagation, buffered in memory and exported
  as self-checksummed JSONL through the crash-safe atomic writers.
  Instrumented sites span grid cells, LLM request retries, LLM
  batches, scheduler flushes, serving requests and fast-path inference.
* :mod:`repro.obs.registry` — :class:`MetricsRegistry`: thread-safe
  counters, gauges and fixed-bucket histograms with a deterministic
  snapshot/merge API (counter and histogram merges are associative).
  A tracer feeds it one ``span_seconds`` histogram and one
  ``spans_total`` counter per span name, and it renders the Prometheus
  text served on ``GET /metrics``.
* :mod:`repro.obs.wiring` — activation (``--trace`` / ``trace_path=``)
  and the :class:`ObservabilitySession` lifecycle that produces the
  ``observability`` block of ``full_study.json``.

Everything is off by default: with no session installed, :func:`span`
returns a shared no-op and study outputs are byte-identical to a build
without this package (pinned by ``tests/obs/test_noop_parity.py``).
Operator documentation lives in ``docs/OBSERVABILITY.md``.
"""

from .registry import DEFAULT_BUCKETS, MetricsRegistry
from .trace import (
    ActiveSpan,
    Tracer,
    active_tracer,
    install_tracer,
    span,
    uninstall_tracer,
)
from .wiring import ObservabilitySession, activate_observability

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "ActiveSpan",
    "Tracer",
    "active_tracer",
    "install_tracer",
    "span",
    "uninstall_tracer",
    "ObservabilitySession",
    "activate_observability",
]
