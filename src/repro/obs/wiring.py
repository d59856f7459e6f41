"""Activation wiring for observability: the trace flag and session lifecycle.

Observability is **off by default** — no tracer installed, every
:func:`~repro.obs.trace.span` call returning the shared no-op — and that
default is load-bearing: with it, study outputs are byte-identical to a
build without this layer.  This module is the one place the layer turns
on, and it has one switch: ``full_run --trace PATH`` (``run_study``'s
``trace_path=``) names the trace JSONL file and enables span recording
for the run.

:class:`ObservabilitySession` bundles one run's tracer and the registry
its spans feed, with an explicit lifecycle: ``install()`` makes the
tracer the process-wide default, ``finish()`` flushes the trace and
returns the ``observability`` document embedded in ``full_study.json``,
and ``uninstall()`` (idempotent, safe in ``finally``) flushes the trace
and restores the no-op default.
"""

from __future__ import annotations

from .registry import MetricsRegistry
from .trace import Tracer, install_tracer, uninstall_tracer

__all__ = ["ObservabilitySession", "activate_observability"]


class ObservabilitySession:
    """One run's tracer + span registry with install/finish/uninstall lifecycle.

    Constructed by :func:`activate_observability`; a ``None`` session
    means observability is off and callers skip the whole block (the
    pattern ``obs = activate_observability(...)`` / ``if obs is not
    None: ...`` in :mod:`repro.study.full_run`).
    """

    def __init__(self, trace_path: str, clock=None) -> None:
        """A session tracing to ``trace_path``.

        ``clock`` is forwarded to both the registry and tracer (callable
        or ``monotonic()``-bearing object; default ``time.perf_counter``).
        """
        self.trace_path = trace_path
        self.registry = MetricsRegistry(clock=clock)
        self.tracer = Tracer(trace_path, clock=clock, registry=self.registry)
        self._installed = False

    def install(self) -> "ObservabilitySession":
        """Make this session's tracer the process-wide default."""
        install_tracer(self.tracer)
        self._installed = True
        return self

    def finish(self) -> dict:
        """Flush the trace and return the export block.

        The returned document is what :mod:`repro.study.full_run` embeds
        as the ``observability`` key of ``full_study.json``: the trace
        path, the span count and the snapshot of the registry the spans
        fed (``span_seconds`` and ``spans_total``).  The run's phase,
        cache and retry totals are in its ``runtime`` block.
        """
        spans = self.tracer.flush()
        return {
            "enabled": True,
            "trace_path": str(self.trace_path),
            "spans_recorded": spans,
            "metrics": self.registry.snapshot(),
        }

    def uninstall(self) -> None:
        """Flush and restore the no-op default (idempotent, finally-safe)."""
        if not self._installed:
            return
        self._installed = False
        self.tracer.flush()
        uninstall_tracer()


def activate_observability(
    trace_path: str | None = None, clock=None
) -> ObservabilitySession | None:
    """Build + install a session tracing to ``trace_path``, else ``None``.

    Without a path nothing is installed and every instrumented call site
    stays on the no-op fast path.
    """
    if trace_path is None:
        return None
    return ObservabilitySession(trace_path, clock=clock).install()
