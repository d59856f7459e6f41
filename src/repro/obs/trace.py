"""Trace spans: who called what, how long it took, and what failed.

The metrics registry answers "how much, in total"; this module answers
"what happened, in order".  A *span* is one timed unit of work — a grid
cell, a retried LLM request, an LLM batch, a scheduler flush, an
inference call — opened with the :func:`span` context manager::

    with span("grid.cell", matcher="Ditto", target="ABT") as s:
        result = run(...)
        s.set(outcome="ok")

Spans nest: the current span is carried in a :mod:`contextvars` context
variable, so a ``llm.request`` span opened while a ``grid.cell`` span is
active records that cell as its parent, giving the trace a tree shape
without any explicit plumbing.  Propagation is per-thread (contextvars
follow the thread that opened the span); spans opened inside
*process*-pool workers live and die in the worker's memory and do not
reach the parent tracer — the serial and thread backends are the fully
traced ones (documented in ``docs/OBSERVABILITY.md``).

Two properties shape the implementation:

* **No-op mode is free and side-effect-free.**  When no tracer is
  installed (the default), :func:`span` returns a module-level singleton
  whose ``__enter__``/``__exit__``/``set`` do nothing — no allocation,
  no clock read, no contextvar write — which is what guarantees a study
  run without observability is byte-identical to one built before this
  layer existed.
* **The export reuses the crash-safe persistence idiom.**  Records
  buffer in memory during the run (so hot paths never touch the disk or
  json) and :meth:`Tracer.flush` writes the whole file through
  :func:`repro.runtime.persist.atomic_write_text` as JSONL, each line
  carrying a ``sha256`` over the canonical JSON of its payload — the
  same self-checksummed shape as the cell journal, so
  ``scripts/trace_report.py`` can verify every line and tolerate a torn
  tail.  ``persist`` is imported lazily inside ``flush`` so this module
  stays stdlib-only at import time and can be imported from any layer
  without cycles.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from typing import Callable

__all__ = [
    "TRACE_FORMAT_VERSION",
    "ActiveSpan",
    "Tracer",
    "span",
    "install_tracer",
    "uninstall_tracer",
    "active_tracer",
]

#: Version stamp written into every trace record (``"v"`` key).
TRACE_FORMAT_VERSION = 1

#: The innermost open span of the current (thread's) context.
_CURRENT: contextvars.ContextVar["ActiveSpan | None"] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)

#: Process-wide installed tracer slot (``None`` = tracing off).
_TRACER: list["Tracer | None"] = [None]


class _NoopSpan:
    """The do-nothing span handed out when tracing is off.

    A single module-level instance; every method is a constant-time
    no-op so instrumented call sites cost one ``is None`` check when
    observability is disabled.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, **attrs: object) -> "_NoopSpan":
        """Ignore the attributes (tracing is off)."""
        return self


_NOOP = _NoopSpan()


class ActiveSpan:
    """One live span: opened by ``with``, recorded on exit.

    Created via :func:`span` (or :meth:`Tracer.span`) — not directly.
    ``set(**attrs)`` adds attributes any time before exit; exit stamps
    duration and status (``"error"`` plus the exception class name when
    the body raised, ``"ok"`` otherwise) and hands the finished record
    to the tracer.
    """

    __slots__ = (
        "tracer", "name", "attrs", "span_id", "parent_id",
        "_token", "_started",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, object]) -> None:
        """A span named ``name`` with initial ``attrs``, owned by ``tracer``."""
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        #: Integer ids during the run; formatted as ``s000123`` at flush.
        self.span_id = 0
        self.parent_id: int | None = None
        self._token: contextvars.Token | None = None
        self._started = 0.0

    def set(self, **attrs: object) -> "ActiveSpan":
        """Attach (or overwrite) attributes on the span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "ActiveSpan":
        parent = _CURRENT.get()
        self.parent_id = parent.span_id if parent is not None else None
        self.span_id = next(self.tracer._ids)
        self._token = _CURRENT.set(self)
        self._started = self.tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = self.tracer._clock() - self._started
        if self._token is not None:
            _CURRENT.reset(self._token)
        self.tracer._record(self, duration, exc_type)
        return None


class Tracer:
    """Buffers span records in memory and flushes them as checksummed JSONL.

    The tracer is deliberately dumb during the run — extending one flat
    list with seven scalars per finished span (``list.extend`` is atomic
    under the GIL, so the hot path takes no lock) — and does *all*
    shaping work at :meth:`flush` time: building the record dicts,
    formatting span ids, rounding timestamps, canonical JSON, sha256 per
    line, atomic write.  The buffer is flat on purpose: retaining one
    wrapper tuple per span keeps thousands of extra gc-tracked objects
    alive for the whole run, and the resulting extra collector passes
    measurably dominated the per-span cost on the ``bench_obs`` grid.
    Flat scalars (str/int/float/None plus the attrs dict) keep the
    recording cost inside the overhead budget.
    """

    #: Fields per span in the flat ``_records`` buffer:
    #: name, span_id, parent_id, started, duration, error_name, attrs.
    _STRIDE = 7

    def __init__(
        self,
        path,
        clock: Callable[[], float] | object | None = None,
        registry=None,
    ) -> None:
        """A tracer exporting to ``path``.

        ``clock`` is a callable returning monotonic seconds or an object
        with ``monotonic()`` (default ``time.perf_counter``).  When a
        :class:`~repro.obs.registry.MetricsRegistry` is passed as
        ``registry``, every finished span also feeds a
        ``span_seconds{name=...}`` histogram and a
        ``spans_total{name=...,status=...}`` counter, tying the trace
        and metrics views of one run together.
        """
        self.path = path
        if clock is None:
            self._clock: Callable[[], float] = time.perf_counter
        elif callable(clock):
            self._clock = clock  # type: ignore[assignment]
        else:
            self._clock = clock.monotonic  # type: ignore[union-attr]
        self.registry = registry
        self._lock = threading.Lock()
        #: Flat buffer: ``_STRIDE`` scalars per span (see class docstring);
        #: shaped into full record dicts only at flush.
        self._records: list[object] = []
        #: GIL-atomic id source; ``next()`` needs no lock.
        self._ids = itertools.count(1)
        self._origin = self._clock()

    def span(self, name: str, **attrs: object) -> ActiveSpan:
        """Open a span on this tracer (usually via the free :func:`span`)."""
        return ActiveSpan(self, name, dict(attrs))

    def _record(self, finished: ActiveSpan, duration: float, exc_type) -> None:
        # Hot path: one (GIL-atomic) extend; the argument tuple dies
        # immediately, so the buffer retains only scalars + attrs.
        self._records.extend((
            finished.name,
            finished.span_id,
            finished.parent_id,
            finished._started,
            duration,
            exc_type.__name__ if exc_type is not None else None,
            finished.attrs,
        ))
        if self.registry is not None:
            self.registry.histogram("span_seconds", duration, name=finished.name)
            self.registry.counter(
                "spans_total", 1,
                name=finished.name,
                status="ok" if exc_type is None else "error",
            )

    @property
    def spans_recorded(self) -> int:
        """How many spans have finished (and will appear in the export)."""
        return len(self._records) // self._STRIDE

    def flush(self) -> int:
        """Write the full trace file atomically; return the record count.

        Safe to call repeatedly (e.g. at every study checkpoint): each
        call rewrites the whole file through the atomic writer, so a
        crash mid-flush leaves the previous complete trace, never a torn
        one.  Each line is ``{"v", "kind", ..., "sha256"}`` where the
        digest covers the canonical JSON of the record minus the digest
        itself — the cell-journal convention, verified line-by-line by
        ``scripts/trace_report.py``.
        """
        from ..runtime.persist import atomic_write_text, canonical_json, sha256_hex

        with self._lock:
            buffered = list(self._records)
        origin = self._origin
        stride = self._STRIDE
        n_spans = len(buffered) // stride
        records: list[dict] = [
            {
                "v": TRACE_FORMAT_VERSION,
                "kind": "header",
                "format": "repro-trace-jsonl",
                "spans": n_spans,
            }
        ]
        for base in range(0, n_spans * stride, stride):
            name, span_id, parent_id, started, duration, error, attrs = (
                buffered[base:base + stride]
            )
            records.append({
                "v": TRACE_FORMAT_VERSION,
                "kind": "span",
                "name": name,
                "span_id": f"s{span_id:06d}",
                "parent_id": f"s{parent_id:06d}" if parent_id is not None else None,
                "start_s": round(started - origin, 9),
                "dur_s": round(duration, 9),
                "status": "ok" if error is None else "error",
                "error": error,
                "attrs": attrs,
            })
        lines = []
        for record in records:
            record["sha256"] = sha256_hex(canonical_json(record))
            lines.append(canonical_json(record))
        atomic_write_text(self.path, "\n".join(lines) + "\n")
        return len(records) - 1


def install_tracer(tracer: Tracer) -> Tracer:
    """Make ``tracer`` the process-wide tracer :func:`span` records into."""
    _TRACER[0] = tracer
    return tracer


def uninstall_tracer() -> Tracer | None:
    """Remove (and return) the installed tracer; :func:`span` goes no-op."""
    tracer, _TRACER[0] = _TRACER[0], None
    return tracer


def active_tracer() -> Tracer | None:
    """The installed process-wide tracer, or ``None`` when tracing is off."""
    return _TRACER[0]


def span(name: str, **attrs: object):
    """Open a span named ``name`` on the installed tracer.

    The one function instrumented call sites use.  With no tracer
    installed it returns the shared no-op span — the disabled cost is a
    list index and an ``is None`` test, with no allocation and no clock
    read, which is what keeps untraced runs byte-identical and inside
    the ``bench_obs`` overhead budget.
    """
    tracer = _TRACER[0]
    if tracer is None:
        return _NOOP
    return ActiveSpan(tracer, name, attrs)
