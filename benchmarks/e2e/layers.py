"""Per-layer timing harness: wraps the program's public callables from outside.

The measured process (a ``full_run`` study or an HTTP server) calls
:func:`install` before the program runs; every wrapped call then adds its
inclusive and self time to a per-process table, and :meth:`LayerClock.dump`
writes that table as JSON when the process ends.  Nothing under ``src/``
knows about this module.

Self time is the call's duration minus the time spent in wrapped calls it
made.  The call stack is kept per thread, so self time stays correct when
an HTTP handler thread and the micro-batch dispatcher thread both run
wrapped code.

Callables are patched where their callers bind them.  The matcher modules
import ``train_classifier``, ``predict_proba`` and ``encode_pairs`` by name,
so patching ``repro.models.training`` alone would miss every call; each
binding module is patched instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections.abc import Callable
from pathlib import Path

__all__ = ["LAYERS", "LayerClock", "install"]


def _batch_size(args: tuple) -> int:
    """Length of the second positional argument.

    That is the pairs of ``predict(self, pairs)`` and ``route(self, pairs)``
    and the rows of ``predict_proba(model, data)``.
    """
    return len(args[1])


_MATCHER_MODULES = ("repro.matchers.ditto", "repro.matchers.unicorn", "repro.matchers.anymatch")

#: Layer name -> the callables it times, as ``(module, attribute path)``.
#: An optional third element counts items per call.
LAYERS: dict[str, list[tuple]] = {
    "data.generate": [
        ("repro.runtime.grid", "build_all_datasets"),
        # The routed server's own entry builds its trace and calibration
        # datasets through this binding.
        ("repro.data", "build_dataset"),
    ],
    "matchers.encode": [
        *[(m, f) for m in _MATCHER_MODULES for f in ("build_vocabulary", "encode_pairs")],
        ("repro.matchers.unicorn", "encode_texts"),
    ],
    "models.forward": [
        ("repro.models.encoder", "EncoderClassifier.forward"),
        ("repro.models.moe", "MoEClassifier.forward"),
        ("repro.models.decoder", "CausalLMClassifier.forward"),
        ("repro.models.seq2seq", "Seq2SeqClassifier.forward"),
    ],
    "models.train_other": [(m, "train_classifier") for m in _MATCHER_MODULES],
    "nn.backward": [("repro.nn.tensor", "Tensor.backward")],
    "nn.optimizer": [
        ("repro.nn.optim", "AdamW.step"),
        ("repro.models.training", "clip_grad_norm"),
    ],
    "models.infer": [(m, "predict_proba", _batch_size) for m in _MATCHER_MODULES],
    "matchers.prompt": [("repro.matchers.matchgpt", "MatchGPTMatcher.prompt_for")],
    "llm.complete": [("repro.llm.simulated", "SimulatedLLM.complete")],
    "llm.batch": [("repro.llm.batching", "BatchJob.process")],
    "runtime.cache": [("repro.runtime.cache", "CachedClient.complete")],
    "runtime.journal": [("repro.runtime.journal", "CellJournal.record")],
    "runtime.grid": [("repro.runtime.grid", "run_cell")],
    "matchers.predict_other": [("repro.matchers.base", "Matcher.predict", _batch_size)],
    "routing.route": [("repro.routing.policy", "MatchRouter.route", _batch_size)],
    "routing.drift": [("repro.routing.drift", "DriftMonitor.update")],
}


class LayerClock:
    """Call counts and inclusive/self seconds per wrapped callable."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: key -> [calls, inclusive_s, self_s, items, item_weighted_s]
        self.table: dict[str, list[float]] = {}

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self, key: str, fn: Callable, size: Callable[[tuple], int] | None = None
    ) -> Callable:
        """``fn`` with its time charged to ``key``."""
        with self._lock:
            self.table.setdefault(key, [0, 0.0, 0.0, 0, 0.0])

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                items = size(args) if size is not None else 0
                with self._lock:
                    row = self.table[key]
                    row[0] += 1
                    row[1] += elapsed
                    row[2] += elapsed - children[0]
                    row[3] += items
                    row[4] += elapsed * items

        return timed

    def snapshot(self) -> dict[str, dict[str, float]]:
        """The table as JSON-ready rows."""
        with self._lock:
            return {
                key: {
                    "calls": int(row[0]),
                    "inclusive_s": row[1],
                    "self_s": row[2],
                    "items": int(row[3]),
                    "item_weighted_s": row[4],
                }
                for key, row in self.table.items()
            }

    def dump(self, path: str | Path) -> None:
        """Write :meth:`snapshot` to ``path``."""
        Path(path).write_text(json.dumps(self.snapshot(), indent=1, sort_keys=True))


def install() -> LayerClock:
    """Patch every callable in :data:`LAYERS`; return the clock they feed."""
    clock = LayerClock()
    for layer, targets in LAYERS.items():
        for module_name, attribute, *size in targets:
            owner = importlib.import_module(module_name)
            *parents, name = attribute.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            # Class attributes are read from __dict__ so a method is
            # wrapped as the plain function the class defines.
            original = owner.__dict__[name] if parents else getattr(owner, name)
            key = f"{layer}|{module_name}.{attribute}"
            setattr(owner, name, clock.wrap(key, original, *size))
    return clock
