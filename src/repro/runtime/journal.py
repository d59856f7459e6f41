"""Write-ahead cell journal: durable, resumable study progress.

The full study grid (14 matchers x 11 targets x 5 seeds) is a multi-hour
run whose unit of expensive work is one ``(matcher, target)`` grid cell.
A :class:`CellJournal` is an append-only JSONL file that records every
*completed* cell — result or structured failure — the moment the parent
process collects it, flushed and ``fsync``-ed per record.  Kill the run
at any point and the journal holds exactly the finished cells; re-invoke
``python -m repro.study.full_run --resume`` and the grid replays those
cells from disk, executing only the remainder, with table values
byte-identical to an uninterrupted run.

Three properties make the replay sound:

* **Content-addressed keys.**  :func:`cell_key` hashes everything that
  can influence a cell's result — cell identity, seeds, the code roster
  and the science knobs of the :class:`~repro.config.StudyConfig` (but
  *not* its runtime settings or the worker count, which provably do not
  change results).  A journal written at 4 workers resumes correctly
  at 1.
* **Per-record checksums.**  Every record embeds a sha256 over its
  canonical payload; damaged records are quarantined to a
  ``.corrupt-<ts>`` sidecar (collected as structured
  :class:`~repro.errors.CorruptStateError`, never a crash).
* **Torn-tail tolerance.**  A process killed mid-append leaves a partial
  final line.  That is the *expected* crash signature, silently dropped
  on load — the cell it described simply re-runs.

Deterministic failures are journaled too: a replayed
:class:`~repro.runtime.grid.CellFailure` reproduces the degraded run's
``cell_failures`` block without re-spending the failed attempts.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..errors import CorruptStateError
from ..reliability.clock import Clock, SystemClock
from .persist import canonical_json, quarantine_line, sha256_hex

__all__ = ["JOURNAL_VERSION", "cell_key", "CellJournal"]

#: Journal record schema version; bumped on incompatible record changes.
JOURNAL_VERSION = 1

#: StudyConfig fields that can change a cell's result and therefore key
#: material.  The runtime settings (fail_fast, retry_policy, fault_plan)
#: and the profile label are deliberately absent: they are parity-tested
#: to never change a computed cell's values (they decide only whether a
#: cell fails, and a journaled failure replays as one), so a journal
#: survives being resumed under a different runtime configuration or
#: worker count.
_CONFIG_KEY_FIELDS = (
    "seeds",
    "test_cap",
    "test_fraction",
    "train_pair_budget",
    "epochs",
    "batch_size",
    "learning_rate",
    "dataset_scale",
)


def _config_key_material(config) -> dict:
    """The result-determining slice of a StudyConfig, JSON-ready."""
    material = {name: getattr(config, name) for name in _CONFIG_KEY_FIELDS}
    material["seeds"] = list(config.seeds)
    material["surrogate"] = dict(vars(config.surrogate))
    # float32 inference perturbs NN probabilities within the documented
    # tolerance, so journalled cells computed under one precision must
    # not be replayed under the other.  The fast path itself and length
    # bucketing are excluded on purpose: both are parity-tested to leave
    # predictions unchanged.
    from ..config import get_inference_config

    material["inference_float32"] = get_inference_config().float32
    return material


def cell_key(cell) -> str:
    """The content address (hex sha256) of one grid cell's inputs.

    A pure function of everything that can influence the cell's result;
    two cells with equal keys are guaranteed (by the determinism the
    parity tests pin) to produce identical results.
    """
    material = {
        "kind": cell.kind,
        "matcher": cell.matcher_name,
        "target": cell.target_code,
        "codes": list(cell.codes),
        "dataset_seed": cell.dataset_seed,
        "llm_seed": cell.llm_seed,
        "seen_in_training": cell.seen_in_training,
        "model": cell.model,
        "strategy": cell.strategy,
        "config": _config_key_material(cell.config),
    }
    return sha256_hex(canonical_json(material))


def _encode_outcome(outcome) -> tuple[str, dict]:
    """Serialize a CellResult/CellFailure to its journal payload."""
    from .grid import CellFailure, CellResult

    if isinstance(outcome, CellResult):
        return "result", {
            "matcher_name": outcome.matcher_name,
            "target_code": outcome.target_code,
            "seconds": outcome.seconds,
            "retries": outcome.retries,
            "cache_delta": dict(outcome.cache_delta),
            "reliability_delta": dict(outcome.reliability_delta),
            "result": {
                "dataset": outcome.result.dataset,
                "seen_in_training": outcome.result.seen_in_training,
                "scores": [
                    {
                        "seed": s.seed,
                        "f1": s.f1,
                        "precision": s.precision,
                        "recall": s.recall,
                    }
                    for s in outcome.result.scores
                ],
            },
        }
    if isinstance(outcome, CellFailure):
        return "failure", {
            "matcher_name": outcome.matcher_name,
            "target_code": outcome.target_code,
            "error_type": outcome.error_type,
            "message": outcome.message,
            "attempts": outcome.attempts,
            "seconds": outcome.seconds,
            "retryable": outcome.retryable,
            "cache_delta": dict(outcome.cache_delta),
            "reliability_delta": dict(outcome.reliability_delta),
        }
    raise TypeError(f"cannot journal outcome of type {type(outcome).__name__}")


def _decode_outcome(kind: str, payload: dict):
    """Rebuild a CellResult/CellFailure from its journal payload.

    Floats round-trip exactly through JSON (repr-based serialization),
    so a replayed result is byte-identical to the computed one in every
    table value it feeds.
    """
    from ..eval.loo import SeedScore, TargetResult
    from .grid import CellFailure, CellResult

    if kind == "result":
        block = payload["result"]
        target = TargetResult(
            dataset=block["dataset"],
            seen_in_training=bool(block["seen_in_training"]),
        )
        target.scores = [
            SeedScore(
                seed=int(s["seed"]),
                f1=float(s["f1"]),
                precision=float(s["precision"]),
                recall=float(s["recall"]),
            )
            for s in block["scores"]
        ]
        return CellResult(
            matcher_name=payload["matcher_name"],
            target_code=payload["target_code"],
            result=target,
            seconds=float(payload["seconds"]),
            cache_delta=dict(payload["cache_delta"]),
            reliability_delta=dict(payload["reliability_delta"]),
            retries=int(payload["retries"]),
        )
    if kind == "failure":
        return CellFailure(
            matcher_name=payload["matcher_name"],
            target_code=payload["target_code"],
            error_type=payload["error_type"],
            message=payload["message"],
            attempts=int(payload["attempts"]),
            seconds=float(payload["seconds"]),
            retryable=bool(payload["retryable"]),
            cache_delta=dict(payload["cache_delta"]),
            reliability_delta=dict(payload["reliability_delta"]),
        )
    raise ValueError(f"unknown journal record kind {kind!r}")


#: Bytes of the simulated half-written record the torn-write fault mode
#: leaves behind (no trailing newline — a write cut mid-flight).
_TORN_TAIL = b'{"v": 1, "key": "torn-write-simu'


class CellJournal:
    """Append-only, checksummed JSONL log of completed grid cells.

    Open an existing journal to resume (``fresh=False``, the default for
    ``--resume``): healthy records become replayable outcomes, a torn
    final line is dropped as the expected crash signature, and any other
    damaged record is quarantined into ``<path>.corrupt-<ts>`` with a
    structured error collected in :attr:`corruption_errors`.  Loading
    never raises on bad on-disk state.

    With ``fresh=True`` any existing file is removed first — the journal
    is the write-ahead log of *this* run.
    """

    def __init__(
        self,
        path: str | Path,
        fresh: bool = False,
        clock: Clock | None = None,
    ) -> None:
        """Open (and, unless ``fresh``, load) the journal at ``path``.

        ``clock`` names quarantine sidecars (injectable wall timestamps
        for tests; defaults to the system clock).
        """
        self.clock = clock or SystemClock()
        self.path = Path(path)
        #: Replayable entries: cell key -> (record kind, payload dict).
        self._entries: dict[str, tuple[str, dict]] = {}
        #: Healthy records loaded from disk (headers excluded).
        self.records_loaded = 0
        #: Damaged records moved to the ``.corrupt-<ts>`` sidecar.
        self.quarantined = 0
        #: Whether a torn final line (the crash signature) was dropped.
        self.torn_tail_dropped = False
        #: One structured error per quarantined record, in file order.
        self.corruption_errors: list[CorruptStateError] = []
        self._handle = None
        self._crash_hook_token: int | None = None
        if fresh and self.path.exists():
            self.path.unlink()
        elif self.path.exists():
            self._load()
        self._register_torn_write_hook()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, cell) -> bool:
        return cell_key(cell) in self._entries

    # -- load ----------------------------------------------------------------

    def _load(self) -> None:
        """Ingest every healthy record; quarantine damage, drop torn tails."""
        raw = self.path.read_bytes().decode("utf-8", errors="replace")
        complete_tail = raw.endswith("\n")
        lines = raw.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            is_final = index == len(lines) - 1
            problem = self._ingest(line)
            if problem is None:
                continue
            if is_final and not complete_tail:
                # A partial last line is what a kill mid-append leaves
                # behind — expected, not corruption.  The cell re-runs.
                self.torn_tail_dropped = True
                continue
            sidecar = quarantine_line(self.path, line, clock=self.clock)
            error = CorruptStateError(
                f"corrupt journal record at {self.path}:{index + 1}: {problem}",
                path=str(self.path),
                quarantined_to=str(sidecar),
            )
            self.quarantined += 1
            self.corruption_errors.append(error)

    def _ingest(self, line: str) -> str | None:
        """Parse + verify one record line; returns a problem description
        (``None`` when healthy)."""
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            return f"unparseable JSON ({error})"
        if not isinstance(record, dict):
            return "record is not a JSON object"
        if record.get("kind") == "header":
            return None
        if record.get("v") != JOURNAL_VERSION:
            return f"unsupported record version {record.get('v')!r}"
        try:
            key = record["key"]
            kind = record["kind"]
            payload = record["payload"]
            digest = record["sha256"]
        except KeyError as error:
            return f"missing field {error}"
        if kind not in ("result", "failure"):
            return f"unknown record kind {kind!r}"
        if sha256_hex(canonical_json(payload)) != digest:
            return "payload checksum mismatch"
        self._entries[key] = (kind, payload)
        self.records_loaded += 1
        return None

    # -- write ---------------------------------------------------------------

    def _append(self, record: dict) -> None:
        """Append one fsynced JSON line (the write-ahead guarantee)."""
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def write_header(self, info: dict) -> None:
        """Record run provenance (profile, codes, fault spec) for humans.

        Header records are informational: replay ignores them, and a
        resumed run appends its own.
        """
        self._append({"v": JOURNAL_VERSION, "kind": "header", "info": info})

    def record(self, cell, outcome, phase: str = "") -> None:
        """Durably journal one completed cell before the run moves on."""
        kind, payload = _encode_outcome(outcome)
        key = cell_key(cell)
        self._append(
            {
                "v": JOURNAL_VERSION,
                "key": key,
                "kind": kind,
                "phase": phase,
                "matcher": cell.matcher_name,
                "target": cell.target_code,
                "payload": payload,
                "sha256": sha256_hex(canonical_json(payload)),
            }
        )
        self._entries[key] = (kind, payload)

    def lookup(self, cell):
        """The journaled outcome for ``cell``, or ``None`` if not finished.

        Returns a fully reconstructed
        :class:`~repro.runtime.grid.CellResult` or
        :class:`~repro.runtime.grid.CellFailure`; table values derived
        from it are byte-identical to recomputing the cell.
        """
        entry = self._entries.get(cell_key(cell))
        if entry is None:
            return None
        return _decode_outcome(*entry)

    def close(self) -> None:
        """Flush and release the append handle (safe to call twice)."""
        self._unregister_torn_write_hook()
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CellJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- torn-write fault hook ----------------------------------------------

    def _register_torn_write_hook(self) -> None:
        """Let the crash-point fault mode simulate a mid-append kill here."""
        from ..reliability import faults

        self._crash_hook_token = faults.register_crash_hook(self._write_torn_tail)

    def _unregister_torn_write_hook(self) -> None:
        from ..reliability import faults

        if self._crash_hook_token is not None:
            faults.unregister_crash_hook(self._crash_hook_token)
            self._crash_hook_token = None

    def _write_torn_tail(self) -> None:
        """Append a half-written record — the torn-write fault payload.

        Written raw (no newline, no checksum) so the next load exercises
        exactly the partial-final-line path a real kill produces.
        """
        with open(self.path, "ab") as handle:
            handle.write(_TORN_TAIL)
            handle.flush()
            os.fsync(handle.fileno())
