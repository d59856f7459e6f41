#!/usr/bin/env python
"""Summarize a span trace into per-stage timing and retry attribution.

Reads the self-checksummed JSONL trace written by
:class:`repro.obs.trace.Tracer` (``full_run --trace PATH``, or
``run_study``'s ``trace_path=``) and reports, per span name:

* how many spans ran and how many ended in an error,
* total, p50, p95 and max wall-clock seconds,

plus a retry/fault attribution section: how many ``llm.request`` spans
needed more than one attempt (and the extra attempts they spent), and
how many ``grid.cell`` spans retried or degraded into failures — the
per-stage view of the totals in the ``runtime.reliability`` block.

Integrity follows the cell-journal conventions: every line's ``sha256``
(computed over the canonical JSON of the rest of the record) is
verified, corrupt lines are reported and skipped, and a torn final line
without a trailing newline — a crashed writer's signature — is tolerated
silently.  Exit status is 0 when at least one valid span was read, 1 for
an empty/unreadable trace, 2 for a usage error.

Usage::

    python scripts/trace_report.py results/full_study.trace.jsonl
    python scripts/trace_report.py trace.jsonl --json   # machine-readable
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path


def _sha256_hex(text: str) -> str:
    """Hex sha256 of UTF-8 text (stdlib-only; no repro import needed)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical_json(obj: object) -> str:
    """The checksum serialization (sorted keys, minimal separators)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_trace(path: Path) -> tuple[list[dict], list[str]]:
    """Read one trace file; return ``(span_records, problems)``.

    Every line must parse as JSON and carry a valid ``sha256`` over its
    canonical payload.  Damaged interior lines become ``problems``
    entries and are skipped; a torn *final* line with no trailing
    newline is dropped without complaint (the crash-tolerant contract
    shared with the cell journal).
    """
    raw = path.read_text()
    lines = raw.split("\n")
    torn_tail = bool(lines and lines[-1] and not raw.endswith("\n"))
    if lines and not lines[-1]:
        lines.pop()  # the empty fragment after a final newline
    spans: list[dict] = []
    problems: list[str] = []
    for number, line in enumerate(lines, start=1):
        is_last = number == len(lines)
        try:
            record = json.loads(line)
            digest = record.pop("sha256")
            if _sha256_hex(_canonical_json(record)) != digest:
                raise ValueError("checksum mismatch")
        except (ValueError, KeyError, TypeError):
            if is_last and torn_tail:
                continue  # torn tail: the writer died mid-line
            problems.append(f"line {number}: corrupt record (skipped)")
            continue
        if record.get("kind") == "span":
            spans.append(record)
    return spans, problems


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of a pre-sorted non-empty list."""
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def summarize(spans: list[dict]) -> dict:
    """Aggregate spans into the per-stage + attribution report document."""
    by_name: dict[str, list[dict]] = {}
    for record in spans:
        by_name.setdefault(record["name"], []).append(record)

    stages = {}
    for name in sorted(by_name):
        group = by_name[name]
        durations = sorted(float(r["dur_s"]) for r in group)
        stages[name] = {
            "count": len(group),
            "errors": sum(1 for r in group if r["status"] == "error"),
            "total_s": round(sum(durations), 6),
            "p50_s": round(_percentile(durations, 0.50), 6),
            "p95_s": round(_percentile(durations, 0.95), 6),
            "max_s": round(durations[-1], 6),
        }

    requests = by_name.get("llm.request", [])
    retried = [r for r in requests if int(r["attrs"].get("attempts", 1)) > 1]
    cells = by_name.get("grid.cell", [])
    cell_retried = [c for c in cells if int(c["attrs"].get("attempts", 1)) > 1]
    cell_failed = [c for c in cells if c["attrs"].get("outcome") == "failed"]
    attribution = {
        "llm_requests": len(requests),
        "llm_requests_retried": len(retried),
        "llm_extra_attempts": sum(
            int(r["attrs"].get("attempts", 1)) - 1 for r in requests
        ),
        "llm_retry_seconds": round(sum(float(r["dur_s"]) for r in retried), 6),
        "llm_request_errors": sum(1 for r in requests if r["status"] == "error"),
        "grid_cells": len(cells),
        "grid_cells_retried": len(cell_retried),
        "grid_cells_failed": len(cell_failed),
    }
    return {"spans": len(spans), "stages": stages, "attribution": attribution}


def render(report: dict, problems: list[str]) -> str:
    """The human-readable rendering of one report document."""
    lines = [f"trace: {report['spans']} spans"]
    for problem in problems:
        lines.append(f"  WARNING {problem}")
    header = (
        f"  {'stage':<18} {'count':>6} {'errors':>6} "
        f"{'total_s':>10} {'p50_s':>9} {'p95_s':>9} {'max_s':>9}"
    )
    lines.append(header)
    for name, stage in report["stages"].items():
        lines.append(
            f"  {name:<18} {stage['count']:>6} {stage['errors']:>6} "
            f"{stage['total_s']:>10.4f} {stage['p50_s']:>9.4f} "
            f"{stage['p95_s']:>9.4f} {stage['max_s']:>9.4f}"
        )
    a = report["attribution"]
    lines.append(
        f"  retries: {a['llm_requests_retried']}/{a['llm_requests']} LLM "
        f"requests retried ({a['llm_extra_attempts']} extra attempts, "
        f"{a['llm_retry_seconds']:.4f}s inside retried requests, "
        f"{a['llm_request_errors']} terminal errors)"
    )
    lines.append(
        f"  cells:   {a['grid_cells_retried']}/{a['grid_cells']} retried, "
        f"{a['grid_cells_failed']} degraded to CellFailure"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Parse one trace file and print the report; 0 iff spans were read."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="trace JSONL file written by --trace")
    parser.add_argument(
        "--json", action="store_true",
        help="emit the report as a JSON document instead of a table",
    )
    args = parser.parse_args(argv)

    path = Path(args.trace)
    if not path.is_file():
        print(f"error: {path} is not a file", file=sys.stderr)
        return 2
    spans, problems = load_trace(path)
    if not spans:
        print(f"error: no valid spans in {path}", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    report = summarize(spans)
    if args.json:
        report["problems"] = problems
        print(json.dumps(report, indent=2))
    else:
        print(render(report, problems))
    return 0


if __name__ == "__main__":
    sys.exit(main())
