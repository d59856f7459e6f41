"""Span-overhead bench: the observability layer on the bench_runtime grid.

Measures three things, writing ``BENCH_obs.json`` at the repository
root:

* **no-op overhead** — the bench_runtime MatchGPT grid with observability
  disabled, before vs after the span wiring existed.  Disabled spans are
  a module-level singleton behind one list lookup, so this run *is* the
  reference; the bench asserts its tables match the traced run's.
* **traced overhead** — the same grid with a tracer installed (spans
  buffered in memory, flushed once at the end).  The acceptance budget
  is ≤ 5% wall-clock over the untraced run; because single-core wall
  clocks are noisy at these durations, the two modes are *interleaved*
  (untraced then traced, ``repeats`` times) so slow drift in machine
  load hits both equally, and each mode takes its minimum pass.
* **microcosts** — nanoseconds per disabled span entry/exit and per
  recorded span, measured over a tight loop, so regressions show up even
  when the grid numbers drown in noise.

Run directly (``python benchmarks/bench_obs.py``, ``--smoke`` for the
CI-sized grid) or through pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.config import StudyConfig, SurrogateScale
from repro.obs.trace import Tracer, install_tracer, span, uninstall_tracer
from repro.reliability import RetryPolicy
from repro.runtime import grid
from repro.runtime.executor import make_executor
from repro.study import table3

_REPO_ROOT = Path(__file__).resolve().parent.parent
_OUT_PATH = _REPO_ROOT / "BENCH_obs.json"

_MODELS = ("gpt-4o-mini", "gpt-3.5-turbo", "gpt-4")
_MATCHERS = tuple(
    {"gpt-4o-mini": "MatchGPT[GPT-4o-Mini]",
     "gpt-3.5-turbo": "MatchGPT[GPT-3.5-Turbo]",
     "gpt-4": "MatchGPT[GPT-4]"}[m]
    for m in _MODELS
)
_CODES = ("ABT", "DBAC", "BEER")

#: Wall-clock overhead budget for a fully traced run (the ISSUE-7
#: acceptance bound); the CI assertion allows noise headroom on top.
OVERHEAD_BUDGET = 0.05


def _bench_config(smoke: bool) -> StudyConfig:
    """The bench_runtime grid configuration (kept identical for comparability).

    The retry layer is on in BOTH modes so the workload carries a span
    site on every single LLM request (the hottest instrumented path) —
    without it, only the handful of per-cell spans would be exercised
    and the measurement would say nothing.
    """
    return StudyConfig(
        name="bench-obs",
        seeds=(0, 1),
        test_fraction=0.2 if smoke else 1.0,
        train_pair_budget=120,
        epochs=1,
        dataset_scale=0.05 if smoke else 0.12,
        surrogate=SurrogateScale(
            d_model=16, n_layers=1, n_heads=2, d_ff=32, max_len=32, vocab_size=1024
        ),
        retry_policy=RetryPolicy(max_attempts=2),
    )


def _run_once(config: StudyConfig, traced: bool, trace_path: Path) -> dict:
    """One grid pass; returns wall/flush seconds, span count, and tables.

    The timed window covers the study run itself — the part where spans
    are recorded on hot paths and the overhead budget applies.  The
    single end-of-run ``flush()`` (serialize + checksum + atomic write)
    is timed separately and reported as ``flush_seconds``: it is a
    fixed per-run export cost proportional to span count, not a per-span
    tax on the workload.
    """
    tracer = install_tracer(Tracer(trace_path)) if traced else None
    executor = make_executor(workers=1, backend="serial")
    spans_recorded = 0
    flush_seconds = 0.0
    try:
        started = time.perf_counter()
        t3 = table3.run(config, _MATCHERS, codes=_CODES, executor=executor)
        wall = time.perf_counter() - started
    finally:
        executor.close()
        if tracer is not None:
            spans_recorded = tracer.spans_recorded
            flush_started = time.perf_counter()
            tracer.flush()
            flush_seconds = time.perf_counter() - flush_started
            uninstall_tracer()
    return {
        "wall": wall,
        "flush": flush_seconds,
        "spans": spans_recorded,
        "tables": t3.per_dataset_table(),
    }


def _run_modes(config: StudyConfig, trace_dir: Path, repeats: int) -> tuple[dict, dict]:
    """Interleaved untraced/traced passes; returns one summary per mode."""
    passes: dict[bool, list[dict]] = {False: [], True: []}
    for repeat in range(repeats):
        for traced in (False, True):
            result = _run_once(
                config, traced, trace_dir / f"bench_obs.{repeat}.trace.jsonl"
            )
            previous = passes[traced]
            assert not previous or result["tables"] == previous[0]["tables"], (
                f"traced={traced}: results drifted across repeats"
            )
            previous.append(result)

    def summarize(traced: bool) -> dict:
        runs = passes[traced]
        return {
            "traced": traced,
            "wall_seconds": round(min(r["wall"] for r in runs), 3),
            "wall_seconds_all": [round(r["wall"], 3) for r in runs],
            "flush_seconds": round(min(r["flush"] for r in runs), 3),
            "spans_recorded": runs[-1]["spans"],
            "tables": runs[0]["tables"],
        }

    return summarize(False), summarize(True)


def _microcosts() -> dict:
    """Nanoseconds per span in disabled and enabled mode (tight loops)."""
    n = 200_000

    def per_call_ns(loops: int) -> float:
        started = time.perf_counter()
        for _ in range(loops):
            with span("bench.micro", i=1):
                pass
        return 1e9 * (time.perf_counter() - started) / loops

    disabled_ns = min(per_call_ns(n) for _ in range(3))
    tracer = install_tracer(Tracer(Path(os.devnull)))
    try:
        enabled_ns = min(per_call_ns(n // 10) for _ in range(3))
    finally:
        uninstall_tracer()
    return {
        "noop_span_ns": round(disabled_ns, 1),
        "recorded_span_ns": round(enabled_ns, 1),
        "loop_iterations": n,
    }


def run_bench(smoke: bool = False, out_path: Path = _OUT_PATH) -> dict:
    """Run untraced-vs-traced passes + microbenchmarks; write the document."""
    config = _bench_config(smoke)
    grid.dataset_bundle(config.dataset_scale, 7)

    repeats = 2 if smoke else 4
    # Traces land in a temp dir: they are multi-megabyte transients, not
    # tracked results.
    with tempfile.TemporaryDirectory(prefix="bench_obs_") as scratch:
        untraced, traced = _run_modes(config, Path(scratch), repeats)
    assert traced["tables"] == untraced["tables"], (
        "tracing changed study results"
    )
    overhead = traced["wall_seconds"] / untraced["wall_seconds"] - 1.0

    document = {
        "bench": "obs",
        "profile": config.name + ("-smoke" if smoke else ""),
        "grid": {
            "matchers": list(_MATCHERS),
            "codes": list(_CODES),
            "seeds": list(config.seeds),
        },
        "cpu_count": os.cpu_count(),
        "runs": [
            {k: v for k, v in r.items() if k != "tables"}
            for r in (untraced, traced)
        ],
        "results_identical_traced_vs_untraced": True,
        "span_overhead_fraction": round(overhead, 4),
        "span_overhead_budget": OVERHEAD_BUDGET,
        "within_budget": overhead <= OVERHEAD_BUDGET,
        "microcosts": _microcosts(),
        "note": (
            "span_overhead_fraction compares min-of-repeats wall-clock of a "
            "fully traced bench_runtime-style grid (serial, no cache) "
            "against the same grid with observability disabled, with the "
            "two modes interleaved per repeat so machine-load drift hits "
            "both equally; the one "
            "end-of-run flush (serialize + checksum + atomic write) is "
            "reported separately as flush_seconds since it is a fixed "
            "export cost, not a per-span tax on the workload.  The "
            "microcosts section isolates the per-span price so grid-level "
            "noise cannot hide a hot-path regression."
        ),
    }
    out_path.write_text(json.dumps(document, indent=2) + "\n")
    print(
        f"[bench_obs] untraced {untraced['wall_seconds']:.2f}s, traced "
        f"{traced['wall_seconds']:.2f}s ({traced['spans_recorded']} spans): "
        f"overhead {100 * overhead:.1f}% (budget {100 * OVERHEAD_BUDGET:.0f}%), "
        f"noop span {document['microcosts']['noop_span_ns']:.0f}ns -> {out_path}",
        flush=True,
    )
    return document


def test_obs_overhead_smoke():
    """CI smoke: tracing changes no results and stays near the budget.

    Wall-clock on a shared single core is noisy at smoke scale, so the
    hard CI bound is looser than the headline budget; the committed
    ``BENCH_obs.json`` documents the real measurement.
    """
    document = run_bench(smoke=True)
    assert document["results_identical_traced_vs_untraced"]
    assert document["span_overhead_fraction"] <= 3 * OVERHEAD_BUDGET
    assert document["microcosts"]["noop_span_ns"] < 5_000


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run the bench and write the JSON document."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized grid")
    parser.add_argument("--out", default=str(_OUT_PATH))
    args = parser.parse_args(argv)
    run_bench(smoke=args.smoke, out_path=Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
