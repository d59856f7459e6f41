"""Serving bench: micro-batched throughput vs per-request dispatch.

A multi-threaded closed-loop load generator (fixed client count, fixed
seeded request trace) drives one :class:`repro.serving.MatchService`
over a fitted AnyMatch surrogate at micro-batch sizes 1, 8 and 32.
``max_batch_size=1`` *is* per-request dispatch — every queued request
pays the full fixed cost of one ``Matcher.predict`` call — so the
batch-32 run's requests/s over the batch-1 run's is exactly the
amortisation the scheduler buys.

Every configuration must answer the identical trace with identical
labels (the workload is deterministic even though wall-clock is not);
the bench asserts that before reporting throughput and p50/p95 latency.
Results are written to ``BENCH_serving.json`` at the repository root.

Run directly (``python benchmarks/bench_serving.py``, ``--smoke`` for a
CI-sized load) or through pytest.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.config import StudyConfig, SurrogateScale
from repro.data import build_dataset
from repro.matchers.anymatch import AnyMatchMatcher
from repro.serving.service import MatchService

_REPO_ROOT = Path(__file__).resolve().parent.parent
_OUT_PATH = _REPO_ROOT / "BENCH_serving.json"

#: The micro-batch sizes under test; 1 is the per-request baseline.
_BATCH_SIZES = (1, 8, 32)


def _bench_config() -> StudyConfig:
    return StudyConfig(
        name="bench-serving",
        seeds=(0,),
        test_fraction=0.25,
        train_pair_budget=200,
        epochs=2,
        dataset_scale=0.05,
        surrogate=SurrogateScale(
            d_model=32, n_layers=1, n_heads=2, d_ff=64, max_len=48, vocab_size=2048
        ),
    )


def _fit_matcher(config: StudyConfig) -> AnyMatchMatcher:
    """One fitted surrogate shared by every load configuration."""
    transfer = [build_dataset(code, config.dataset_scale, seed=7)[0]
                for code in ("ABT", "DBAC", "BEER")]
    return AnyMatchMatcher("gpt2").fit(transfer, config, seed=0)


def _request_trace(n_requests: int) -> list:
    """A fixed, seeded request trace (pairs cycled from one benchmark)."""
    dataset, _world = build_dataset("ABT", 0.05, seed=7)
    pairs = dataset.pairs
    return [pairs[i % len(pairs)] for i in range(n_requests)]


def _percentile(ordered: list[float], q: float) -> float:
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def _run_load(
    matcher: AnyMatchMatcher,
    trace: list,
    batch_size: int,
    n_clients: int,
) -> dict:
    """One closed-loop run: ``n_clients`` threads drain the trace."""
    service = MatchService(
        matcher,
        max_batch_size=batch_size,
        max_wait_ms=2.0,
        max_queue=len(trace) + n_clients,
    )
    per_client = len(trace) // n_clients
    latencies: list[float] = []
    labels: dict[int, int] = {}
    lock = threading.Lock()
    failures: list[str] = []

    def client(client_id: int) -> None:
        lo = client_id * per_client
        for i in range(lo, lo + per_client):
            try:
                response = service.match_pairs([trace[i]], budget_s=60.0)[0]
            except Exception as error:  # pragma: no cover - bench diagnostics
                with lock:
                    failures.append(f"request {i}: {error}")
                return
            with lock:
                latencies.append(response.latency_s)
                labels[i] = response.label

    threads = [
        threading.Thread(target=client, args=(c,), daemon=True)
        for c in range(n_clients)
    ]
    with service:
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
    assert not failures, failures[:3]

    ordered = sorted(latencies)
    scheduler = service.metrics()["scheduler"]
    return {
        "batch_size": batch_size,
        "clients": n_clients,
        "requests": len(latencies),
        "wall_seconds": round(wall, 3),
        "requests_per_s": round(len(latencies) / wall, 1),
        "latency_p50_ms": round(1000 * _percentile(ordered, 0.50), 3),
        "latency_p95_ms": round(1000 * _percentile(ordered, 0.95), 3),
        "mean_batch_occupancy": scheduler["mean_occupancy"],
        "batches": scheduler["batches"],
        "labels": labels,
    }


def run_bench(smoke: bool = False, out_path: Path = _OUT_PATH) -> dict:
    config = _bench_config()
    matcher = _fit_matcher(config)
    # Closed-loop occupancy is capped by the client count, so the client
    # pool must exceed the largest batch size for batch-32 coalescing to
    # fill without stalling on the max_wait timer.
    n_clients = 8 if smoke else 64
    trace = _request_trace(128 if smoke else 1024)

    runs = [_run_load(matcher, trace, size, n_clients) for size in _BATCH_SIZES]

    reference_labels = runs[0].pop("labels")
    for run in runs[1:]:
        assert run.pop("labels") == reference_labels, (
            f"batch_size={run['batch_size']} changed response labels"
        )

    def rps(batch_size: int) -> float:
        return next(r["requests_per_s"] for r in runs if r["batch_size"] == batch_size)

    document = {
        "bench": "serving",
        "profile": config.name + ("-smoke" if smoke else ""),
        "matcher": matcher.display_name,
        "workload": {
            "requests": len(trace),
            "clients": n_clients,
            "trace": "ABT scale=0.05 seed=7 pairs, cycled",
            "mode": "closed-loop, one in-flight request per client",
        },
        "runs": runs,
        "labels_identical_across_batch_sizes": True,
        "batched_speedup_at_8": round(rps(8) / rps(1), 3),
        "batched_speedup_at_32": round(rps(32) / rps(1), 3),
        "note": (
            "max_batch_size=1 is per-request dispatch (one predict() call "
            "per request); the speedups are the fixed per-call overhead the "
            "micro-batcher amortises across coalesced requests."
        ),
    }
    out_path.write_text(json.dumps(document, indent=2) + "\n")
    for run in runs:
        print(
            f"[bench_serving] batch={run['batch_size']:>2}: "
            f"{run['requests_per_s']:>7.1f} req/s, "
            f"p50 {run['latency_p50_ms']:.2f}ms, p95 {run['latency_p95_ms']:.2f}ms, "
            f"occupancy {run['mean_batch_occupancy']:.1f}",
            flush=True,
        )
    print(
        f"[bench_serving] micro-batching speedup at 32: "
        f"{document['batched_speedup_at_32']}x -> {out_path}",
        flush=True,
    )
    return document


def test_serving_bench_smoke(tmp_path):
    """CI smoke: identical labels per batch size, sane latency accounting."""
    document = run_bench(smoke=True, out_path=tmp_path / "BENCH_serving_smoke.json")
    assert document["labels_identical_across_batch_sizes"]
    for run in document["runs"]:
        assert run["requests"] == document["workload"]["requests"]
        assert run["latency_p95_ms"] >= run["latency_p50_ms"] >= 0
    # Coalescing visibly happened at batch 32 under concurrent clients.
    batch32 = next(r for r in document["runs"] if r["batch_size"] == 32)
    assert batch32["mean_batch_occupancy"] > 1.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized load")
    parser.add_argument("--out", default=str(_OUT_PATH))
    args = parser.parse_args(argv)
    run_bench(smoke=args.smoke, out_path=Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
