"""Inference fast-path bench: fused no-grad kernels vs the autograd path.

For each surrogate family (encoder, MoE, decoder, seq2seq) a smoke-scale
model runs the same variable-length batched workload through
``predict_proba`` twice:

* **reference** — the autograd ``Tensor`` path used for training:
  float64, a graph node and backward closure per sub-layer, every batch
  padded to the global ``max_len``.  Its forward arithmetic is the same
  :mod:`repro.nn.fastpath` kernels, so a kernel speed-up moves both sides
  of the ratio;
* **fast** — the :mod:`repro.nn.fastpath` kernels with no graph, float32
  weights and length-bucketed batching (the defaults for predict/serving).

Parity is asserted before any throughput is reported: a float64
fast-path pass must reproduce the reference probabilities **bit for
bit**, and the float32 pass must stay within the tolerance documented in
``repro.nn.fastpath``.  An end-to-end section repeats the comparison
through a fitted Ditto matcher's ``match_scores`` so the speedup covers
the full matcher path, not just the model call.

The aggregate speedup is compared against the ``floor`` recorded in
``BENCH_inference.json`` at the repository root — CI fails if a change
regresses batched inference below that floor.

Run directly (``python benchmarks/bench_inference.py``, ``--smoke`` for
the CI-sized workload) or through pytest.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from repro.config import StudyConfig, SurrogateScale, inference_overrides
from repro.data import build_dataset
from repro.matchers.ditto import DittoMatcher
from repro.models import (
    CausalLMClassifier,
    EncoderClassifier,
    MoEClassifier,
    Seq2SeqClassifier,
)
from repro.models.training import EncodedPairs, predict_proba
from repro.nn import fastpath

_REPO_ROOT = Path(__file__).resolve().parent.parent
_OUT_PATH = _REPO_ROOT / "BENCH_inference.json"

#: Minimum aggregate fast-over-reference speedup CI enforces.
_SPEEDUP_FLOOR = 1.5

_FAMILIES = ("encoder", "moe", "decoder", "seq2seq")

#: Reference knobs = prediction through the autograd ``Tensor`` forward.
_REFERENCE = dict(fast_path=False, float32=False, bucket_by_length=False)
#: Fast knobs = the shipped defaults for predict/serving.
_FAST = dict(fast_path=True, float32=True, bucket_by_length=True)


def _build_model(family: str, scale: SurrogateScale, rng: np.random.Generator):
    common = dict(
        vocab_size=scale.vocab_size, dim=scale.d_model, n_layers=scale.n_layers,
        n_heads=scale.n_heads, d_ff=scale.d_ff, max_len=scale.max_len, rng=rng,
    )
    if family == "encoder":
        return EncoderClassifier(**common)
    if family == "moe":
        return MoEClassifier(n_experts=2, **common)
    if family == "decoder":
        return CausalLMClassifier(yes_id=5, no_id=6, **common)
    return Seq2SeqClassifier(yes_id=5, no_id=6, start_id=2, **common)


def _workload(scale: SurrogateScale, n_pairs: int, rng: np.random.Generator) -> EncodedPairs:
    """Variable-length ids/pad/flags, the shape real encoded pairs have."""
    ids = rng.integers(0, scale.vocab_size, size=(n_pairs, scale.max_len))
    lengths = rng.integers(max(2, scale.max_len // 8), scale.max_len + 1, size=n_pairs)
    pad_mask = np.arange(scale.max_len)[None, :] >= lengths[:, None]
    shared = rng.integers(0, 3, size=(n_pairs, scale.max_len))
    return EncodedPairs(ids, pad_mask, np.zeros(0, dtype=np.int64), shared)


def _best_time(fn, repeats: int) -> tuple[np.ndarray, float]:
    """Best-of-``repeats`` wall-clock (first call also warms the caches)."""
    best, result = float("inf"), None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _bench_family(
    family: str, scale: SurrogateScale, n_pairs: int, batch_size: int, repeats: int
) -> dict:
    rng = np.random.default_rng(11)
    model = _build_model(family, scale, rng)
    model.eval()
    data = _workload(scale, n_pairs, rng)
    tokens = float((~data.pad_mask).sum())

    def run(knobs):
        return lambda: predict_proba(model, data, batch_size=batch_size, **knobs)

    # Warm mask/cast caches before any timed pass.
    run(_FAST)()
    reference, reference_s = _best_time(run(_REFERENCE), repeats)
    fast, fast_s = _best_time(run(_FAST), repeats)
    exact, _ = _best_time(run(dict(fast_path=True, float32=False, bucket_by_length=False)), 1)

    assert np.array_equal(reference, exact), (
        f"{family}: float64 fast path is not byte-identical to the reference path"
    )
    fp32_delta = float(np.max(np.abs(fast - reference)))
    assert fp32_delta <= fastpath.FLOAT32_ATOL, (
        f"{family}: float32 drift {fp32_delta} exceeds documented tolerance"
    )
    return {
        "family": family,
        "n_pairs": n_pairs,
        "tokens": int(tokens),
        "reference_s": round(reference_s, 5),
        "fast_s": round(fast_s, 5),
        "speedup": round(reference_s / fast_s, 3),
        "reference_tokens_per_s": round(tokens / reference_s, 1),
        "fast_tokens_per_s": round(tokens / fast_s, 1),
        "float64_byte_identical": True,
        "float32_max_abs_prob_delta": fp32_delta,
    }


def _bench_end_to_end(smoke: bool, repeats: int) -> dict:
    """The same comparison through a fitted Ditto matcher's scoring path."""
    config = StudyConfig(
        name="bench-inference",
        seeds=(0,),
        test_fraction=0.25,
        train_pair_budget=150 if smoke else 400,
        epochs=2,
        dataset_scale=0.05,
        surrogate=SurrogateScale(
            d_model=32, n_layers=1, n_heads=2, d_ff=64, max_len=48, vocab_size=2048
        ),
    )
    transfer = [build_dataset(code, config.dataset_scale, seed=7)[0]
                for code in ("ABT", "DBAC")]
    matcher = DittoMatcher().fit(transfer, config, seed=0)
    dataset, _world = build_dataset("BEER", 0.1 if smoke else 0.25, seed=7)
    pairs = dataset.pairs

    def run(knobs):
        def call():
            with inference_overrides(**knobs):
                return matcher.match_scores(pairs, serialization_seed=0)
        return call

    run(dict(fast_path=True, float32=True, bucketing=True))()
    reference, reference_s = _best_time(run(dict(fast_path=False, float32=False,
                                                 bucketing=False)), repeats)
    fast, fast_s = _best_time(run(dict(fast_path=True, float32=True, bucketing=True)), repeats)
    exact, _ = _best_time(run(dict(fast_path=True, float32=False, bucketing=False)), 1)

    assert np.array_equal(reference, exact), (
        "end-to-end: float64 fast path is not byte-identical to the reference path"
    )
    fp32_delta = float(np.max(np.abs(fast - reference)))
    assert fp32_delta <= fastpath.FLOAT32_ATOL
    return {
        "matcher": matcher.display_name,
        "pairs": len(pairs),
        "reference_s": round(reference_s, 5),
        "fast_s": round(fast_s, 5),
        "speedup": round(reference_s / fast_s, 3),
        "float64_byte_identical": True,
        "float32_max_abs_score_delta": fp32_delta,
        "float32_label_agreement": float(
            np.mean((np.asarray(fast) > 0.5) == (np.asarray(reference) > 0.5))
        ),
    }


def run_bench(smoke: bool = False, out_path: Path = _OUT_PATH) -> dict:
    """Benchmark every family plus end-to-end Ditto; write the document."""
    scale = SurrogateScale(
        d_model=48, n_layers=2, n_heads=4, d_ff=96, max_len=64, vocab_size=4096
    )
    n_pairs = 96 if smoke else 384
    repeats = 2 if smoke else 3

    families = [
        _bench_family(family, scale, n_pairs, batch_size=32, repeats=repeats)
        for family in _FAMILIES
    ]
    end_to_end = _bench_end_to_end(smoke, repeats)

    total_reference = sum(f["reference_s"] for f in families)
    total_fast = sum(f["fast_s"] for f in families)
    document = {
        "bench": "inference",
        "profile": "smoke" if smoke else "full",
        "floor": _SPEEDUP_FLOOR,
        "workload": {
            "families": list(_FAMILIES),
            "n_pairs_per_family": n_pairs,
            "surrogate": dict(vars(scale)),
            "batch_size": 32,
            "lengths": "uniform in [max_len/8, max_len]",
        },
        "reference": "autograd Tensor path, float64, global max_len padding",
        "fast": "fastpath kernels, float32 weights, length-bucketed batches",
        "families": families,
        "end_to_end": end_to_end,
        "aggregate_speedup": round(total_reference / total_fast, 3),
        "parity": {
            "float64_byte_identical": True,
            "float32_tolerance": {
                "rtol": fastpath.FLOAT32_RTOL,
                "atol": fastpath.FLOAT32_ATOL,
            },
        },
    }
    assert document["aggregate_speedup"] >= _SPEEDUP_FLOOR, (
        f"aggregate speedup {document['aggregate_speedup']} below floor {_SPEEDUP_FLOOR}"
    )
    out_path.write_text(json.dumps(document, indent=2) + "\n")
    for f in families:
        print(
            f"[bench_inference] {f['family']:>8}: {f['speedup']:.2f}x "
            f"({f['reference_tokens_per_s']:,.0f} -> {f['fast_tokens_per_s']:,.0f} tokens/s)",
            flush=True,
        )
    print(
        f"[bench_inference] end-to-end {end_to_end['matcher']}: "
        f"{end_to_end['speedup']:.2f}x; aggregate {document['aggregate_speedup']}x "
        f"(floor {_SPEEDUP_FLOOR}x) -> {out_path}",
        flush=True,
    )
    return document


def test_inference_bench_smoke(tmp_path):
    """CI smoke: parity holds and the speedup clears the recorded floor."""
    document = run_bench(smoke=True, out_path=tmp_path / "BENCH_inference_smoke.json")
    floor = document["floor"]
    if _OUT_PATH.exists():
        floor = max(floor, json.loads(_OUT_PATH.read_text())["floor"])
    assert document["aggregate_speedup"] >= floor
    assert document["parity"]["float64_byte_identical"]
    for family in document["families"]:
        assert family["float64_byte_identical"]
        assert family["float32_max_abs_prob_delta"] <= fastpath.FLOAT32_ATOL
    assert document["end_to_end"]["float64_byte_identical"]


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``--smoke`` for the CI-sized workload)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized workload")
    parser.add_argument("--out", default=str(_OUT_PATH))
    args = parser.parse_args(argv)
    run_bench(smoke=args.smoke, out_path=Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
