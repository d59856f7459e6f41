"""Seeded workload inputs and the routed cascade.

Imported by the bench itself (``run.py``, stdlib only) and by the measured
children (``child.py``, which also imports the program).  Everything that
must agree between the two sides lives here: which targets a seed picks,
the request order a seed produces, and how the routed server's cascade is
built, since the bench recomputes that router's decisions offline as the
reference its responses are checked against.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from pathlib import Path

#: The trained-matcher roster of ``study_trained``: one matcher per model
#: class, encoder (Ditto), mixture-of-experts (Unicorn), causal LM
#: (AnyMatch[GPT-2]) and seq2seq (AnyMatch[T5]).  AnyMatch[LLaMA3.2] is a
#: wider causal LM; on its own it would double the study.
TRAINED_MATCHERS = ("Ditto", "Unicorn", "AnyMatch[GPT-2]", "AnyMatch[T5]")

#: Every roster entry that does not fine-tune a model.
PROMPTED_MATCHERS = (
    "StringSim", "ZeroER", "Jellyfish",
    "MatchGPT[Mixtral-8x7B]", "MatchGPT[SOLAR]", "MatchGPT[Beluga2]",
    "MatchGPT[GPT-4o-Mini]", "MatchGPT[GPT-3.5-Turbo]", "MatchGPT[GPT-4]",
)

#: The ``study_trained`` targets of seed 0.  Two targets, so that all four
#: model classes train within one run: each target is trained on the
#: other one.
DEFAULT_TARGETS = ("ABT", "DBAC")

#: Other seeds draw their two targets from these: the benchmarks with over
#: 1,000 pairs at smoke scale.  With any one of them as the transfer set
#: the 400-pair training budget is always filled and every test set holds
#: 230-300 pairs (DBGO's 690), so a run's cost barely depends on the seed.
TARGET_POOL = ("ABT", "WDC", "DBAC", "DBGO", "AMGO", "WAAM")
TARGETS_PER_RUN = 2

#: The serving trace: every pair of these benchmarks (5,144 pairs).
SERVING_CODES = ("ABT", "DBAC", "WDC", "BEER", "WAAM")
SERVING_SCALE = 0.12
TRACE_DATASET_SEED = 7
#: The routed cascade's band is calibrated on the same benchmarks
#: generated under another seed, never on the pairs it serves.
CALIBRATION_DATASET_SEED = 11
MIN_PURITY = 0.95


def trained_targets(seed: int) -> tuple[str, ...]:
    """The ``study_trained`` targets of ``seed``, in pool order."""
    if seed == 0:
        return DEFAULT_TARGETS
    drawn = random.Random(seed).sample(TARGET_POOL, TARGETS_PER_RUN)
    return tuple(code for code in TARGET_POOL if code in drawn)


def request_order(seed: int, n_pairs: int) -> Iterator[int]:
    """Endless pair indices: one seeded permutation of the trace after another."""
    rng = random.Random(seed)
    while True:
        order = list(range(n_pairs))
        rng.shuffle(order)
        yield from order


def serving_datasets(seed: int):
    """The serving benchmarks generated under ``seed``: (pairs, world)."""
    from repro.data import build_dataset
    from repro.data.world import EntityWorld

    pairs = []
    world = EntityWorld()
    for code in SERVING_CODES:
        dataset, dataset_world = build_dataset(code, SERVING_SCALE, seed=seed)
        pairs.extend(dataset.pairs)
        world = world.merge(dataset_world)
    return pairs, world


def build_router(artifact: Path):
    """The two-rung cascade ``serve_routed`` serves.

    The cheap rung is the exported artifact with a band calibrated at
    :data:`MIN_PURITY`; the expensive rung is simulated GPT-4, grounded in
    the entities of the trace it will be asked about.
    """
    from repro.config import get_profile
    from repro.llm.pricing import api_price_per_1k
    from repro.llm.profiles import get_profile as get_llm_profile
    from repro.llm.simulated import SimulatedLLM
    from repro.matchers.matchgpt import MatchGPTMatcher
    from repro.routing import build_cascade_router
    from repro.serving.artifacts import load_artifact

    _, world = serving_datasets(TRACE_DATASET_SEED)
    calibration, _ = serving_datasets(CALIBRATION_DATASET_SEED)
    expensive = MatchGPTMatcher(
        SimulatedLLM(get_llm_profile("gpt-4"), world, seed=0)
    ).fit([], get_profile("smoke"))
    return build_cascade_router(
        load_artifact(artifact),
        expensive,
        calibration,
        min_purity=MIN_PURITY,
        cheap_name="anymatch-gpt2",
        expensive_name="gpt-4",
        expensive_price_per_1k_tokens=api_price_per_1k("gpt-4").dollars_per_1k_input_tokens,
    )
