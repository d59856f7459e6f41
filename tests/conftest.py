"""Shared fixtures: tiny datasets and configs sized for fast tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

# A single shared CPU core makes wall-clock deadlines meaningless; cap
# example counts instead so the property tests stay fast but deterministic.
settings.register_profile("repro", deadline=None, derandomize=True)
settings.load_profile("repro")

from repro.config import StudyConfig, SurrogateScale
from repro.data import EMDataset, build_dataset
from repro.data.record import Record
from repro.data.pairs import RecordPair
from repro.models.training import EncodedPairs
from repro.nn import functional as F
from repro.nn import no_grad


@pytest.fixture(scope="session")
def tiny_config() -> StudyConfig:
    """A deliberately minimal config so fit/predict cycles stay fast."""
    return StudyConfig(
        name="test",
        seeds=(0, 1),
        test_fraction=1.0,
        train_pair_budget=120,
        epochs=2,
        batch_size=16,
        dataset_scale=0.05,
        surrogate=SurrogateScale(
            d_model=16, n_layers=1, n_heads=2, d_ff=32, max_len=32, vocab_size=1024
        ),
    )


@pytest.fixture(scope="session")
def abt_dataset() -> EMDataset:
    dataset, _world = build_dataset("ABT", scale=0.05, seed=7)
    return dataset


@pytest.fixture(scope="session")
def abt_world():
    _dataset, world = build_dataset("ABT", scale=0.05, seed=7)
    return world


@pytest.fixture(scope="session")
def small_datasets() -> dict[str, EMDataset]:
    """Three tiny benchmarks covering distinct domains."""
    return {
        code: build_dataset(code, scale=0.05, seed=7)[0]
        for code in ("ABT", "DBAC", "BEER")
    }


def make_pair(
    left_values: tuple[str, ...],
    right_values: tuple[str, ...],
    label: int,
    pair_id: str = "t1",
    same_entity: bool | None = None,
) -> RecordPair:
    """Hand-build a record pair for unit tests."""
    if same_entity is None:
        same_entity = label == 1
    left = Record(f"{pair_id}-l", left_values, "e1", source="left")
    right = Record(
        f"{pair_id}-r", right_values, "e1" if same_entity else "e2", source="right"
    )
    return RecordPair(pair_id, left, right, label=label)


def reference_proba(model, data: EncodedPairs, batch_size: int = 128) -> np.ndarray:
    """P(match) from the float64 autograd forward, the parity reference.

    Fixed, unbucketed batches padded to the global width, through
    ``model(ids, pad_mask, shared)`` — the training forward — instead of
    the float32 ``infer_logits`` kernels ``predict_proba`` runs.  Called
    as ``(model, data)`` it stands in for a matcher's ``predict_proba``.
    """
    model.eval()
    n = len(data)
    out = np.zeros(n)
    with no_grad():
        for start in range(0, n, batch_size):
            idx = np.arange(start, min(start + batch_size, n))
            batch = data.take(idx)
            logits = model(batch.ids, batch.pad_mask, batch.shared)
            out[idx] = F.softmax(logits, axis=-1).numpy()[:, 1]
    return out


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
