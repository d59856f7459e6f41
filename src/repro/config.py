"""Study-wide configuration and scale profiles.

The paper's experiments consume 425 GPU hours; this reproduction runs on a
CPU, so every experiment driver accepts a :class:`StudyConfig` that scales
the expensive knobs (surrogate model width, training-pair budget, epochs,
number of seeds, test-set subsampling) while keeping the code path
identical.  Three named profiles are provided:

``smoke``
    A few seconds per experiment; used by the unit tests.
``bench``
    Tens of minutes for the complete study on one core; used by
    ``python -m repro.study.full_run``.
``default``
    A few minutes per trained matcher and target; the general-purpose
    profile for interactive work.
``full``
    The closest feasible approximation of the paper's scale; documented for
    long offline runs.

Beside the science knobs, a :class:`StudyConfig` carries the study's
three runtime settings — ``fail_fast``, ``retry_policy`` and
``fault_plan``.  ``full_run``'s ``--fail-fast``, ``--retries`` and
``--faults`` (``run_study``'s arguments) set them with
:func:`dataclasses.replace`, and every grid cell carries its config to
whichever process runs it.  They decide whether a cell's requests are
retried, faulted or fatal, never the values a finished cell reports.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from .errors import ConfigurationError

if TYPE_CHECKING:
    from .reliability.faults import FaultPlan
    from .reliability.policy import RetryPolicy

#: Random seeds used for the paper's five repetitions (Section 2.2).
PAPER_SEEDS: tuple[int, ...] = (0, 1, 2, 3, 4)

#: Maximum number of test pairs per dataset (MatchGPT down-sampling rule).
TEST_SET_CAP = 1_250


@dataclass(frozen=True)
class SurrogateScale:
    """Width/depth of the scaled-down training surrogates in ``repro.nn``.

    The *nominal* parameter counts used for the cost analysis come from
    :mod:`repro.models.cards` instead; these values only control how much
    compute the reproduction spends on actually fine-tuning models.
    """

    d_model: int = 48
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 96
    max_len: int = 64
    vocab_size: int = 4_096

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ConfigurationError(
                f"d_model={self.d_model} must be divisible by n_heads={self.n_heads}"
            )
        if min(self.d_model, self.n_layers, self.d_ff, self.max_len, self.vocab_size) <= 0:
            raise ConfigurationError("surrogate dimensions must be positive")


@dataclass(frozen=True)
class StudyConfig:
    """All knobs that trade experiment fidelity against wall-clock time."""

    name: str = "default"
    seeds: tuple[int, ...] = PAPER_SEEDS
    #: Cap on test pairs per dataset (paper: 1,250).
    test_cap: int = TEST_SET_CAP
    #: Additional subsampling of the capped test set (1.0 = no subsampling).
    test_fraction: float = 1.0
    #: Max fine-tuning pairs drawn from the ten transfer datasets.
    train_pair_budget: int = 3_000
    #: Fine-tuning epochs for the neural matchers.
    epochs: int = 3
    batch_size: int = 32
    learning_rate: float = 3e-3
    surrogate: SurrogateScale = field(default_factory=SurrogateScale)
    #: Scale factor applied to every dataset's generated pair counts
    #: (1.0 reproduces the Table-1 sizes exactly).
    dataset_scale: float = 1.0
    #: Abort the study on the first failed grid cell instead of recording
    #: a :class:`repro.runtime.grid.CellFailure` (``--fail-fast``).
    fail_fast: bool = False
    #: The per-request retry policy every LLM client of a grid cell runs
    #: under (``--retries``); ``None`` leaves requests un-retried.
    retry_policy: RetryPolicy | None = None
    #: The seeded faults injected beneath the retry layer (``--faults``);
    #: ``None`` injects none.
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        """Validate every knob combination (see individual messages)."""
        if not self.seeds:
            raise ConfigurationError("at least one seed is required")
        if not 0.0 < self.test_fraction <= 1.0:
            raise ConfigurationError("test_fraction must be in (0, 1]")
        if not 0.0 < self.dataset_scale <= 1.0:
            raise ConfigurationError("dataset_scale must be in (0, 1]")
        if self.test_cap <= 0 or self.train_pair_budget <= 0:
            raise ConfigurationError("test_cap and train_pair_budget must be positive")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ConfigurationError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")

    def with_seeds(self, seeds: tuple[int, ...]) -> "StudyConfig":
        """Return a copy of this config with a different seed set."""
        return replace(self, seeds=seeds)


#: Named scale profiles (see module docstring).
PROFILES: dict[str, StudyConfig] = {
    "smoke": StudyConfig(
        name="smoke",
        seeds=(0, 1),
        test_fraction=0.2,
        train_pair_budget=400,
        epochs=3,
        dataset_scale=0.12,
        surrogate=SurrogateScale(d_model=32, n_layers=1, n_heads=2, d_ff=64, max_len=48),
    ),
    # Sized so the benchmark harness finishes a full Table-3 regeneration
    # on one CPU core in tens of minutes rather than hours.
    "bench": StudyConfig(
        name="bench",
        seeds=(0, 1),
        test_fraction=0.25,
        train_pair_budget=500,
        epochs=3,
        dataset_scale=0.12,
    ),
    "default": StudyConfig(
        name="default",
        seeds=(0, 1, 2),
        test_fraction=0.35,
        train_pair_budget=1_200,
        epochs=6,
        dataset_scale=0.2,
    ),
    "full": StudyConfig(
        name="full",
        seeds=PAPER_SEEDS,
        test_fraction=1.0,
        train_pair_budget=20_000,
        epochs=12,
        dataset_scale=1.0,
        surrogate=SurrogateScale(d_model=96, n_layers=4, n_heads=8, d_ff=192, max_len=128),
    ),
}


@dataclass(frozen=True)
class InferenceConfig:
    """Knobs for the no-grad inference fast path (:mod:`repro.nn.fastpath`).

    All three default **on** for prediction and serving; training is never
    affected (the fast path only engages inside ``predict_proba`` and the
    serving stack, both of which run models in eval mode).

    ``fast_path``
        Route eval forwards through the fused ndarray kernels instead of
        the autograd ``Tensor`` machinery.  At float64 this is
        byte-identical to the reference path.
    ``float32``
        Run the fast path in single precision (weights cast once and
        cached).  Logits then match float64 within the tolerance
        documented at :data:`repro.nn.fastpath.FLOAT32_RTOL`; flip off
        for byte-exact study reproduction.
    ``bucketing``
        Sort batches by token length so short pairs are not padded to the
        longest pair in the workload (outputs are restored to input
        order; predictions are unchanged).
    """

    fast_path: bool = True
    float32: bool = True
    bucketing: bool = True


def _env_flag(name: str, default: bool) -> bool:
    """Parse a 0/1/true/false environment override."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"{name} must be boolean-like, got {raw!r}")


_INFERENCE_OVERRIDE: list[InferenceConfig | None] = [None]


def get_inference_config() -> InferenceConfig:
    """The active inference configuration.

    Resolution order: an :func:`inference_overrides` context, then the
    ``REPRO_FAST_PATH`` / ``REPRO_INFER_FP32`` / ``REPRO_LENGTH_BUCKETS``
    environment variables, then the defaults (all on).
    """
    if _INFERENCE_OVERRIDE[0] is not None:
        return _INFERENCE_OVERRIDE[0]
    default = InferenceConfig()
    return InferenceConfig(
        fast_path=_env_flag("REPRO_FAST_PATH", default.fast_path),
        float32=_env_flag("REPRO_INFER_FP32", default.float32),
        bucketing=_env_flag("REPRO_LENGTH_BUCKETS", default.bucketing),
    )


def set_inference_config(config: InferenceConfig | None) -> None:
    """Install (or with ``None`` clear) a process-wide inference override."""
    _INFERENCE_OVERRIDE[0] = config


@contextmanager
def inference_overrides(
    fast_path: bool | None = None,
    float32: bool | None = None,
    bucketing: bool | None = None,
):
    """Temporarily override inference knobs (tests and benchmarks).

    >>> with inference_overrides(float32=False):
    ...     get_inference_config().float32
    False
    """
    base = get_inference_config()
    previous = _INFERENCE_OVERRIDE[0]
    _INFERENCE_OVERRIDE[0] = InferenceConfig(
        fast_path=base.fast_path if fast_path is None else fast_path,
        float32=base.float32 if float32 is None else float32,
        bucketing=base.bucketing if bucketing is None else bucketing,
    )
    try:
        yield _INFERENCE_OVERRIDE[0]
    finally:
        _INFERENCE_OVERRIDE[0] = previous


def get_profile(name: str) -> StudyConfig:
    """Look up a named scale profile.

    >>> get_profile("smoke").name
    'smoke'
    """
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise ConfigurationError(f"unknown profile {name!r}; choose one of: {known}") from None
