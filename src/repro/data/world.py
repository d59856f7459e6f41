"""The entity world: ground-truth identity lookups for simulation.

Large commercial LLMs have seen most public entities (products, papers,
restaurants) during pretraining; the paper even notes this as a possible
leakage channel (Section 5.1).  The reproduction models that world
knowledge explicitly: the synthetic generators register every record they
emit in an :class:`EntityWorld`, and the simulated LLM may consult it —
via record *fingerprints parsed out of the prompt text*, never via labels
passed in-band — to ground its calibrated error model.

Trainable matchers never receive the world object.
"""

from __future__ import annotations

from ..errors import DatasetError
from .record import Record

__all__ = ["EntityWorld"]


class EntityWorld:
    """Mapping from record fingerprints to hidden entity identities."""

    def __init__(self) -> None:
        self._entity_of: dict[str, str] = {}
        self._hardness_of: dict[tuple[str, str], float] = {}
        self._mean_hardness_cache: dict[tuple[str, bool], float] = {}

    def register(self, record: Record) -> None:
        """Map ``record``'s fingerprint to its entity; the first registration wins."""
        fp = record.fingerprint()
        existing = self._entity_of.get(fp)
        if existing is not None and existing != record.entity_id:
            # Two distinct entities with byte-identical representations are
            # indistinguishable to any matcher; keep the first registration.
            return
        self._entity_of[fp] = record.entity_id

    def register_pair_hardness(self, left: Record, right: Record, hardness: float) -> None:
        """Record how hard the pair is to decide, under an order-free pair key."""
        key = self._pair_key(left.fingerprint(), right.fingerprint())
        self._hardness_of[key] = hardness

    @staticmethod
    def _pair_key(fp_left: str, fp_right: str) -> tuple[str, str]:
        return (fp_left, fp_right) if fp_left <= fp_right else (fp_right, fp_left)

    def entity_of(self, fingerprint: str) -> str | None:
        """The entity registered for ``fingerprint`` (None = unknown)."""
        return self._entity_of.get(fingerprint)

    def same_entity(self, fp_left: str, fp_right: str) -> bool | None:
        """Whether two fingerprints denote the same entity (None = unknown)."""
        left = self._entity_of.get(fp_left)
        right = self._entity_of.get(fp_right)
        if left is None or right is None:
            return None
        return left == right

    def hardness(self, fp_left: str, fp_right: str, default: float = 0.5) -> float:
        """Registered hardness of a pair in either order, else ``default``."""
        return self._hardness_of.get(self._pair_key(fp_left, fp_right), default)

    def mean_hardness(self, dataset_code: str, is_match: bool, default: float = 0.5) -> float:
        """Mean registered hardness of one dataset's matches or non-matches.

        Used by the simulated LLM to normalise its hardness modulation so
        expected error rates stay on the calibrated target.  Cached; the
        world is effectively immutable once a study starts.
        """
        key = (dataset_code, is_match)
        cached = self._mean_hardness_cache.get(key)
        if cached is not None:
            return cached
        prefix = f"{dataset_code}:"
        total, count = 0.0, 0
        for (fp_a, fp_b), hardness in self._hardness_of.items():
            entity_a = self._entity_of.get(fp_a)
            entity_b = self._entity_of.get(fp_b)
            if entity_a is None or entity_b is None or not entity_a.startswith(prefix):
                continue
            if (entity_a == entity_b) != is_match:
                continue
            total += hardness
            count += 1
        mean = total / count if count else default
        self._mean_hardness_cache[key] = mean
        return mean

    def merge(self, other: "EntityWorld") -> "EntityWorld":
        """Union of two worlds (used when simulating over many datasets).

        A fingerprint both worlds hold keeps this world's entity, as
        :meth:`register` keeps the first registration.
        """
        merged = EntityWorld()
        merged._entity_of.update(self._entity_of)
        for fp, entity in other._entity_of.items():
            merged._entity_of.setdefault(fp, entity)
        merged._hardness_of.update(self._hardness_of)
        merged._hardness_of.update(other._hardness_of)
        return merged

    def __len__(self) -> int:
        return len(self._entity_of)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entity_of

    def require(self, fingerprint: str) -> str:
        """The entity registered for ``fingerprint``; raises DatasetError if unknown."""
        entity = self._entity_of.get(fingerprint)
        if entity is None:
            raise DatasetError("fingerprint not registered in this world")
        return entity
