"""Record serialisation under the cross-dataset restrictions.

Language-model matchers see records as strings.  Restriction 2 forbids
column names, so records serialise as ``val <value> ... val <value>``
(position markers only).  Section 2.2 ("Repetitions") varies the column
order per random seed to quantify serialisation sensitivity — that is
implemented here as a seeded permutation shared by both records of a pair.
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np

from ..errors import SerializationError
from .pairs import RecordPair
from .record import Record

__all__ = [
    "column_order",
    "serialize_record",
    "serialize_pair",
    "deserialize_values",
    "fingerprint_serialized",
    "PAIR_SEPARATOR",
]

#: Marker separating the two serialised records of a pair.
PAIR_SEPARATOR = " [SEP] "

#: Marker introducing each attribute value (replaces the column name).
VALUE_MARKER = "val"


@lru_cache(maxsize=None)
def column_order(n_attributes: int, seed: int | None) -> tuple[int, ...]:
    """The seeded attribute permutation used for serialisation.

    ``seed=None`` keeps the natural order (used by deterministic baselines).
    Memoised: the study grid serialises every candidate pair once per
    (matcher, seed), and constructing a fresh numpy ``Generator`` per call
    dominates the cost of the permutation itself.
    """
    if n_attributes <= 0:
        raise SerializationError("n_attributes must be positive")
    if seed is None:
        return tuple(range(n_attributes))
    rng = np.random.default_rng(seed)
    return tuple(int(i) for i in rng.permutation(n_attributes))


@lru_cache(maxsize=None)
def _is_permutation(order: tuple[int, ...]) -> bool:
    return sorted(order) == list(range(len(order)))


@lru_cache(maxsize=131072)
def _serialize_values(values: tuple[str, ...], order: tuple[int, ...]) -> str:
    parts = []
    for idx in order:
        value = " ".join(values[idx].split())
        parts.append(f"{VALUE_MARKER} {value}" if value else f"{VALUE_MARKER} ")
    return " ".join(parts).strip()


def serialize_record(record: Record, order: tuple[int, ...] | None = None) -> str:
    """Serialise one record to the anonymous ``val ...`` format.

    The normalised text is memoised on ``(values, order)`` — the grid
    serialises each record once per prompted model, and the whitespace
    normalisation was the hot path of fully-cached study passes.

    >>> from repro.data.record import Record
    >>> r = Record("r1", ("sony mdr", "99.99"), "e1")
    >>> serialize_record(r)
    'val sony mdr val 99.99'
    """
    order = order or tuple(range(record.n_attributes))
    if len(order) != record.n_attributes or not _is_permutation(order):
        raise SerializationError(f"order {order} is not a permutation for {record.record_id}")
    return _serialize_values(record.values, order)


_VALUE_SPLIT_RE = re.compile(rf"(?:^|\s){VALUE_MARKER}(?:\s|$)")


def _value_parts(text: str) -> list[str]:
    """The raw text after each value marker; raises if there is none."""
    parts = _VALUE_SPLIT_RE.split(text)
    if len(parts) < 2:
        raise SerializationError(f"not a serialised record: {text[:60]!r}")
    return parts[1:]


def deserialize_values(text: str) -> list[str]:
    """Recover the attribute values from a serialised record.

    The inverse of :func:`serialize_record` up to whitespace normalisation
    and value order (the seeded permutation is not recoverable).
    """
    return [" ".join(part.split()) for part in _value_parts(text)]


def fingerprint_serialized(text: str) -> str:
    """Fingerprint of a serialised record, matching ``Record.fingerprint``.

    Both normalise (lowercase, collapsed whitespace) and sort values, so a
    record and its serialisation under any column permutation agree.

    Each value is normalised once, straight from its split part: this equals
    normalising whitespace before lowercasing as well, because ``str.lower``
    never turns a whitespace character into a non-whitespace one or back.
    """
    return "␟".join(sorted(" ".join(part.lower().split()) for part in _value_parts(text)))


def serialize_pair(pair: RecordPair, seed: int | None = None) -> str:
    """Serialise a pair with a shared seeded column permutation.

    Both sides use the same permutation, keeping the attributes aligned —
    only the presentation order changes across seeds.
    """
    order = column_order(pair.n_attributes, seed)
    left = serialize_record(pair.left, order)
    right = serialize_record(pair.right, order)
    return f"{left}{PAIR_SEPARATOR}{right}"
