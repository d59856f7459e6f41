"""Tests for serialisation under the cross-dataset restrictions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.record import Record
from repro.data.serialize import (
    PAIR_SEPARATOR,
    column_order,
    deserialize_values,
    fingerprint_serialized,
    serialize_pair,
    serialize_record,
)
from repro.errors import SerializationError

from ..conftest import make_pair

# Whitespace ``str.split`` cuts on, ASCII and beyond.
_SPACES = " \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2003\u2028\u2029\u202f\u3000"


def _reference_fingerprint(text: str) -> str:
    """Deserialise, then lowercase and normalise each value once more."""
    values = deserialize_values(text)
    return "␟".join(sorted(" ".join(v.lower().split()) for v in values))


class TestColumnOrder:
    def test_none_seed_keeps_natural_order(self):
        assert column_order(4, None) == (0, 1, 2, 3)

    def test_seeded_is_permutation(self):
        order = column_order(6, seed=3)
        assert sorted(order) == list(range(6))

    def test_seeded_is_deterministic(self):
        assert column_order(5, 42) == column_order(5, 42)

    def test_different_seeds_vary(self):
        orders = {column_order(6, s) for s in range(10)}
        assert len(orders) > 1

    def test_zero_attributes_raise(self):
        with pytest.raises(SerializationError):
            column_order(0, None)


class TestSerializeRecord:
    def test_no_column_names_leak(self):
        record = Record("r", ("sony mdr", "99.99"), "e1")
        text = serialize_record(record)
        assert text == "val sony mdr val 99.99"

    def test_empty_value_keeps_slot(self):
        record = Record("r", ("sony", "", "99"), "e1")
        values = deserialize_values(serialize_record(record))
        assert values == ["sony", "", "99"]

    def test_custom_order_applied(self):
        record = Record("r", ("a", "b"), "e1")
        assert serialize_record(record, (1, 0)) == "val b val a"

    def test_invalid_order_raises(self):
        record = Record("r", ("a", "b"), "e1")
        with pytest.raises(SerializationError):
            serialize_record(record, (0, 0))

    def test_whitespace_normalised(self):
        record = Record("r", ("a   b\tc",), "e1")
        assert serialize_record(record) == "val a b c"


class TestSerializePair:
    def test_contains_separator(self):
        pair = make_pair(("a", "b"), ("c", "d"), 1)
        assert PAIR_SEPARATOR in serialize_pair(pair)

    def test_both_sides_same_permutation(self):
        pair = make_pair(("a1", "a2", "a3"), ("b1", "b2", "b3"), 1)
        text = serialize_pair(pair, seed=11)
        left, right = text.split(PAIR_SEPARATOR)
        left_idx = [left.split().index(f"a{i}") for i in (1, 2, 3)]
        right_idx = [right.split().index(f"b{i}") for i in (1, 2, 3)]
        assert left_idx == right_idx


class TestDeserialize:
    def test_roundtrip(self):
        record = Record("r", ("sony mdr v6", "great headphones", "99.99"), "e1")
        values = deserialize_values(serialize_record(record))
        assert values == ["sony mdr v6", "great headphones", "99.99"]

    def test_not_serialised_raises(self):
        with pytest.raises(SerializationError):
            deserialize_values("just plain text")

    def test_fingerprint_matches_record_under_any_order(self):
        record = Record("r", ("Alpha Beta", "gamma", "42"), "e1")
        for seed in (None, 0, 1, 2):
            text = serialize_record(record, column_order(3, seed))
            assert fingerprint_serialized(text) == record.fingerprint()

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(codec="ascii", categories=["L", "N"]),
                min_size=1, max_size=8,
            ),
            min_size=1, max_size=5,
        )
    )
    @settings(max_examples=50)
    def test_fingerprint_roundtrip_property(self, values):
        record = Record("r", tuple(values), "e1")
        text = serialize_record(record)
        assert fingerprint_serialized(text) == record.fingerprint()


class TestFingerprintParity:
    """``fingerprint_serialized`` equals the deserialise-then-normalise version."""

    _value = st.one_of(
        st.just(""),
        st.just("val"),
        st.just("VAL"),
        st.text(alphabet=st.sampled_from([*"aZ9-.ΣσςİßÉé٣日", *_SPACES]), max_size=12),
    )
    _gap = st.text(alphabet=st.sampled_from(list(_SPACES)), min_size=1, max_size=3)

    @given(st.lists(st.tuples(_gap, _value, _gap), min_size=1, max_size=5), st.text(max_size=6))
    @settings(max_examples=300)
    def test_marked_values(self, slots, prefix):
        text = prefix + "".join(f"{lead}val{gap}{value}" for lead, value, gap in slots)
        assert fingerprint_serialized(text) == _reference_fingerprint(text)

    @given(st.text(max_size=40), st.text(max_size=40))
    @settings(max_examples=300)
    def test_any_text_around_a_marker(self, before, after):
        text = f"{before} val {after}"
        assert fingerprint_serialized(text) == _reference_fingerprint(text)

    def test_value_equal_to_marker(self):
        record = Record("r", ("val", "Sony  MDR", ""), "e1")
        text = serialize_record(record)
        assert fingerprint_serialized(text) == _reference_fingerprint(text)

    def test_no_marker_raises(self):
        with pytest.raises(SerializationError):
            fingerprint_serialized("just plain text")
