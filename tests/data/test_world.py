"""Tests for the entity world."""

from __future__ import annotations

import pytest

from repro.data.record import Record
from repro.data.world import EntityWorld
from repro.errors import DatasetError


@pytest.fixture
def world() -> EntityWorld:
    w = EntityWorld()
    w.register(Record("a", ("sony mdr",), "ABT:e1"))
    w.register(Record("b", ("sony mdr v2",), "ABT:e1"))
    w.register(Record("c", ("canon eos",), "ABT:e2"))
    return w


class TestEntityWorld:
    def test_same_entity(self, world):
        a = Record("a", ("sony mdr",), "ABT:e1").fingerprint()
        b = Record("b", ("sony mdr v2",), "ABT:e1").fingerprint()
        c = Record("c", ("canon eos",), "ABT:e2").fingerprint()
        assert world.same_entity(a, b) is True
        assert world.same_entity(a, c) is False

    def test_unknown_returns_none(self, world):
        assert world.same_entity("nope", "also nope") is None

    def test_collision_keeps_first(self):
        w = EntityWorld()
        w.register(Record("a", ("same text",), "X:e1"))
        w.register(Record("b", ("same text",), "X:e2"))
        assert w.entity_of(Record("a", ("same text",), "X:e1").fingerprint()) == "X:e1"

    def test_hardness_roundtrip(self, world):
        left = Record("a", ("sony mdr",), "ABT:e1")
        right = Record("c", ("canon eos",), "ABT:e2")
        world.register_pair_hardness(left, right, 0.8)
        assert world.hardness(left.fingerprint(), right.fingerprint()) == 0.8
        # symmetric lookup
        assert world.hardness(right.fingerprint(), left.fingerprint()) == 0.8

    def test_hardness_default(self, world):
        assert world.hardness("x", "y", default=0.3) == 0.3

    def test_mean_hardness_by_class(self):
        w = EntityWorld()
        match_l = Record("a", ("x1",), "T:e1")
        match_r = Record("b", ("x2",), "T:e1")
        neg_l = Record("c", ("y1",), "T:e2")
        for r in (match_l, match_r, neg_l):
            w.register(r)
        w.register_pair_hardness(match_l, match_r, 0.9)
        w.register_pair_hardness(match_l, neg_l, 0.1)
        assert w.mean_hardness("T", is_match=True) == pytest.approx(0.9)
        assert w.mean_hardness("T", is_match=False) == pytest.approx(0.1)

    def test_mean_hardness_default_when_empty(self):
        assert EntityWorld().mean_hardness("T", True, default=0.42) == 0.42

    def test_merge(self, world):
        other = EntityWorld()
        other.register(Record("d", ("nikon",), "WDC:e9"))
        merged = world.merge(other)
        assert len(merged) == len(world) + 1

    def test_merge_keeps_first_registration(self):
        # A fingerprint both worlds hold keeps the earlier world's entity,
        # as registering both records into one world would.
        first, later = EntityWorld(), EntityWorld()
        first.register(Record("a", ("Same  Text",), "X:e1"))
        later.register(Record("b", ("same text",), "Y:e7"))
        later.register(Record("c", ("other",), "Y:e8"))
        fp = Record("a", ("same text",), "X:e1").fingerprint()
        assert first.merge(later).entity_of(fp) == "X:e1"
        assert later.merge(first).entity_of(fp) == "Y:e7"
        assert len(first.merge(later)) == 2

        sequential = EntityWorld()
        for record in (Record("a", ("Same  Text",), "X:e1"), Record("b", ("same text",), "Y:e7")):
            sequential.register(record)
        assert sequential.entity_of(fp) == first.merge(later).entity_of(fp)

    def test_require_raises_for_unknown(self, world):
        with pytest.raises(DatasetError):
            world.require("unknown-fingerprint")
