"""Overflow array tests."""

import random

import pytest

from repro.index.overflow import OverflowArray, OverflowError_
from repro.records.record import EncryptedRecord


def _record(tag: int) -> EncryptedRecord:
    return EncryptedRecord(leaf_offset=None, ciphertext=bytes([tag]) * 32)


def _padding() -> EncryptedRecord:
    return EncryptedRecord(leaf_offset=None, ciphertext=b"\xff" * 32)


class TestOverflowArray:
    def test_add_and_count(self):
        array = OverflowArray(leaf_offset=3, capacity=4)
        array.add_removed(_record(1))
        array.add_removed(_record(2))
        assert len(array) == 2
        assert array.real_count == 2

    def test_capacity_enforced(self):
        array = OverflowArray(0, capacity=1)
        array.add_removed(_record(1))
        with pytest.raises(OverflowError_):
            array.add_removed(_record(2))

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            OverflowArray(0, capacity=-1)

    def test_seal_pads_to_capacity(self):
        array = OverflowArray(0, capacity=5)
        array.add_removed(_record(1))
        array.seal(_padding, rng=random.Random(3))
        assert len(array) == 5
        assert array.is_sealed
        assert array.real_count == 1

    def test_seal_is_idempotent(self):
        array = OverflowArray(0, capacity=2)
        array.seal(_padding, rng=random.Random(3))
        array.seal(_padding, rng=random.Random(3))
        assert len(array) == 2

    def test_no_adds_after_seal(self):
        array = OverflowArray(0, capacity=3)
        array.seal(_padding, rng=random.Random(3))
        with pytest.raises(OverflowError_):
            array.add_removed(_record(1))

    def test_sealed_length_hides_real_count(self):
        """Fixed-size arrays: an observer cannot tell 0 removed from 3."""
        empty = OverflowArray(0, capacity=4)
        empty.seal(_padding, rng=random.Random(1))
        busy = OverflowArray(0, capacity=4)
        for tag in range(3):
            busy.add_removed(_record(tag))
        busy.seal(_padding, rng=random.Random(2))
        assert len(empty) == len(busy) == 4

    def test_seal_shuffles(self):
        """Real records must not sit at predictable positions."""
        positions = set()
        for seed in range(30):
            array = OverflowArray(0, capacity=10)
            array.add_removed(_record(7))
            array.seal(_padding, rng=random.Random(seed))
            positions.add(array.entries.index(_record(7)))
        assert len(positions) > 3

    def test_zero_capacity_allowed(self):
        array = OverflowArray(0, capacity=0)
        array.seal(_padding, rng=random.Random(1))
        assert len(array) == 0

    def test_presealed_constructor(self):
        entries = [_padding(), _record(1), _padding()]
        array = OverflowArray.sealed(4, 3, entries, real_count=1)
        assert array.is_sealed
        assert array.entries == tuple(entries)
        assert array.leaf_offset == 4 and array.capacity == 3
        assert array.real_count == 1
        with pytest.raises(OverflowError_):
            array.add_removed(_record(2))

    def test_presealed_constructor_requires_a_full_array(self):
        with pytest.raises(OverflowError_):
            OverflowArray.sealed(0, 3, [_padding()])
        with pytest.raises(OverflowError_):
            OverflowArray.sealed(0, 1, [_record(1)], real_count=2)
