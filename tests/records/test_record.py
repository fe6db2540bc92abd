"""Unit tests for records and dummies."""

import copy
import pickle

import pytest

from repro.records.record import (
    DUMMY_FLAG,
    REAL_FLAG,
    EncryptedRecord,
    Record,
    make_dummy,
)
from repro.records.schema import SchemaError, flu_survey_schema, gowalla_schema


class TestRecord:
    def test_real_by_default(self):
        record = Record((1, 2, 3))
        assert record.flag == REAL_FLAG
        assert not record.is_dummy

    def test_indexed_value(self):
        schema = gowalla_schema()
        record = Record((7, 3600, 99))
        assert record.indexed_value(schema) == 3600

    def test_validate_coerces(self):
        schema = gowalla_schema()
        record = Record(("7", "3600", "99")).validate(schema)
        assert record.values == (7, 3600, 99)

    def test_validate_rejects_bad_arity(self):
        with pytest.raises(SchemaError):
            Record((1, 2)).validate(gowalla_schema())

    def test_records_are_hashable_and_frozen(self):
        record = Record((1, 2, 3))
        assert record == Record((1, 2, 3))
        assert hash(record) == hash(Record((1, 2, 3)))
        with pytest.raises(AttributeError):
            record.flag = 1


class TestMakeDummy:
    def test_dummy_flag_and_indexed_value(self):
        schema = flu_survey_schema()
        dummy = make_dummy(schema, 375)
        assert dummy.is_dummy
        assert dummy.flag == DUMMY_FLAG
        assert dummy.indexed_value(schema) == 375

    def test_dummy_fills_other_attributes(self):
        schema = flu_survey_schema()
        dummy = make_dummy(schema, 375)
        assert dummy.values[0] == ""  # participant (str)
        assert dummy.values[1] == 0  # week (int)
        assert dummy.values[3] == ""  # symptoms (str)

    def test_dummy_validates_against_schema(self):
        schema = flu_survey_schema()
        dummy = make_dummy(schema, 375)
        assert dummy.validate(schema).values[2] == 375


class TestEncryptedRecord:
    def test_len_is_ciphertext_length(self):
        record = EncryptedRecord(leaf_offset=3, ciphertext=b"x" * 48)
        assert len(record) == 48

    def test_defaults(self):
        record = EncryptedRecord(leaf_offset=None, ciphertext=b"x" * 16)
        assert record.tag is None
        assert record.publication == 0


class TestEncryptedRecordSlots:
    """Slotted and frozen: no per-record ``__dict__``, and every value
    semantic the pipeline and the multiprocess runtimes rely on holds."""

    def _record(self):
        return EncryptedRecord(7, b"\x01" * 48, tag=3, publication=2)

    def test_no_instance_dict(self):
        record = self._record()
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.publication = 5

    def test_pickle_round_trip(self):
        record = self._record()
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(record, protocol=protocol))
            assert clone == record and clone is not record

    def test_deepcopy_equality_and_hash(self):
        record = self._record()
        clone = copy.deepcopy(record)
        assert clone == record
        assert hash(clone) == hash(record)
        assert record != EncryptedRecord(7, b"\x01" * 48, tag=3)
        assert len({record, clone, EncryptedRecord(None, b"")}) == 2
