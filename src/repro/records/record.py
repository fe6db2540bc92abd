"""Record types flowing through the ingestion pipelines.

Three kinds of payloads travel between components:

* :class:`Record` — a parsed plaintext record (only ever present at the
  trusted collector or at the client after decryption);
* :class:`EncryptedRecord` — the AES-CBC ciphertext of a serialized record,
  plus the cleartext *leaf offset* that FRESQUE attaches so the checking node
  can update AL/ALN without decrypting (Section 5.1(a));
* dummy records — syntactically identical to real ones but carrying the
  special dummy flag (the paper's "-1 flag", Section 5.3) so the checker and
  updater skip them when maintaining the true counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.records.schema import Schema, SchemaError

#: Value of the flag attribute marking a record as dummy.  The paper attaches
#: a special flag (e.g. -1) so the checking node can ignore dummies.
DUMMY_FLAG = -1

#: Flag value for real records.
REAL_FLAG = 0


@dataclass(frozen=True)
class Record:
    """A plaintext record conforming to a :class:`~repro.records.schema.Schema`.

    Parameters
    ----------
    values:
        The attribute values, in schema order.
    flag:
        :data:`REAL_FLAG` for real records, :data:`DUMMY_FLAG` for dummies.
    """

    values: tuple
    flag: int = REAL_FLAG

    @property
    def is_dummy(self) -> bool:
        """Whether this is a dummy record injected to hide positive noise."""
        return self.flag == DUMMY_FLAG

    def indexed_value(self, schema: Schema):
        """The value of the schema's indexed attribute for this record."""
        return self.values[schema.indexed_position]

    def validate(self, schema: Schema) -> "Record":
        """Return a copy with values coerced to the schema types.

        Raises
        ------
        SchemaError
            If the record does not match the schema.
        """
        return Record(schema.coerce_values(self.values), flag=self.flag)


def make_dummy(schema: Schema, indexed_value) -> Record:
    """Build a dummy record whose indexed attribute equals ``indexed_value``.

    All other attributes get type-appropriate filler so that, once encrypted,
    a dummy is indistinguishable from a real record of the same size class.
    """
    values = list(schema.dummy_filler)
    position = schema.indexed_position
    values[position] = schema.attributes[position].coerce(indexed_value)
    return Record(tuple(values), flag=DUMMY_FLAG)


@dataclass(frozen=True, slots=True)
class EncryptedRecord:
    """An encrypted record travelling to the cloud.

    Parameters
    ----------
    leaf_offset:
        Cleartext offset of the index leaf this record falls in (FRESQUE ships
        ``<leaf offset, e-record>`` pairs).  ``None`` for pipelines (PINED-RQ++)
        that tag with a random id instead.
    ciphertext:
        AES-CBC ciphertext of the serialized record (IV-prefixed).
    tag:
        Random per-record id used by PINED-RQ++'s matching table; ``None``
        under FRESQUE.
    publication:
        Monotonic publication number the record belongs to.
    """

    leaf_offset: int | None
    ciphertext: bytes
    tag: int | None = None
    publication: int = 0

    def __len__(self) -> int:
        return len(self.ciphertext)


class RecordError(SchemaError):
    """Raised when a record payload is malformed."""
