"""Overflow arrays.

When a leaf receives negative Laplace noise, PINED-RQ removes that many real
records from the dataset and stores them — encrypted — in the leaf's
*overflow array*: a fixed-size array padded with dummy records so its length
never reveals how many real records were removed (Section 4.1).  Queries
that touch a leaf return its overflow array too, so removed records are
never lost, only de-indexed.
"""

from __future__ import annotations

import random

from repro.records.record import EncryptedRecord


class OverflowError_(ValueError):
    """Raised when an overflow array is over-filled."""


class OverflowArray:
    """Fixed-size array of encrypted records attached to one leaf.

    Parameters
    ----------
    leaf_offset:
        The leaf this array belongs to.
    capacity:
        Fixed size; chosen from the inverse-CDF noise bound so it exceeds
        the removed-record count with probability δ.
    """

    def __init__(self, leaf_offset: int, capacity: int):
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.leaf_offset = leaf_offset
        self.capacity = capacity
        self._entries: list[EncryptedRecord] = []
        self._real_count = 0
        self._sealed = False

    @classmethod
    def sealed(
        cls,
        leaf_offset: int,
        capacity: int,
        entries: list[EncryptedRecord],
        real_count: int = 0,
    ) -> "OverflowArray":
        """An array already padded and shuffled elsewhere.

        Used by the merger, which seals every leaf of a publication in one
        batched pass, and by wire decoding, which rebuilds a sealed array
        verbatim.  ``real_count`` is trusted-side bookkeeping; a decoded
        array does not know it and leaves it at 0.

        Raises
        ------
        OverflowError_
            If ``entries`` does not fill the array exactly.
        """
        array = cls(leaf_offset, capacity)
        if len(entries) != capacity or not 0 <= real_count <= capacity:
            raise OverflowError_(
                f"sealed overflow array for leaf {leaf_offset} needs "
                f"{capacity} entries with at most that many real, got "
                f"{len(entries)} with {real_count} real"
            )
        array._entries = list(entries)
        array._real_count = real_count
        array._sealed = True
        return array

    @property
    def entries(self) -> tuple[EncryptedRecord, ...]:
        """Current contents (removed real records, then padding once sealed)."""
        return tuple(self._entries)

    @property
    def real_count(self) -> int:
        """Number of genuinely removed records stored (trusted-side only)."""
        return self._real_count

    @property
    def is_sealed(self) -> bool:
        """Whether the array has been padded and shuffled for publication."""
        return self._sealed

    def __len__(self) -> int:
        return len(self._entries)

    def add_removed(self, record: EncryptedRecord) -> None:
        """Store one removed (real, encrypted) record.

        Raises
        ------
        OverflowError_
            If the array is sealed or already at capacity.
        """
        if self._sealed:
            raise OverflowError_("cannot add to a sealed overflow array")
        if len(self._entries) >= self.capacity:
            raise OverflowError_(
                f"overflow array for leaf {self.leaf_offset} is full "
                f"({self.capacity})"
            )
        self._entries.append(record)
        self._real_count += 1

    def seal(self, make_padding, rng: random.Random | None = None) -> None:
        """Pad to capacity with dummies and shuffle, ready for publication.

        Parameters
        ----------
        make_padding:
            Zero-argument callable producing one encrypted dummy record.
        rng:
            Randomness for the shuffle; seeded for reproducible tests.
        """
        if self._sealed:
            return
        while len(self._entries) < self.capacity:
            self._entries.append(make_padding())
        shuffle_rng = rng if rng is not None else random.Random()
        shuffle_rng.shuffle(self._entries)
        self._sealed = True
