"""Merger tests: index assembly and overflow arrays."""

import dataclasses
import random
from collections import Counter

import pytest

from repro.core.merger import Merger, MergeReport
from repro.core.messages import (
    AlSnapshot,
    MergedPublication,
    RemovedRecord,
    TemplateMsg,
)
from repro.crypto.cipher import AesCbcCipher, SimulatedCipher, padding_nonce
from repro.index.overflow import OverflowArray
from repro.index.perturb import draw_noise_plan
from repro.index.tree import IndexTree
from repro.records.record import EncryptedRecord
from repro.records.serialize import DummyRecordSerializer


@pytest.fixture
def merger(flu_config, fast_cipher):
    return Merger(flu_config, fast_cipher, rng=random.Random(12))


@pytest.fixture
def plan(flu_config):
    tree = IndexTree(flu_config.domain, fanout=flu_config.fanout)
    return draw_noise_plan(tree, flu_config.epsilon, rng=random.Random(55))


def _removed(offset: int, publication: int = 0) -> RemovedRecord:
    return RemovedRecord(
        publication, offset, EncryptedRecord(offset, bytes(48))
    )


class TestMergeJob:
    def test_merge_produces_truth_plus_noise(self, merger, flu_config, plan):
        merger.on_template(TemplateMsg(0, plan))
        al = [3] * flu_config.domain.num_leaves
        out = merger.on_al(AlSnapshot(0, tuple(al)))
        (destination, message), = out
        assert destination == "cloud"
        assert isinstance(message, MergedPublication)
        for offset, leaf in enumerate(message.tree.leaves):
            assert leaf.count == 3 + plan.leaf_noise[offset]

    def test_overflow_arrays_sealed_at_capacity(self, merger, flu_config, plan):
        merger.on_template(TemplateMsg(0, plan))
        merger.on_removed(_removed(2))
        (_, message), = merger.on_al(
            AlSnapshot(0, tuple([0] * flu_config.domain.num_leaves))
        )
        arrays = message.overflow
        assert len(arrays) == flu_config.domain.num_leaves
        capacity = flu_config.overflow_capacity
        assert all(len(a.entries) == capacity for a in arrays.values())
        assert arrays[2].real_count == 1
        assert arrays[3].real_count == 0

    def test_removed_before_template_buffers(self, merger, flu_config, plan):
        # Race tolerance: a removed record may beat the template message.
        merger.on_removed(_removed(1))
        merger.on_template(TemplateMsg(0, plan))
        (_, message), = merger.on_al(
            AlSnapshot(0, tuple([0] * flu_config.domain.num_leaves))
        )
        assert message.overflow[1].real_count == 1

    def test_al_without_template_raises(self, merger, flu_config):
        with pytest.raises(KeyError):
            merger.on_al(AlSnapshot(9, tuple([0] * flu_config.domain.num_leaves)))

    def test_report_accounting(self, merger, flu_config, plan):
        merger.on_template(TemplateMsg(0, plan))
        merger.on_removed(_removed(0))
        merger.on_al(AlSnapshot(0, tuple([1] * flu_config.domain.num_leaves)))
        report = merger.reports[0]
        assert report.publication == 0
        assert report.removed_records == 1
        assert report.overflow_capacity == (
            flu_config.overflow_capacity * flu_config.domain.num_leaves
        )
        assert report.padding_encrypts == report.overflow_capacity - 1

    def test_overflow_capacity_caps_removed(self, merger, flu_config, plan):
        merger.on_template(TemplateMsg(0, plan))
        capacity = flu_config.overflow_capacity
        for _ in range(capacity + 5):
            merger.on_removed(_removed(4))
        (_, message), = merger.on_al(
            AlSnapshot(0, tuple([0] * flu_config.domain.num_leaves))
        )
        assert message.overflow[4].real_count == capacity

    def test_two_publications_independent(self, merger, flu_config, plan):
        tree = IndexTree(flu_config.domain, fanout=flu_config.fanout)
        other = draw_noise_plan(tree, 1.0, rng=random.Random(99))
        merger.on_template(TemplateMsg(0, plan))
        merger.on_template(TemplateMsg(1, other))
        merger.on_removed(_removed(0, publication=1))
        zeros = tuple([0] * flu_config.domain.num_leaves)
        (_, first), = merger.on_al(AlSnapshot(0, zeros))
        (_, second), = merger.on_al(AlSnapshot(1, zeros))
        assert first.overflow[0].real_count == 0
        assert second.overflow[0].real_count == 1


def _reference_overflow(config, cipher, rng, publication, removed):
    """The per-dummy seal the batched merge replaced, kept as the oracle.

    Leaf by leaf: one ``encrypt`` (or ``encrypt_seeded``) per padding
    dummy, then :meth:`OverflowArray.seal` pads and shuffles.  Returns the
    arrays and the number of padding dummies.
    """
    serializer = DummyRecordSerializer(config.schema)
    capacity = config.overflow_capacity
    counter = 0

    def dummy(offset):
        nonlocal counter
        low, high = config.domain.leaf_range(offset)
        value = low if high <= low else low + rng.random() * (high - low)
        plaintext = serializer.serialize(value)
        if config.deterministic_ivs:
            ciphertext = cipher.encrypt_seeded(
                plaintext, padding_nonce(publication, counter)
            )
        else:
            ciphertext = cipher.encrypt(plaintext)
        counter += 1
        return EncryptedRecord(
            leaf_offset=None, ciphertext=ciphertext, publication=publication
        )

    overflow = {}
    for offset in range(config.domain.num_leaves):
        array = OverflowArray(offset, capacity=capacity)
        for record in removed.get(offset, ())[:capacity]:
            array.add_removed(record)
        array.seal(lambda offset=offset: dummy(offset), rng=rng)
        overflow[offset] = array
    return overflow, counter


def _removed_per_leaf(capacity: int, publication: int) -> dict:
    """Leaf 0 none, leaf 1 some, leaf 2 exactly capacity, leaf 3 more."""
    counts = {1: 3, 2: capacity, 3: capacity + 4}
    return {
        offset: [
            EncryptedRecord(
                offset, bytes([offset, index]) * 24, publication=publication
            )
            for index in range(count)
        ]
        for offset, count in counts.items()
    }


def _cipher(kind, keystore):
    return (AesCbcCipher if kind == "aes" else SimulatedCipher)(keystore)


class TestBatchedSealEquivalence:
    """The one-pass merge is byte-identical to the per-dummy seal."""

    @pytest.mark.parametrize(
        "kind, deterministic_ivs",
        [("simulated", False), ("simulated", True), ("aes", True)],
    )
    def test_matches_per_dummy_reference(
        self, flu_config, keystore, plan, kind, deterministic_ivs
    ):
        config = dataclasses.replace(
            flu_config, deterministic_ivs=deterministic_ivs
        )
        capacity = config.overflow_capacity
        merger = Merger(
            config, _cipher(kind, keystore), rng=random.Random(12)
        )
        reference_cipher = _cipher(kind, keystore)
        reference_rng = random.Random(12)
        for publication in range(2):
            removed = _removed_per_leaf(capacity, publication)
            merger.on_template(TemplateMsg(publication, plan))
            for offset, records in removed.items():
                for record in records:
                    merger.on_removed(
                        RemovedRecord(publication, offset, record)
                    )
            (_, merged), = merger.on_al(
                AlSnapshot(
                    publication, tuple([0] * config.domain.num_leaves)
                )
            )
            expected, padding = _reference_overflow(
                config, reference_cipher, reference_rng, publication, removed
            )
            assert merged.overflow.keys() == expected.keys()
            for offset, array in merged.overflow.items():
                want = expected[offset]
                assert array.entries == want.entries
                assert array.real_count == want.real_count
                assert array.is_sealed and want.is_sealed
                assert array.capacity == want.capacity
            assert [expected[offset].real_count for offset in range(4)] == [
                0, 3, capacity, capacity,
            ]
            assert merger.reports[-1] == MergeReport(
                publication=publication,
                index_nodes=merged.tree.num_nodes,
                removed_records=sum(
                    array.real_count for array in expected.values()
                ),
                overflow_capacity=capacity * config.domain.num_leaves,
                padding_encrypts=padding,
            )
            assert merger._rng.getstate() == reference_rng.getstate()


class _CountingCipher(SimulatedCipher):
    def __init__(self, keys):
        super().__init__(keys)
        self.calls = Counter()

    def encrypt(self, plaintext):
        self.calls["encrypt"] += 1
        return super().encrypt(plaintext)

    def encrypt_seeded(self, plaintext, nonce):
        self.calls["encrypt_seeded"] += 1
        return super().encrypt_seeded(plaintext, nonce)

    def encrypt_batch(self, plaintexts):
        self.calls["encrypt_batch"] += 1
        return super().encrypt_batch(plaintexts)

    def encrypt_batch_seeded(self, plaintexts, nonces):
        self.calls["encrypt_batch_seeded"] += 1
        return super().encrypt_batch_seeded(plaintexts, nonces)


@pytest.mark.parametrize("deterministic_ivs", [False, True])
def test_one_batch_call_per_publication(
    flu_config, keystore, plan, deterministic_ivs
):
    config = dataclasses.replace(
        flu_config, deterministic_ivs=deterministic_ivs
    )
    cipher = _CountingCipher(keystore)
    merger = Merger(config, cipher, rng=random.Random(3))
    zeros = tuple([0] * config.domain.num_leaves)
    for publication in range(3):
        merger.on_template(TemplateMsg(publication, plan))
        merger.on_removed(_removed(5, publication=publication))
        merger.on_al(AlSnapshot(publication, zeros))
    batch = "encrypt_batch_seeded" if deterministic_ivs else "encrypt_batch"
    assert cipher.calls == Counter({batch: 3})
