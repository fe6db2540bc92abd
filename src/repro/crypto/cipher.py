"""Record cipher API used by every ingestion pipeline.

Two interchangeable implementations:

* :class:`AesCbcCipher` — real AES-CBC over the pure-Python block cipher;
  used by functional tests, examples and the threaded runtime, where
  correctness of the round trip matters.
* :class:`SimulatedCipher` — a fast stand-in that produces ciphertexts of the
  same length as AES-CBC would (IV + padded blocks) by keyed-stream XOR.  It
  preserves everything the system cares about structurally (length, dummy
  indistinguishability, decrypt-ability with the key) while making
  million-record simulations tractable in pure Python.  The *cost* of real
  AES is charged explicitly by the discrete-event simulator's cost model, so
  using the fast cipher does not distort performance results.

Both hide the record's dummy flag inside the ciphertext, as the paper
requires (an observer of ``<leaf offset, e-record>`` pairs cannot tell
dummies from real records).
"""

from __future__ import annotations

import hashlib
import threading
from abc import ABC, abstractmethod

from repro.crypto.aes import BLOCK_SIZE, AesBlockCipher
from repro.crypto.keys import KeyStore
from repro.crypto.modes import cbc_decrypt, cbc_encrypt, cbc_encrypt_many
from repro.crypto.padding import PaddingError, pad, unpad


#: PKCS#7 padding by pad length, for the batch paths' inlined :func:`pad`.
_PKCS7_PADS = tuple(
    bytes([length]) * length for length in range(BLOCK_SIZE + 1)
)


class DecryptionError(ValueError):
    """Raised when a ciphertext cannot be decrypted (wrong key / corrupt)."""


def record_nonce(ordinal: int) -> bytes:
    """Seeded-IV nonce for the record at global dispatch ``ordinal``.

    Namespaced (``rec``) so a record nonce can never collide with a
    :func:`padding_nonce` even when the integers coincide.
    """
    return b"rec" + ordinal.to_bytes(8, "little")


def padding_nonce(publication: int, counter: int) -> bytes:
    """Seeded-IV nonce for the merger's ``counter``-th padding dummy of
    ``publication``."""
    return (
        b"pad"
        + publication.to_bytes(8, "little")
        + counter.to_bytes(8, "little")
    )


class RecordCipher(ABC):
    """Encrypts and decrypts serialized record payloads."""

    @abstractmethod
    def encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt ``plaintext``; the result embeds the IV."""

    @abstractmethod
    def decrypt(self, ciphertext: bytes) -> bytes:
        """Invert :meth:`encrypt`.

        Raises
        ------
        DecryptionError
            If the ciphertext is malformed or the padding check fails.
        """

    def encrypt_batch(self, plaintexts: list[bytes]) -> list[bytes]:
        """Encrypt a batch; byte-identical to mapping :meth:`encrypt`.

        The contract every implementation must honour (property-tested in
        ``tests/crypto/test_batch_encrypt.py``): the result equals
        ``[self.encrypt(p) for p in plaintexts]`` including IV order, so
        the batched ingest path produces the exact ciphertext stream of
        the per-record path.  Subclasses override this with a multi-block
        fast path; the base implementation is the semantic reference.
        """
        return [self.encrypt(plaintext) for plaintext in plaintexts]

    def encrypt_seeded(self, plaintext: bytes, nonce: bytes) -> bytes:
        """Encrypt with an IV derived deterministically from ``nonce``.

        The multiprocess runtimes use this (``config.deterministic_ivs``)
        so every worker derives the IV from the record's pipeline-wide
        identity (its dispatch ordinal) instead of a process-local
        counter: the ciphertext stream then does not depend on which
        process encrypted which record, which is what lets the
        shared-memory runtime reproduce the in-memory runtime's cloud
        state byte for byte.  The caller must never reuse a nonce for two
        different plaintext positions — uniqueness of the derived IV is
        the only requirement the construction inherits.
        """
        return self._encrypt_with_iv(plaintext, self.derive_iv(nonce))

    def encrypt_batch_seeded(
        self, plaintexts: list[bytes], nonces: list[bytes]
    ) -> list[bytes]:
        """Batch counterpart of :meth:`encrypt_seeded`, same contract as
        :meth:`encrypt_batch`: byte-identical to the mapped form."""
        if len(plaintexts) != len(nonces):
            raise ValueError("one nonce per plaintext is required")
        return [
            self.encrypt_seeded(plaintext, nonce)
            for plaintext, nonce in zip(plaintexts, nonces)
        ]

    def derive_iv(self, nonce: bytes) -> bytes:
        """The deterministic IV bound to ``nonce`` (domain-separated)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support seeded IVs"
        )

    def _encrypt_with_iv(self, plaintext: bytes, iv: bytes) -> bytes:
        raise NotImplementedError(
            f"{type(self).__name__} does not support seeded IVs"
        )

    def ciphertext_length(self, plaintext_length: int) -> int:
        """Length in bytes of the ciphertext for a given plaintext length.

        CBC with PKCS#7: one IV block plus the padded plaintext.
        """
        padded = plaintext_length + (BLOCK_SIZE - plaintext_length % BLOCK_SIZE)
        return BLOCK_SIZE + padded


class AesCbcCipher(RecordCipher):
    """AES-CBC with per-message random IV, the paper's encryption scheme.

    Parameters
    ----------
    keys:
        Key store shared between collector and client.
    """

    def __init__(self, keys: KeyStore):
        self._keys = keys
        self._block = AesBlockCipher(keys.record_key())
        self._iv_key = keys.derive("fresque/seeded-iv")

    def encrypt(self, plaintext: bytes) -> bytes:
        iv = self._keys.fresh_iv()
        return iv + cbc_encrypt(self._block, plaintext, iv)

    def derive_iv(self, nonce: bytes) -> bytes:
        # PRF of a never-reused nonce under a dedicated subkey — the IV
        # stays unpredictable to the cloud, which only requires that the
        # nonce assignment (dispatch ordinals) never repeats.
        return hashlib.sha256(self._iv_key + nonce).digest()[:BLOCK_SIZE]

    def _encrypt_with_iv(self, plaintext: bytes, iv: bytes) -> bytes:
        return iv + cbc_encrypt(self._block, plaintext, iv)

    def encrypt_batch(self, plaintexts: list[bytes]) -> list[bytes]:
        """Multi-block fast path: one CBC chain loop over the whole batch.

        Each message still gets its own fresh IV (its chain restarts
        there — the construction is unchanged), but the block loop runs
        once over a concatenated buffer instead of once per record.
        """
        ivs = [self._keys.fresh_iv() for _ in plaintexts]
        bodies = cbc_encrypt_many(self._block, plaintexts, ivs)
        return [iv + body for iv, body in zip(ivs, bodies)]

    def encrypt_batch_seeded(
        self, plaintexts: list[bytes], nonces: list[bytes]
    ) -> list[bytes]:
        """Seeded counterpart of :meth:`encrypt_batch`: each IV is
        :meth:`derive_iv` of its nonce, then one CBC chain loop."""
        if len(plaintexts) != len(nonces):
            raise ValueError("one nonce per plaintext is required")
        ivs = [self.derive_iv(nonce) for nonce in nonces]
        bodies = cbc_encrypt_many(self._block, plaintexts, ivs)
        return [iv + body for iv, body in zip(ivs, bodies)]

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) < 2 * BLOCK_SIZE:
            raise DecryptionError("ciphertext shorter than IV + one block")
        iv, body = ciphertext[:BLOCK_SIZE], ciphertext[BLOCK_SIZE:]
        try:
            return cbc_decrypt(self._block, body, iv)
        except (PaddingError, ValueError) as exc:
            raise DecryptionError(str(exc)) from exc


class SimulatedCipher(RecordCipher):
    """Length-preserving fast cipher for high-rate simulations.

    Encrypts by XOR with a keystream derived from SHA-256(key || IV || ctr)
    over the PKCS#7-padded plaintext, prefixed by the IV — so ciphertext
    lengths match :class:`AesCbcCipher` exactly.  This is *not* offered as a
    secure construction; it exists so structural experiments don't pay the
    pure-Python AES cost (which the simulator models separately).
    """

    def __init__(self, keys: KeyStore, counter_start: int = 0):
        self._key = keys.record_key()
        self._keys = keys
        # ``counter_start`` partitions the IV-counter space between
        # cipher instances that share a key but not an address space
        # (one worker process each): with per-worker offsets, e.g.
        # ``worker_index << 44``, no two processes can draw the same
        # counter IV even without the shared lock.
        self._counter = counter_start
        # The cipher is shared by every computing-node thread plus the
        # merger; the counter bump must be atomic or two threads can draw
        # the same IV (keystream reuse).
        self._counter_lock = threading.Lock()

    def _keystream(self, iv: bytes, length: int) -> bytes:
        prefix = self._key + iv
        sha256 = hashlib.sha256
        blocks = [
            sha256(prefix + counter.to_bytes(4, "little")).digest()
            for counter in range((length + 31) // 32)
        ]
        return b"".join(blocks)[:length]

    def _next_iv(self) -> bytes:
        # A cheap deterministic nonce is enough here; uniqueness per message
        # is what keeps decryption well-defined.
        with self._counter_lock:
            self._counter += 1
            counter = self._counter
        return hashlib.sha256(
            self._key + b"iv" + counter.to_bytes(8, "little")
        ).digest()[:BLOCK_SIZE]

    @staticmethod
    def _xor(data: bytes, keystream: bytes) -> bytes:
        return (
            int.from_bytes(data, "little")
            ^ int.from_bytes(keystream, "little")
        ).to_bytes(len(data), "little")

    def encrypt(self, plaintext: bytes) -> bytes:
        iv = self._next_iv()
        padded = pad(plaintext, BLOCK_SIZE)
        return iv + self._xor(padded, self._keystream(iv, len(padded)))

    def derive_iv(self, nonce: bytes) -> bytes:
        # Domain-separated from the counter IVs (``iv-seeded`` vs ``iv``)
        # so a seeded IV can never collide with a counter IV under the
        # same key.
        return hashlib.sha256(self._key + b"iv-seeded" + nonce).digest()[
            :BLOCK_SIZE
        ]

    def _encrypt_with_iv(self, plaintext: bytes, iv: bytes) -> bytes:
        padded = pad(plaintext, BLOCK_SIZE)
        return iv + self._xor(padded, self._keystream(iv, len(padded)))

    def encrypt_batch(self, plaintexts: list[bytes]) -> list[bytes]:
        """Fast path: one lock round trip and one tight keystream loop.

        Byte-identical to mapping :meth:`encrypt` — the batch reserves a
        contiguous run of IV counters up front (same counter sequence the
        per-record path would draw), then derives each keystream inline
        without the per-call method and lock overhead.
        """
        count = len(plaintexts)
        if count == 0:
            return []
        with self._counter_lock:
            first = self._counter + 1
            self._counter += count
        ivs = self._prefixed_ivs(
            b"iv",
            [
                counter.to_bytes(8, "little")
                for counter in range(first, first + count)
            ],
        )
        return self._xor_many(plaintexts, ivs)

    def encrypt_batch_seeded(
        self, plaintexts: list[bytes], nonces: list[bytes]
    ) -> list[bytes]:
        """Seeded counterpart of :meth:`encrypt_batch`; byte-identical to
        mapping :meth:`encrypt_seeded`."""
        if len(plaintexts) != len(nonces):
            raise ValueError("one nonce per plaintext is required")
        return self._xor_many(
            plaintexts, self._prefixed_ivs(b"iv-seeded", nonces)
        )

    def _prefixed_ivs(self, tag: bytes, suffixes: list[bytes]) -> list[bytes]:
        """``sha256(key || tag || suffix)[:16]`` per suffix, hashing the
        shared ``key || tag`` prefix once."""
        prefix = hashlib.sha256(self._key + tag)
        ivs = []
        for suffix in suffixes:
            hasher = prefix.copy()
            hasher.update(suffix)
            ivs.append(hasher.digest()[:BLOCK_SIZE])
        return ivs

    def _xor_many(
        self, plaintexts: list[bytes], ivs: list[bytes]
    ) -> list[bytes]:
        """IV-prefixed ciphertexts, each as :meth:`_encrypt_with_iv` would
        make it, with padding and keystream inlined.

        Payloads that pad to at most two digests (64 bytes), such as the
        merger's padding dummies, skip the general keystream join.
        """
        sha256 = hashlib.sha256
        key = self._key
        pkcs7 = _PKCS7_PADS
        block0 = (0).to_bytes(4, "little")
        block1 = (1).to_bytes(4, "little")
        out = []
        for plaintext, iv in zip(plaintexts, ivs):
            pad_len = BLOCK_SIZE - len(plaintext) % BLOCK_SIZE
            padded = plaintext + pkcs7[pad_len]
            length = len(padded)
            prefix = key + iv
            if length <= 32:
                keystream = sha256(prefix + block0).digest()
            elif length <= 64:
                keystream = (
                    sha256(prefix + block0).digest()
                    + sha256(prefix + block1).digest()
                )
            else:
                keystream = b"".join(
                    [
                        sha256(prefix + counter.to_bytes(4, "little")).digest()
                        for counter in range((length + 31) // 32)
                    ]
                )
            out.append(
                iv
                + (
                    int.from_bytes(padded, "little")
                    ^ int.from_bytes(keystream[:length], "little")
                ).to_bytes(length, "little")
            )
        return out

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) < 2 * BLOCK_SIZE:
            raise DecryptionError("ciphertext shorter than IV + one block")
        iv, body = ciphertext[:BLOCK_SIZE], ciphertext[BLOCK_SIZE:]
        padded = self._xor(body, self._keystream(iv, len(body)))
        try:
            return unpad(padded, BLOCK_SIZE)
        except PaddingError as exc:
            raise DecryptionError(str(exc)) from exc
