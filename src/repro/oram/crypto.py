"""Bucket re-encryption: the confidentiality half of "shuffle and re-encrypt".

Trees in ZeroTrace live in encrypted memory; every bucket write uses a
fresh nonce so an observer of raw memory *contents* (cold boot, bus probe,
§II-B) learns nothing — and cannot even tell whether a rewritten bucket
changed. This module provides a keystream cipher (a counter-mode PRG
construction seeded per (key, nonce); a stand-in for AES-CTR with the same
interface and the properties the tests need: determinism, key/nonce
sensitivity, and perfect round-trips) and an encrypting wrapper over
:class:`~repro.oram.tree.BucketTree`.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

import numpy as np

from repro.oram.tree import BucketTree
from repro.utils.validation import check_non_negative


class KeystreamCipher:
    """Counter-mode keystream cipher over byte buffers.

    The keystream is SHA-256 in counter mode over (key, nonce, block
    counter) — not a production cipher, but a faithful *model* of one:
    deterministic under (key, nonce), avalanche on either, XOR-symmetric.
    """

    BLOCK_BYTES = 32

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise ValueError("key must be at least 16 bytes")
        self._key = bytes(key)

    def keystream(self, nonce: int, length: int) -> bytes:
        check_non_negative("length", length)
        blocks = []
        for counter in range((length + self.BLOCK_BYTES - 1)
                             // self.BLOCK_BYTES):
            digest = hashlib.sha256(
                self._key + nonce.to_bytes(16, "little")
                + counter.to_bytes(8, "little")).digest()
            blocks.append(digest)
        return b"".join(blocks)[:length]

    def encrypt(self, plaintext: bytes, nonce: int) -> bytes:
        stream = self.keystream(nonce, len(plaintext))
        return bytes(p ^ s for p, s in zip(plaintext, stream))

    decrypt = encrypt  # XOR keystream is its own inverse


class EncryptedBucketTree:
    """A :class:`BucketTree` whose at-rest payloads are ciphertext.

    Each bucket carries a write counter; the nonce is (bucket index, write
    counter), so rewriting a bucket — even with identical content — yields
    fresh ciphertext. Reads decrypt transparently; the controller above is
    unchanged. Access *patterns* are still visible (that is ORAM's job);
    this layer hides *contents*.
    """

    def __init__(self, tree: BucketTree, key: bytes) -> None:
        self.tree = tree
        self._cipher = KeystreamCipher(key)
        self._write_counters = np.zeros(tree.num_buckets, dtype=np.int64)
        # Encrypt the initial state in place.
        for bucket in range(tree.num_buckets):
            self._encrypt_bucket(bucket)

    # -- passthrough geometry -------------------------------------------
    def __getattr__(self, name):
        return getattr(self.tree, name)

    def _nonce(self, bucket: int) -> int:
        return (bucket << 32) | int(self._write_counters[bucket])

    def _encrypt_bucket(self, bucket: int) -> None:
        raw = self.tree.payloads[bucket].tobytes()
        sealed = self._cipher.encrypt(raw, self._nonce(bucket))
        self.tree.payloads[bucket] = np.frombuffer(
            sealed, dtype=np.float64).reshape(self.tree.payloads[bucket].shape)

    def _decrypt_payloads(self, bucket: int) -> np.ndarray:
        raw = self.tree.payloads[bucket].tobytes()
        opened = self._cipher.decrypt(raw, self._nonce(bucket))
        return np.frombuffer(opened, dtype=np.float64).reshape(
            self.tree.payloads[bucket].shape).copy()

    # -- the BucketTree interface, decrypting/encrypting at the boundary --
    def read_bucket(self, bucket: int) -> Tuple[np.ndarray, np.ndarray,
                                                np.ndarray]:
        ids, leaves, _ = self.tree.read_bucket(bucket)
        return ids, leaves, self._decrypt_payloads(bucket)

    def _seal(self, bucket: int, payloads: np.ndarray) -> np.ndarray:
        """``payloads`` as ``bucket``'s next ciphertext (fresh nonce)."""
        self._write_counters[bucket] += 1
        sealed = self._cipher.encrypt(
            np.ascontiguousarray(payloads, dtype=np.float64).tobytes(),
            self._nonce(bucket))
        return np.frombuffer(sealed, dtype=np.float64).reshape(payloads.shape)

    def write_bucket(self, bucket: int, ids: np.ndarray, leaves: np.ndarray,
                     payloads: np.ndarray) -> None:
        self.tree.write_bucket(bucket, ids, leaves,
                               self._seal(bucket, payloads))

    #: packs the blocks, then seals them through ``write_bucket`` above
    write_blocks = BucketTree.write_blocks

    # The multi-bucket pair must not fall through ``__getattr__`` to the
    # plain tree: that would hand out ciphertext and store plaintext.
    def read_buckets(self, buckets) -> Tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
        ids, leaves, _ = self.tree.read_buckets(buckets)
        return ids, leaves, np.stack(
            [self._decrypt_payloads(int(bucket)) for bucket in buckets])

    def write_buckets(self, buckets, ids: np.ndarray, leaves: np.ndarray,
                      payloads: np.ndarray) -> None:
        self.tree.write_buckets(buckets, ids, leaves, np.stack(
            [self._seal(int(bucket), rows)
             for bucket, rows in zip(buckets, payloads)]))

    def read_bucket_metadata(self, bucket: int) -> Tuple[np.ndarray,
                                                         np.ndarray]:
        return self.tree.read_bucket_metadata(bucket)

    def ciphertext_of(self, bucket: int) -> np.ndarray:
        """The raw (encrypted) payload bytes as stored — for tests."""
        return self.tree.payloads[bucket].copy()
