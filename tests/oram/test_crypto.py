"""Re-encryption layer tests: round-trips, freshness, key/nonce sensitivity."""

import numpy as np
import pytest

from repro.oram.crypto import EncryptedBucketTree, KeystreamCipher
from repro.oram.tree import DUMMY, BucketTree

KEY = b"0123456789abcdef0123456789abcdef"


class TestKeystreamCipher:
    def test_roundtrip(self):
        cipher = KeystreamCipher(KEY)
        message = b"embedding row bytes" * 7
        assert cipher.decrypt(cipher.encrypt(message, nonce=5), nonce=5) \
            == message

    def test_nonce_changes_ciphertext(self):
        cipher = KeystreamCipher(KEY)
        message = b"x" * 64
        assert cipher.encrypt(message, 1) != cipher.encrypt(message, 2)

    def test_key_changes_ciphertext(self):
        message = b"x" * 64
        a = KeystreamCipher(KEY).encrypt(message, 1)
        b = KeystreamCipher(b"f" * 32).encrypt(message, 1)
        assert a != b

    def test_deterministic(self):
        cipher = KeystreamCipher(KEY)
        assert cipher.encrypt(b"abc", 9) == cipher.encrypt(b"abc", 9)

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            KeystreamCipher(b"short")

    def test_keystream_length(self):
        assert len(KeystreamCipher(KEY).keystream(0, 100)) == 100


class TestEncryptedBucketTree:
    @pytest.fixture
    def sealed(self, rng):
        tree = BucketTree(8, 4, bucket_size=2)
        tree.ids[3, 0] = 7
        tree.payloads[3, 0] = rng.normal(size=4)
        return EncryptedBucketTree(tree, KEY), tree

    def test_at_rest_payloads_are_ciphertext(self, sealed, rng):
        enc, tree = sealed
        plain = np.zeros(4)
        enc.write_bucket(0, np.array([1, DUMMY]), np.zeros(2, dtype=int),
                         np.stack([plain, plain]))
        assert not np.allclose(enc.ciphertext_of(0)[0], plain)

    def test_read_roundtrips(self, sealed, rng):
        enc, _ = sealed
        payloads = rng.normal(size=(2, 4))
        ids = np.array([5, 6])
        enc.write_bucket(2, ids, np.zeros(2, dtype=int), payloads)
        got_ids, _, got_payloads = enc.read_bucket(2)
        np.testing.assert_array_equal(got_ids, ids)
        np.testing.assert_allclose(got_payloads, payloads)

    def test_rewrite_same_content_fresh_ciphertext(self, sealed, rng):
        """The replay-resistance property: identical plaintext rewrites
        look different in memory (fresh nonce per write)."""
        enc, _ = sealed
        payloads = rng.normal(size=(2, 4))
        ids = np.array([5, 6])
        enc.write_bucket(4, ids, np.zeros(2, dtype=int), payloads)
        first = enc.ciphertext_of(4)
        enc.write_bucket(4, ids, np.zeros(2, dtype=int), payloads)
        second = enc.ciphertext_of(4)
        assert not np.allclose(first, second)
        _, _, opened = enc.read_bucket(4)
        np.testing.assert_allclose(opened, payloads)

    def test_initial_state_encrypted_and_recoverable(self, sealed):
        enc, tree = sealed
        _, _, payloads = enc.read_bucket(3)
        assert np.isfinite(payloads).all()

    def test_geometry_passthrough(self, sealed):
        enc, tree = sealed
        assert enc.num_buckets == tree.num_buckets
        assert enc.path_indices(0) == tree.path_indices(0)


class TestEncryptedOramIntegration:
    def test_path_oram_over_encrypted_tree(self, rng):
        """A full ORAM running on sealed memory stays correct."""
        from repro.oram import PathORAM

        data = rng.normal(size=(32, 4))
        oram = PathORAM(32, 4, initial_payloads=data.copy(), rng=1)
        oram.tree = EncryptedBucketTree(oram.tree, KEY)
        mirror = data.copy()
        for _ in range(150):
            block = int(rng.integers(0, 32))
            if rng.random() < 0.5:
                np.testing.assert_allclose(oram.read(block), mirror[block])
            else:
                value = rng.normal(size=4)
                oram.write(block, value)
                mirror[block] = value

    @pytest.mark.parametrize("batched", [False, True],
                             ids=["access", "access_batch"])
    @pytest.mark.parametrize("scheme", ["path", "circuit"])
    def test_block_movers_never_bypass_the_cipher(self, rng, scheme, batched):
        """The multi-bucket read/write the movers use must seal and open
        like the single-bucket pair: ``__getattr__`` forwarding them to the
        plain tree would hand out ciphertext and store plaintext."""
        from repro.oram import CircuitORAM, PathORAM

        oram_class = {"path": PathORAM, "circuit": CircuitORAM}[scheme]
        data = rng.normal(size=(32, 4))
        oram = oram_class(32, 4, initial_payloads=data.copy(), rng=1,
                          stash_capacity=32)
        sealed = oram.tree = EncryptedBucketTree(oram.tree, KEY)
        mirror = data.copy()
        for _ in range(40):
            counters = sealed._write_counters.copy()
            served = len(oram.stats.revealed_leaves)
            if batched:
                blocks = [int(b) for b in rng.integers(0, 32, size=6)]
                deltas = rng.normal(size=6)
                got = oram.access_batch(
                    blocks, [lambda row, d=d: row + d for d in deltas])
                for row, block, delta in zip(got, blocks, deltas):
                    np.testing.assert_allclose(row, mirror[block])
                    mirror[block] = mirror[block] + delta
            else:
                block = int(rng.integers(0, 32))
                value = rng.normal(size=4)
                np.testing.assert_allclose(oram.access(
                    block, lambda row: value), mirror[block])
                mirror[block] = value
            # Every bucket on a fetched (hence rewritten) path got a fresh
            # nonce, and what lies in memory is not what a read returns.
            for leaf in oram.stats.revealed_leaves[served:]:
                for bucket in sealed.path_indices(leaf):
                    assert sealed._write_counters[bucket] > counters[bucket]
                    assert not np.array_equal(sealed.ciphertext_of(bucket),
                                              sealed.read_bucket(bucket)[2])
        for block in range(32):
            np.testing.assert_allclose(oram.read(block), mirror[block])
