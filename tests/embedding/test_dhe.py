"""DHE tests: hash family, encoding, decoding, training, Varied sizing;
plus the index and eval-path checks the linear scan shares with DHE."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.costmodel.latency import DheShape
from repro.embedding.dhe import UNIVERSAL_PRIME, DHEEmbedding, UniversalHashEncoder
from repro.embedding.scan import LinearScanEmbedding
from repro.oblivious.linear_scan import (
    linear_scan_batch_vectorized,
    linear_scan_lookup,
)
from repro.oblivious.trace import MemoryTracer, TracedArray

P = UNIVERSAL_PRIME
U64_MAX = (1 << 64) - 1


class TestUniversalHashEncoder:
    def test_hash_values_in_range(self):
        encoder = UniversalHashEncoder(k=16, num_buckets=1000, rng=0)
        hashed = encoder.hash_values(np.arange(50))
        assert hashed.shape == (50, 16)
        assert hashed.min() >= 0
        assert hashed.max() < 1000

    def test_deterministic_per_input(self):
        encoder = UniversalHashEncoder(k=8, rng=0)
        a = encoder.hash_values(np.array([42]))
        b = encoder.hash_values(np.array([42]))
        np.testing.assert_array_equal(a, b)

    def test_different_inputs_differ(self):
        encoder = UniversalHashEncoder(k=32, rng=0)
        a = encoder.hash_values(np.array([1]))
        b = encoder.hash_values(np.array([2]))
        assert (a != b).any()

    def test_encode_range(self):
        encoder = UniversalHashEncoder(k=8, num_buckets=100, rng=0)
        encoded = encoder.encode(np.arange(20))
        assert encoded.min() >= -1.0
        assert encoded.max() <= 1.0

    @given(st.integers(0, 2**31))
    @settings(max_examples=30)
    def test_matches_formula(self, x):
        encoder = UniversalHashEncoder(k=4, num_buckets=1000, rng=7)
        hashed = encoder.hash_values(np.array([x]))[0]
        for j in range(4):
            expected = (int(encoder.a[j]) * x + int(encoder.b[j])) \
                % encoder.prime % 1000
            assert hashed[j] == expected

    def test_collision_rate_near_uniform(self):
        """Universal hashing: collision probability ~ 1/m per pair."""
        m = 10_000
        encoder = UniversalHashEncoder(k=1, num_buckets=m, rng=3)
        values = encoder.hash_values(np.arange(2000))[:, 0]
        _, counts = np.unique(values, return_counts=True)
        collisions = (counts * (counts - 1) // 2).sum()
        pairs = 2000 * 1999 / 2
        assert collisions / pairs < 5.0 / m

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            UniversalHashEncoder(k=0)
        with pytest.raises(ValueError):
            UniversalHashEncoder(k=4, num_buckets=1)
        with pytest.raises(ValueError):
            UniversalHashEncoder(k=4, num_buckets=100, prime=50)


class TestDHEEmbedding:
    def test_deterministic_per_index(self):
        dhe = DHEEmbedding(100, 8, k=16, fc_sizes=(16,), rng=0)
        out = dhe.generate(np.array([7, 7, 3]))
        np.testing.assert_allclose(out[0], out[1])
        assert not np.allclose(out[0], out[2])

    def test_shape_out_dim_validated(self):
        with pytest.raises(ValueError):
            DHEEmbedding(10, 8, shape=DheShape(k=16, fc_sizes=(8,),
                                               out_dim=4))

    def test_multi_dim_indices(self):
        dhe = DHEEmbedding(100, 8, k=16, fc_sizes=(16,), rng=0)
        assert dhe.generate(np.zeros((3, 4), dtype=int)).shape == (3, 4, 8)

    def test_trainable_to_match_target_table(self, rng):
        """DHE can be fit to reproduce a small table — the mechanism behind
        the paper's accuracy-parity results."""
        from repro.nn.losses import mse
        from repro.nn.optim import Adam

        target = rng.normal(size=(20, 4))
        dhe = DHEEmbedding(20, 4, k=32, fc_sizes=(64,), rng=1)
        opt = Adam(dhe.parameters(), lr=0.01)
        indices = np.arange(20)
        for _ in range(300):
            opt.zero_grad()
            loss = mse(dhe(indices), target)
            loss.backward()
            opt.step()
        assert loss.item() < 0.01

    def test_materialize_table_matches_forward(self):
        dhe = DHEEmbedding(30, 4, k=8, fc_sizes=(8,), rng=0)
        table = dhe.materialize_table(batch_size=7)
        np.testing.assert_allclose(table, dhe.generate(np.arange(30)),
                                   atol=1e-12)

    def test_varied_constructor_scales_k(self):
        uniform = DheShape(k=1024, fc_sizes=(512, 256), out_dim=16)
        small = DHEEmbedding.varied(1000, 16, uniform, rng=0)
        big = DHEEmbedding.varied(10**7, 16, uniform, rng=0)
        assert small.shape.k < big.shape.k
        assert big.shape.k == 1024

    def test_footprint_matches_parameter_count(self):
        dhe = DHEEmbedding(100, 8, k=16, fc_sizes=(16,), rng=0)
        assert dhe.footprint_bytes() >= dhe.shape.parameter_count() * 4

    def test_hash_encoding_is_batch_uniform(self):
        """Encoding cost/shape depends only on batch size, never on values —
        the structural property behind DHE's obliviousness."""
        dhe = DHEEmbedding(1000, 8, k=16, fc_sizes=(16,), rng=0)
        a = dhe.encoder.encode(np.array([0, 1, 2]))
        b = dhe.encoder.encode(np.array([999, 500, 123]))
        assert a.shape == b.shape


class TestLimbHash:
    """The uint64-limb hash equals the Python-int formula everywhere."""

    @given(a=st.lists(st.integers(1, P - 1), min_size=1, max_size=4),
           b=st.integers(0, P - 1),
           x=st.lists(st.integers(0, U64_MAX), max_size=5),
           m=st.integers(2, P - 1))
    @example(a=[P - 1, 1, (1 << 32) - 1, 1 << 32], b=P - 1,
             x=[0, 1, (1 << 32) - 1, 1 << 32, P - 1], m=1_000_000)
    @example(a=[P - 1], b=0, x=[P, 1 << 63, U64_MAX], m=P - 1)
    @example(a=[(1 << 61) - 2, 1 << 60], b=P - 2, x=[P + 1, (1 << 61) - 2],
             m=2)
    @settings(max_examples=300, deadline=None)
    def test_equals_python_int_reference(self, a, b, x, m):
        encoder = UniversalHashEncoder(len(a), num_buckets=m, rng=0)
        encoder.a = np.array(a, dtype=np.uint64)
        encoder.b = np.full(len(a), b, dtype=np.uint64)
        hashed = encoder.hash_values(np.array(x, dtype=np.uint64))
        assert hashed.dtype == np.int64 and hashed.shape == (len(x), len(a))
        expected = [[(aj * xi + b) % P % m for aj in a] for xi in x]
        assert hashed.tolist() == expected

    def test_other_primes_are_refused(self):
        with pytest.raises(ValueError, match="2\\^61 - 1"):
            UniversalHashEncoder(k=4, num_buckets=100, prime=(1 << 31) - 1)


class TestIndexValidation:
    """A float or negative id is an error, never a silently wrong row."""

    @pytest.mark.parametrize("indices", [np.array([1.7]), [1.7], [True],
                                         [2.9], 1.5, [True, 2], [[True, 2]]])
    def test_non_integer_indices_raise(self, indices):
        dhe = DHEEmbedding(10, 4, k=8, fc_sizes=(8,), rng=0).eval()
        table = np.arange(40.0).reshape(10, 4)
        lookups = {
            "dhe": dhe.generate,
            "hash": dhe.encoder.hash_values,
            "scan-vectorized": lambda ids: linear_scan_batch_vectorized(
                table, ids),
            "scan-traced": lambda ids: LinearScanEmbedding(
                10, 4, weight=table).generate_traced(ids, MemoryTracer()),
            "scan-lookup": lambda ids: linear_scan_lookup(
                TracedArray(table, "t"), ids),
        }
        for lookup in lookups.values():
            with pytest.raises(TypeError, match="integers"):
                lookup(indices)

    @pytest.mark.parametrize("indices", [np.array([-1]), [-1], [3, -2]])
    def test_negative_hash_indices_raise(self, indices):
        encoder = UniversalHashEncoder(k=4, rng=0)
        with pytest.raises(ValueError, match="non-negative"):
            encoder.hash_values(indices)

    def test_empty_index_lists_are_accepted(self):
        dhe = DHEEmbedding(10, 4, k=8, fc_sizes=(8,), rng=0).eval()
        assert dhe.generate([]).shape == (0, 4)
        assert dhe.encoder.hash_values([]).shape == (0, 8)


class TestEvalPath:
    """Eval mode runs on ndarrays and wraps one graph-free Tensor."""

    def test_eval_forward_is_byte_equal_and_graph_free(self):
        dhe = DHEEmbedding(50, 8, k=16, fc_sizes=(32, 16), rng=3)
        ids = np.array([[0, 49, 7], [7, 3, 3]])
        trained = dhe(ids)
        assert trained._parents
        served = dhe.eval()(ids)
        assert not served._parents
        assert served.shape == (2, 3, 8)
        assert served.data.tobytes() == trained.data.tobytes()

    def test_scan_eval_forward_is_byte_equal_and_graph_free(self):
        scan = LinearScanEmbedding(50, 8, rng=5)
        ids = np.array([[0, 49, 7, 7], [3, 3, 12, 0]])
        trained = scan(ids)
        assert trained._parents
        served = scan.eval()(ids)
        assert not served._parents
        assert served.shape == (2, 4, 8)
        assert served.data.tobytes() == trained.data.tobytes()

    def test_materialize_table_is_mode_independent(self):
        dhe = DHEEmbedding(30, 4, k=8, fc_sizes=(8,), rng=0)
        trained = dhe.materialize_table(batch_size=7)
        assert trained.tobytes() == dhe.eval().materialize_table().tobytes()
        assert trained.tobytes() == dhe.generate(np.arange(30)).tobytes()
