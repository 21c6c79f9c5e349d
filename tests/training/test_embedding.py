"""OnlineOramEmbedding: forward, oblivious gradient write-back, announce."""

import numpy as np
import pytest

from repro.nn.losses import bce_with_logits
from repro.nn.tensor import Tensor, no_grad
from repro.oram import CircuitORAM, PathORAM
from repro.training import OnlineOramEmbedding

N, DIM = 32, 4


def make_table(oram_class=PathORAM, seed=0, weight=None, **kwargs):
    return OnlineOramEmbedding(N, DIM, oram_class=oram_class,
                               weight=weight, rng=seed, **kwargs)


def fixed_weight():
    return np.arange(N * DIM, dtype=np.float64).reshape(N, DIM)


class TestForward:
    def test_rows_match_the_table(self):
        table = make_table(weight=fixed_weight())
        out = table(np.array([3, 7, 3]))
        np.testing.assert_array_equal(out.data, fixed_weight()[[3, 7, 3]])

    def test_multidim_indices_keep_shape(self):
        table = make_table(weight=fixed_weight())
        out = table(np.array([[1, 2], [3, 4]]))
        assert out.data.shape == (2, 2, DIM)

    def test_default_weight_is_seeded_normal(self):
        a = make_table(seed=5)
        b = make_table(seed=5)
        np.testing.assert_array_equal(a.dump_weights(), b.dump_weights())

    def test_eval_mode_forward_requires_no_grad(self):
        table = make_table()
        table.eval()
        out = table(np.array([1, 2]))
        assert not out.requires_grad
        assert table._pending is None

    def test_no_grad_forward_requires_no_grad(self):
        table = make_table()
        table.train()
        with no_grad():
            out = table(np.array([1, 2]))
        assert not out.requires_grad


class TestGradientWriteback:
    def test_sgd_step_matches_dense_reference(self):
        lr = 0.1
        indices = np.array([3, 7, 3, 0])   # duplicate on purpose
        table = make_table(weight=fixed_weight())
        table.train()
        out = table(indices)
        grad = np.ones((4, DIM))
        (out * Tensor(grad)).sum().backward()
        table.apply_gradients(lr)

        # Dense reference: scatter-add of the row gradients, one step.
        expected = fixed_weight()
        for row, g in zip(indices, grad):
            expected[row] -= lr * g
        np.testing.assert_allclose(table.dump_weights(), expected)

    def test_duplicate_gradients_accumulate(self):
        lr = 0.5
        table = make_table(weight=fixed_weight())
        table.train()
        out = table(np.array([9, 9, 9]))
        (out.sum()).backward()   # d/drow = 1 per occurrence
        table.apply_gradients(lr)
        np.testing.assert_allclose(table.dump_weights()[9],
                                   fixed_weight()[9] - lr * 3.0)

    def test_write_batch_uses_same_slot_list_as_forward(self):
        table = make_table(weight=fixed_weight())
        table.train()
        indices = np.array([5, 5, 11, 5])
        out = table(indices)
        accesses_after_forward = table.oram.stats.accesses
        out.sum().backward()
        table.apply_gradients(0.1)
        # The gradient write-back is one batch of exactly the forward's
        # size — multiplicity never changes the access count.
        assert (table.oram.stats.accesses
                == accesses_after_forward + len(indices))

    def test_returns_gradient_norm(self):
        table = make_table(weight=fixed_weight())
        table.train()
        out = table(np.array([2, 4]))
        out.sum().backward()
        norm = table.apply_gradients(0.1)
        assert norm == pytest.approx(np.sqrt(2 * DIM))

    def test_without_backward_raises(self):
        table = make_table()
        table.train()
        table(np.array([1]))
        with pytest.raises(RuntimeError, match="backward"):
            table.apply_gradients(0.1)

    def test_without_forward_raises(self):
        table = make_table()
        with pytest.raises(RuntimeError, match="forward"):
            table.apply_gradients(0.1)

    def test_grads_flow_through_a_real_loss(self):
        before = fixed_weight()
        table = make_table(weight=fixed_weight())
        table.train()
        out = table(np.array([1, 2, 3]))
        loss = bce_with_logits(out.sum(axis=1), np.array([1.0, 0.0, 1.0]))
        loss.backward()
        table.apply_gradients(0.5)
        after = table.dump_weights()
        # Touched rows moved, untouched rows are bit-identical.
        assert not np.array_equal(before[[1, 2, 3]], after[[1, 2, 3]])
        np.testing.assert_array_equal(np.delete(before, [1, 2, 3], axis=0),
                                      np.delete(after, [1, 2, 3], axis=0))


class TestBatchedSequentialParity:
    @pytest.mark.parametrize("oram_class", [PathORAM, CircuitORAM])
    def test_training_step_parity(self, oram_class):
        indices = np.array([3, 7, 3, 0, 31])
        tables = {}
        for batched in (True, False):
            table = make_table(oram_class, weight=fixed_weight(),
                               batched=batched)
            table.train()
            out = table(indices)
            out.sum().backward()
            table.apply_gradients(0.2)
            tables[batched] = table.dump_weights()
        np.testing.assert_array_equal(tables[True], tables[False])


class TestAnnounce:
    def test_matching_announcement_is_consumed(self):
        table = make_table()
        table.announce(np.array([1, 2, 3]))
        table(np.array([1, 2, 3]))
        assert table._announced is None

    def test_mismatched_announcement_raises(self):
        table = make_table()
        table.announce(np.array([1, 2, 3]))
        with pytest.raises(ValueError, match="announced"):
            table(np.array([1, 2, 4]))

    def test_out_of_range_announcement_rejected(self):
        table = make_table()
        with pytest.raises(IndexError):
            table.announce(np.array([N]))


class TestCostModel:
    @pytest.mark.parametrize("oram_class,scheme", [
        (PathORAM, "path"), (CircuitORAM, "circuit")])
    def test_scheme_mapping(self, oram_class, scheme):
        table = make_table(oram_class)
        assert table.scheme == scheme
        assert table.footprint_bytes() > 0
        assert table.modelled_latency(batch=16) > 0
        assert table.is_oblivious
        assert table.technique == "oram-online"
