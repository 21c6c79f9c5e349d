"""Embedding table trained *inside* a tree ORAM (online updates).

The inference-only ORAM generators in :mod:`repro.embedding.oram_embedding`
assume the table is trained elsewhere and loaded. Online training breaks
that split: every step reads a batch of rows *and* writes their updated
values back, and the write pattern leaks the same secret indices the read
pattern does. :class:`OnlineOramEmbedding` closes the loop by routing both
directions through the batched lookahead path
(:mod:`repro.oram.lookahead`):

* ``forward(indices)`` serves the whole batch with one
  ``access_batch`` call (one shared fetch per unique path, one batched
  position-map pass) and, in training mode, remembers the output tensor so
  the row gradients can be recovered after ``backward()``;
* ``apply_gradients(lr)`` re-issues the *same slot list* as the forward
  batch with per-slot ``update_fn``\\ s fused into the lookahead batch: the
  first occurrence of each id applies the full accumulated row gradient,
  duplicate occurrences apply the identity. The write batch is therefore
  trace-shaped exactly like the read batch — gradient multiplicity (how
  often an id repeats, i.e. how popular a row is) never surfaces.

The batcher's lookahead hook feeds :meth:`announce`, letting the table
plan/verify the exact id sequence a formed serving batch will request.
"""

from __future__ import annotations

from typing import Optional, Type

import numpy as np

from repro.embedding.oram_embedding import _OramEmbeddingBase
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.oram.controller import OramController
from repro.oram.path_oram import PathORAM
from repro.utils.rng import SeedLike, new_rng
from repro.utils.validation import check_positive


class OnlineOramEmbedding(_OramEmbeddingBase):
    """Trainable embedding table whose rows live in a tree ORAM."""

    technique = "oram-online"

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 oram_class: Type[OramController] = PathORAM,
                 weight: Optional[np.ndarray] = None,
                 rng: SeedLike = None,
                 batched: bool = True,
                 **oram_kwargs) -> None:
        # The weight draw comes first: the ORAM is then built from the
        # same generator, so one seed fixes both.
        generator = new_rng(rng)
        if weight is None:
            weight = generator.normal(0.0, 0.1,
                                      size=(num_embeddings, embedding_dim))
        self.oram_class = oram_class
        # Batched fetches transiently hold a whole batch's union of paths;
        # a table-sized persistent stash bound keeps small training tables
        # out of StashOverflowError territory.
        super().__init__(num_embeddings, embedding_dim, weight=weight,
                         rng=generator, stash_capacity=num_embeddings,
                         **oram_kwargs)
        self.batched = batched
        if not batched:
            # Instance attribute shadows the class flag: access_batch takes
            # the value-identical sequential fallback. This is the baseline
            # arm of the batched-vs-sequential parity and amortization
            # measurements.
            self.oram.SUPPORTS_LOOKAHEAD = False
        #: (flat ids, forward output) of the batch awaiting its gradient
        self._pending: Optional[tuple] = None
        #: ids announced by the batcher's lookahead hook, not yet served
        self._announced: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Serving-batcher lookahead contract
    # ------------------------------------------------------------------
    def announce(self, block_ids) -> None:
        """Register the id sequence the next forward batch will request.

        This is the consumer end of
        :class:`~repro.serving.batcher.DynamicBatcher`'s ``lookahead``
        hook: the batcher hands over each formed batch's ids before
        dispatch, and the next :meth:`forward` must match them exactly.
        """
        block_ids = np.asarray(block_ids, dtype=np.int64).reshape(-1)
        self._check_indices(block_ids)
        if block_ids.size == 0:
            # Zero ids announced (an empty batch window) is a no-op:
            # registering an empty expectation would wrongly reject the
            # next real forward batch.
            return
        self._announced = block_ids

    def _consume_announcement(self, flat: np.ndarray) -> None:
        if self._announced is None:
            return
        announced, self._announced = self._announced, None
        if not np.array_equal(announced, flat):
            raise ValueError(
                f"forward batch ids do not match the announced lookahead "
                f"batch ({flat.tolist()} vs {announced.tolist()})")

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def forward(self, indices) -> Tensor:
        indices = self._check_indices(indices)
        flat = indices.reshape(-1)
        self._consume_announcement(flat)
        if flat.size:
            rows = self.oram.access_batch([int(v) for v in flat])
        else:
            rows = np.zeros((0, self.embedding_dim))
        out = Tensor(rows.reshape(*indices.shape, self.embedding_dim),
                     requires_grad=self.training and is_grad_enabled())
        if out.requires_grad:
            self._pending = (flat.copy(), out)
        return out

    def apply_gradients(self, lr: float) -> float:
        """One SGD step on the rows touched by the last forward batch.

        The write batch reuses the forward batch's slot list verbatim:
        the first occurrence of each id subtracts ``lr`` times the row's
        *accumulated* gradient (duplicates are summed, matching dense
        scatter-add semantics); later occurrences apply the identity.
        Either way every slot costs exactly one fused lookahead access,
        so the write trace is independent of index multiplicity.

        Returns the L2 norm of the accumulated row gradients.
        """
        check_positive("lr", lr)
        if self._pending is None:
            raise RuntimeError(
                "no pending forward batch — run a training-mode forward "
                "(and backward) before apply_gradients()")
        flat, out = self._pending
        self._pending = None
        if out.grad is None:
            raise RuntimeError(
                "forward output has no gradient — call backward() on the "
                "loss before apply_gradients()")
        grads = np.asarray(out.grad,
                           dtype=np.float64).reshape(-1, self.embedding_dim)
        totals: dict = {}
        first_slot: dict = {}
        for slot, block_id in enumerate(flat):
            bid = int(block_id)
            if bid in totals:
                totals[bid] = totals[bid] + grads[slot]
            else:
                totals[bid] = grads[slot].copy()
                first_slot[bid] = slot
        update_fns = []
        for slot, block_id in enumerate(flat):
            bid = int(block_id)
            if first_slot[bid] == slot:
                update_fns.append(
                    lambda row, total=totals[bid]: row - lr * total)
            else:
                update_fns.append(lambda row: row)
        self.oram.access_batch([int(v) for v in flat],
                               update_fns=update_fns)
        return float(np.sqrt(sum(float(np.sum(total * total))
                                 for total in totals.values())))

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def dump_weights(self) -> np.ndarray:
        """Read the full table back out (test/checkpoint convenience).

        Each row read is a real ORAM access, so this perturbs leaves and
        stash state — fine for parity checks and checkpoints, not for use
        mid-trace-audit.
        """
        return np.stack([self.oram.read(row)
                         for row in range(self.num_embeddings)])
