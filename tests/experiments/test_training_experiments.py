"""The training-based experiments (Table V, Fig 14).

Tiny parameter choices verify the mechanisms end-to-end in a few seconds;
Fig 14's "DHE converges near the table model" needs its default size.
"""

import pytest

from repro.experiments import fig14_llm_finetune, table05_accuracy


class TestTable5Small:
    @pytest.fixture(scope="class")
    def result(self):
        return table05_accuracy.run(max_rows=200, steps=120, batch_size=64,
                                    eval_samples=2048, k=32, fc_sizes=(32,))

    def test_all_variants_beat_chance(self, result):
        for accuracy in result.column("accuracy"):
            assert accuracy > 0.65

    def test_parity_between_representations(self, result):
        aucs = result.column("auc")
        assert max(aucs) - min(aucs) < 0.06

    def test_paper_parity_bounds(self, result):
        # Every representation learns well above chance and they match
        # each other (paper: identical to 2 decimals).
        accuracies, aucs = result.column("accuracy"), result.column("auc")
        assert min(accuracies) > 0.7
        assert max(accuracies) - min(accuracies) < 0.04
        assert max(aucs) - min(aucs) < 0.04

    def test_three_rows(self, result):
        assert result.column("representation") == \
            ["Table", "DHE Uniform", "DHE Varied"]


class TestFig14Small:
    def test_dhe_converges_toward_table(self):
        result = fig14_llm_finetune.run(vocab_size=48, embed_dim=16,
                                        num_layers=1, pretrain_steps=60,
                                        finetune_steps=150, eval_every=50,
                                        seq_len=16, batch_size=8)
        table_curve = result.column("table_ppl")
        dhe_curve = result.column("dhe_ppl")
        # DHE improves over finetuning and ends within 40% of the table.
        assert dhe_curve[-1] < dhe_curve[0]
        assert dhe_curve[-1] < 1.4 * table_curve[-1]


class TestFig14:
    def test_dhe_converges_near_the_table_model(self):
        result = fig14_llm_finetune.run()
        table_curve = result.column("table_ppl")
        dhe_curve = result.column("dhe_ppl")
        # Paper: within 2.7%; 15% allowed at this miniature scale.
        assert dhe_curve[-1] < dhe_curve[0]
        assert min(dhe_curve) < 1.15 * min(table_curve)
