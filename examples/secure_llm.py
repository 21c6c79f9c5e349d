"""Secure LLM text generation with a DHE token embedding (§IV-D, §VI-D).

Pretrains a small GPT on a synthetic corpus with its usual embedding table,
swaps the input embedding for a DHE stack (keeping the tied output head),
finetunes to recover perplexity, and generates text through the fully
oblivious path: DHE embedding -> transformer -> cmov argmax sampling.

Run:  python examples/secure_llm.py
"""

import numpy as np

from repro.costmodel import DheShape
from repro.data import MarkovCorpusGenerator
from repro.embedding import DHEEmbedding
from repro.models import GPT, evaluate_perplexity, tiny_config, train_gpt

VOCAB, DIM, LAYERS = 96, 32, 2


def main() -> None:
    generator = MarkovCorpusGenerator(vocab_size=VOCAB, branching=6, seed=0)
    corpus = generator.build_corpus(train_length=30_000, val_length=4_000)
    config = tiny_config(vocab_size=VOCAB, embed_dim=DIM, num_layers=LAYERS)

    print("Pretraining the base GPT (table embedding) ...")
    base = GPT(config, rng=1)
    train_gpt(base, corpus.train_tokens, steps=250, batch_size=8,
              seq_len=24, lr=2e-3, rng=0)
    base_ppl = evaluate_perplexity(base, corpus.val_tokens, seq_len=24)
    print(f"  base validation perplexity: {base_ppl:.2f} "
          f"(corpus entropy floor ~{2 ** generator.entropy_rate_bits():.2f})\n")

    print("Swapping the token embedding for DHE and finetuning (Fig 14) ...")
    dhe = DHEEmbedding(VOCAB, DIM,
                       shape=DheShape(k=2 * DIM, fc_sizes=(2 * DIM, 2 * DIM),
                                      out_dim=DIM),
                       rng=2)
    secure = GPT(config, token_embedding=dhe, rng=3)
    secure.load_state_dict(base.state_dict(), strict=False)  # inherit blocks+head
    train_gpt(secure, corpus.train_tokens, steps=450, batch_size=8,
              seq_len=24, lr=1e-3, rng=0)
    secure_ppl = evaluate_perplexity(secure, corpus.val_tokens, seq_len=24)
    print(f"  DHE validation perplexity: {secure_ppl:.2f} "
          f"({100 * (secure_ppl - base_ppl) / base_ppl:+.1f}% vs table; "
          f"paper: +2.7%)\n")

    print("Oblivious generation (prefill + KV-cache decode + cmov argmax):")
    tokenizer = corpus.tokenizer
    prompt_text = tokenizer.decode(corpus.val_tokens[:8])
    prompt = np.array([tokenizer.encode(prompt_text)])
    output = secure.generate(prompt, max_new_tokens=12)
    print(f"  prompt:    {prompt_text}")
    print(f"  generated: {tokenizer.decode(output[0, 8:])}")
    print("\nEvery stage of that generation has an input-independent memory "
          "access pattern: hashing+FC embedding, dense transformer blocks, "
          "and a linear-scan argmax over the logits.")


if __name__ == "__main__":
    main()
