"""How training batches get their phrase lists and `</bias>`-augmented targets.

Run: python demos/02_phrase_sampling.py
"""

import numpy as np

from ctxseq.sampler import SamplerConfig, draw_phrases, insert_bias_tokens, sample_bias_list
from ctxseq.tensor import substream
from ctxseq.vocab import SPACE


def spelled(tokens: list[str]) -> str:
    """A target as text, each `</bias>` kept where it was inserted."""
    return "".join(" " if t == SPACE else t for t in tokens)


batch = [
    "play a song",
    "call dd mobile",
    "talk to ab cd",
    "play the cat sat",
]

rng = substream(0, "demo/sampler")
cfg = SamplerConfig(p_keep=0.5, n_phrases=1, n_order=4)

print("batch transcripts:")
for r in batch:
    print("  ", r)

phrases = sample_bias_list(batch, cfg, rng)
print("\nsampled phrase list (p_keep=0.5, word n-grams up to order 4):", phrases)

print("\naugmented targets (</bias> after every match, longest match wins):")
for r in batch:
    tokens = insert_bias_tokens(r, phrases)
    print(f"  {r!r:28s} -> {spelled(tokens)!r}")

# The worked example: the phrase 'play' marks the transcript right after it.
tokens = insert_bias_tokens("play a song.", ["play"])
print("\nexample:", spelled(tokens))

# Expected list size: with a 32-utterance shard and p_keep=0.5, about 16
# phrases are drawn per batch (17 counting the implicit no-bias slot).
shard = (batch * 8)[:32]
sizes = [len(draw_phrases(shard, cfg, rng)) for _ in range(2000)]
print(f"\nmean pre-dedup phrases over 2000 shards of 32: {np.mean(sizes):.2f} (expect ~16)")
