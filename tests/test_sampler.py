import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxseq.sampler import (
    SamplerConfig,
    annotate_reference,
    draw_phrases,
    insert_bias_tokens,
    sample_bias_list,
)
from ctxseq.tensor import substream
from ctxseq.vocab import BIAS_END, render

from oracles import brute_force_annotation

REFS = [
    "play a song",
    "call b mobile",
    "talk to c",
    "a b c d e",
]


class TestSampleBiasList:
    def test_p_keep_zero_gives_empty_list(self):
        rng = np.random.default_rng(0)
        assert sample_bias_list(REFS * 8, SamplerConfig(p_keep=0.0), rng) == []

    def test_p_keep_one_unigram_per_reference(self):
        cfg = SamplerConfig(p_keep=1.0, n_phrases=1, n_order=1)
        rng = np.random.default_rng(1)
        raw = draw_phrases(REFS, cfg, rng)
        assert len(raw) == len(REFS)
        for phrase, ref in zip(raw, REFS):
            assert phrase in ref.split()

    def test_mean_prededup_count_shard32(self):
        cfg = SamplerConfig(p_keep=0.5, n_phrases=1, n_order=4)
        rng = substream(7, "sampler-stats")
        refs = (REFS * 8)[:32]
        sizes = [len(draw_phrases(refs, cfg, rng)) for _ in range(10_000)]
        assert abs(np.mean(sizes) - 16.0) <= 0.5

    def test_keep_rate(self):
        cfg = SamplerConfig(p_keep=0.5, n_phrases=1, n_order=1)
        rng = substream(3, "keep-rate")
        refs = (REFS * 8)[:32]
        total = sum(len(draw_phrases(refs, cfg, rng)) for _ in range(10_000))
        assert abs(total / (32 * 10_000) - 0.5) <= 0.01

    def test_empty_reference_gives_no_phrase(self):
        cfg = SamplerConfig(p_keep=1.0, n_phrases=3, n_order=2)
        assert draw_phrases(["", "  "], cfg, np.random.default_rng(0)) == []

    def test_ngram_order_clamped_to_reference(self):
        cfg = SamplerConfig(p_keep=1.0, n_phrases=3, n_order=4)
        rng = np.random.default_rng(2)
        for phrase in draw_phrases(["a b"], cfg, rng):
            assert phrase in ("a", "b", "a b")

    def test_reproducible_bit_for_bit(self):
        cfg = SamplerConfig()
        a = sample_bias_list(REFS, cfg, substream(5, "s"))
        b = sample_bias_list(REFS, cfg, substream(5, "s"))
        assert a == b

    def test_dedup_across_batch(self):
        cfg = SamplerConfig(p_keep=1.0, n_phrases=1, n_order=1)
        rng = np.random.default_rng(4)
        out = sample_bias_list(["a a a a", "a a"], cfg, rng)
        assert out == ["a"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(p_keep=1.5)
        with pytest.raises(ValueError):
            SamplerConfig(n_phrases=0)


class TestInsertBiasTokens:
    def test_worked_example(self):
        tokens = insert_bias_tokens("play a song.", ["play"])
        assert render(tokens, keep_bias=True) == "play</bias> a song."

    def test_no_phrases_unchanged(self):
        tokens = insert_bias_tokens("play a song.", [])
        assert render(tokens, keep_bias=True) == "play a song."
        assert render(tokens) == "play a song."

    def test_longest_match_first(self):
        tokens = insert_bias_tokens("a b a b", ["a b", "b"])
        assert render(tokens, keep_bias=True) == "a b</bias> a b</bias>"

    def test_randomized_against_brute_force(self):
        rng = np.random.default_rng(11)
        vocab = ["a", "b", "c", "ab"]
        for _ in range(1000):
            words = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(1, 9))]
            phrases = set()
            for _ in range(rng.integers(0, 4)):
                n = int(rng.integers(1, 4))
                if n <= len(words):
                    start = int(rng.integers(0, len(words) - n + 1))
                    phrases.add(" ".join(words[start : start + n]))
            if rng.random() < 0.5:
                phrases.add("zz")  # phrase with no occurrence
            spans = annotate_reference(" ".join(words), sorted(phrases))
            assert spans == brute_force_annotation(words, sorted(phrases))

    @given(
        st.lists(st.sampled_from(["a", "b", "ab", "ba"]), min_size=1, max_size=8),
        st.sets(st.sampled_from(["a", "b", "ab", "a b", "b a", "ab b"]), max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_invariants(self, words, phrases):
        ref = " ".join(words)
        tokens = insert_bias_tokens(ref, sorted(phrases))
        # removing </bias> recovers the reference exactly
        assert render([t for t in tokens if t != BIAS_END]) == ref
        # every </bias> is preceded by a word-aligned occurrence of some phrase
        text = render(tokens, keep_bias=True)
        for chunk in text.split(BIAS_END)[:-1]:
            tail_words = chunk.split()
            assert any(
                tail_words[-len(p.split()) :] == p.split() for p in phrases if p
            ), f"no phrase ends at {chunk!r}"
