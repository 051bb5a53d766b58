"""Acceptance criteria, one test per criterion, one PASS/FAIL line printed each.

Criteria 1-5 check the library's contracts against independent oracles:
gradients, the attention contract, sampler statistics, bias-token
augmentation and fusion scoring. None of them trains a model.
"""

import itertools
import sys
import time

import numpy as np

from ctxseq import tensor as T
from ctxseq.fst import BEGINNING_OF_WORD, END_OF_WORD, EVERY_SUBWORD, FusionScorer, compile_context
from ctxseq.model import ModelConfig, Recognizer, embed_phrases
from ctxseq.sampler import SamplerConfig, annotate_reference, draw_phrases, insert_bias_tokens
from ctxseq.tensor import substream
from ctxseq.vocab import SPACE, Vocabulary, graphemize

from oracles import brute_force_annotation, finite_difference, full_alpha, max_rel_err
from test_fst import ADVERSARIAL_PHRASE_SETS, check_oracle_equivalence


def report(n: int, ok: bool, desc: str, detail: str = "") -> None:
    line = f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f"  ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


# -- 1 -----------------------------------------------------------------------


def test_criterion_01_gradient_fidelity():
    start = time.time()
    cfg = ModelConfig(
        feature_dim=3,
        encoder_layers=1,
        encoder_units=2,
        decoder_layers=1,
        decoder_units=2,
        attention_dim=2,
        attention_heads=1,
        bias_encoder_units=2,
        embedding_dim=2,
    )
    model = Recognizer(cfg, Vocabulary.from_alphabet("ab"), seed=1)
    assert model.param_count() <= 500
    x = np.random.default_rng(0).normal(size=(2, 3))
    phrases = ["a", "b a"]
    target = [model.vocab.index(t) for t in graphemize("ab") + ["</bias>"]] + [model.vocab.eos]

    def forward():
        return model.forward_loss([x], embed_phrases(model, phrases), [target])

    with T.Tape() as tape:
        tape.backward(forward())
    fd = finite_difference(lambda: float(forward().data), model.params)
    worst = max(max_rel_err(t.grad, fd[name], floor=1e-4) for name, t in model.params.items())
    elapsed = time.time() - start
    report(
        1,
        worst < 1e-4 and elapsed < 60,
        "full-model gradients match central finite differences (rel err < 1e-4)",
        f"worst {worst:.2e} over {model.param_count()} params in {elapsed:.1f}s",
    )


# -- 2 -----------------------------------------------------------------------


def test_criterion_02_attention_contract():
    cfg = ModelConfig(
        feature_dim=4,
        encoder_layers=1,
        encoder_units=4,
        decoder_layers=1,
        decoder_units=4,
        attention_dim=4,
        attention_heads=1,
        bias_encoder_units=4,
        embedding_dim=2,
    )
    model = Recognizer(cfg, Vocabulary.from_alphabet("ab"), seed=2)
    rng = substream(2, "acceptance/attention")
    worst_sum = 0.0
    masked_leak = 0.0
    for _ in range(1000):
        n = int(rng.integers(0, 7))
        h_z, keys = model.precompute_bias((T.constant(rng.normal(size=(n + 1, 4))), np.arange(n + 1)))
        d = rng.normal(size=(1, 4))
        closed = np.zeros((1, n + 1), dtype=bool)
        for i in range(1, n + 1):
            if rng.random() < 0.4:
                closed[0, i] = True
        _, attention = model.attend_bias(d, h_z, closed, keys)
        alpha = full_alpha(attention, n + 1)
        worst_sum = max(worst_sum, abs(alpha.sum() - 1.0))
        if closed.any():
            masked_leak = max(masked_leak, alpha[closed].max())
    report(
        2,
        worst_sum <= 1e-12 and masked_leak == 0.0,
        "1000 random (d, h_z, mask) triples: alpha sums to 1 +- 1e-12, masked entries exactly 0",
        f"worst sum dev {worst_sum:.1e}, masked leak {masked_leak}",
    )


# -- 3 -----------------------------------------------------------------------


def test_criterion_03_sampler_statistics():
    refs = [
        "play a song",
        "call dd mobile now",
        "talk to ab",
        "the cat sat on a mat",
    ] * 8
    refs = refs[:32]
    cfg = SamplerConfig(p_keep=0.5, n_phrases=1, n_order=4)
    rng = substream(3, "acceptance/sampler")
    mean = np.mean([len(draw_phrases(refs, cfg, rng)) for _ in range(10_000)])
    report(
        3,
        abs(mean - 16.0) <= 0.5,
        "shard 32, p_keep 0.5: mean pre-dedup phrase count over 10k batches = 16 +- 0.5",
        f"mean {mean:.3f}",
    )


# -- 4 -----------------------------------------------------------------------


def test_criterion_04_bias_augmentation():
    worked = "".join(" " if t == SPACE else t for t in insert_bias_tokens("play a song.", ["play"]))
    ok = worked == "play</bias> a song."
    rng = substream(4, "acceptance/augment")
    vocab = ["a", "b", "c", "ab", "ba"]
    mismatches = 0
    for _ in range(1000):
        words = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(1, 9))]
        phrases = set()
        for _ in range(rng.integers(0, 4)):
            n = int(rng.integers(1, 4))
            if n <= len(words):
                start = int(rng.integers(0, len(words) - n + 1))
                phrases.add(" ".join(words[start : start + n]))
        spans = annotate_reference(" ".join(words), sorted(phrases))
        if spans != brute_force_annotation(words, sorted(phrases)):
            mismatches += 1
    report(
        4,
        ok and mismatches == 0,
        "worked example exact; 1000 randomized cases match the brute-force matcher",
        f"example {worked!r}, mismatches {mismatches}",
    )


# -- 5 -----------------------------------------------------------------------


def test_criterion_05_fst_oracle_equivalence():
    start = time.time()
    ab = [SPACE, "a", "b"]
    checked = 0
    failure = None
    # exhaustive strings up to 8 graphemes over a 3-symbol alphabet
    for phrases in ADVERSARIAL_PHRASE_SETS:
        scorers = {
            s: FusionScorer(compile_context(phrases, ab, s, 2.0))
            for s in (END_OF_WORD, BEGINNING_OF_WORD, EVERY_SUBWORD)
        }
        for n in range(9):
            if failure:
                break
            for labels in itertools.product(ab, repeat=n):
                try:
                    check_oracle_equivalence(phrases, labels, scorers=scorers)
                except AssertionError as exc:
                    failure = str(exc)
                    break
                checked += 1
    # randomized phrase sets (<= 5 phrases) over a 6-symbol alphabet
    big = [SPACE] + list("abcde")
    rng = substream(5, "acceptance/fst")
    for _ in range(40):
        n_phr = int(rng.integers(1, 6))
        phrases = sorted(
            {
                " ".join(
                    "".join(rng.choice(big[1:], size=rng.integers(1, 4)))
                    for _ in range(rng.integers(1, 3))
                )
                for _ in range(n_phr)
            }
        )
        scorers = {
            s: FusionScorer(compile_context(phrases, big, s, 2.0))
            for s in (END_OF_WORD, BEGINNING_OF_WORD, EVERY_SUBWORD)
        }
        for _ in range(120):
            labels = [big[i] for i in rng.integers(0, len(big), size=rng.integers(0, 9))]
            try:
                check_oracle_equivalence(phrases, labels, scorers=scorers)
            except AssertionError as exc:
                failure = failure or str(exc)
                break
            checked += 1
    elapsed = time.time() - start
    report(
        5,
        failure is None and elapsed < 300,
        "fusion scores equal the brute-force matcher under all three strategies",
        failure or f"{checked} strings x 3 strategies in {elapsed:.0f}s",
    )
