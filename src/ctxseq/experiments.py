"""Directional experiment shapes: distractor sweeps, strategy comparison,
conditioning rescue, and attention hit rate."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .conditioning import BiasEntry, PrefixTable, split_rule_based
from .corpus import Utterance
from .decoding import DecodeConfig, DecodeResult, beam_search, embed_phrases
from .fst import FusionScorer, compile_context
from .metrics import WerReport, corpus_wer
from .model import AudioCache, Recognizer
from .tensor import substream
from .vocab import BIAS_END


def prepare_audio(model: Recognizer, utts: list[Utterance]) -> list[AudioCache]:
    """Encode every utterance once; reusable across decodes of the same model."""
    return [model.precompute_audio(model.encode_audio([u.load_features()])) for u in utts]


def decode_corpus(
    model: Recognizer,
    utts: list[Utterance],
    cfg: DecodeConfig,
    fusion_per_utt=None,
    phrases_fn=None,
    entries_fn=None,
    audio: list[AudioCache] | None = None,
) -> list[DecodeResult]:
    """Top-1 decode of a set. `phrases_fn(utt)` overrides the manifest bias
    list; `entries_fn(utt)` switches on conditioning, and its phrases are the
    ones embedded; `fusion_per_utt(utt)` gives a per-utterance fusion scorer.
    Each distinct phrase list is embedded, and each distinct entry list
    compiled into a `PrefixTable`, once per call."""
    if audio is None:
        audio = prepare_audio(model, utts)
    embeddings: dict[tuple[str, ...], tuple] = {}
    tables: dict[tuple[BiasEntry, ...], PrefixTable] = {}
    out = []
    for u, cache in zip(utts, audio):
        entries = entries_fn(u) if entries_fn is not None else None
        phrases = phrases_fn(u) if phrases_fn is not None else list(u.bias_phrases)
        prefixes = None
        if entries is not None:
            phrases = [e.phrase for e in entries]
            prefixes = tables.get(tuple(entries))
            if prefixes is None:
                prefixes = tables[tuple(entries)] = PrefixTable(entries)
        key = tuple(phrases)
        if key not in embeddings:
            embeddings[key] = embed_phrases(model, phrases)
        scorer = fusion_per_utt(u) if fusion_per_utt is not None else None
        out.append(beam_search(model, cache, embeddings[key], cfg, fusion=scorer, prefixes=prefixes)[0])
    return out


def per_bias_list(fn):
    """`utt -> fn(utt.bias_phrases)`, called once per distinct phrase list."""
    cache: dict[tuple[str, ...], object] = {}

    def lookup(u: Utterance):
        key = tuple(u.bias_phrases)
        if key not in cache:
            cache[key] = fn(u.bias_phrases)
        return cache[key]

    return lookup


def eval_wer(results: list[DecodeResult], utts: list[Utterance]) -> WerReport:
    return corpus_wer([(r.text, u.transcript) for r, u in zip(results, utts)])


# ---------------------------------------------------------------------------


def distractor_sweep(
    model: Recognizer,
    utts: list[Utterance],
    pool: list[str],
    counts: list[int],
    cfg: DecodeConfig,
    seed: int = 0,
) -> list[tuple[int, float]]:
    """WER as a function of distractor count; the true phrase (the first of
    each utterance's bias list) is always present. Raises ValueError before
    any decode if an utterance has no bias list."""
    for u in utts:
        if not u.bias_phrases:
            raise ValueError(f"utterance {u.id} has no bias phrase for the distractor sweep")
    if max(counts) > len(pool) - 1:
        raise ValueError(f"distractor pool of {len(pool)} cannot cover N={max(counts)}")
    audio = prepare_audio(model, utts)
    curve = []
    for n in counts:
        rng = substream(seed, f"sweep/distractors/{n}")

        def with_distractors(u: Utterance) -> list[str]:
            true = u.bias_phrases[0]
            others = [p for p in pool if p != true]
            picks = rng.choice(len(others), size=n, replace=False) if n else []
            return [true] + [others[i] for i in picks]

        results = decode_corpus(model, utts, cfg, phrases_fn=with_distractors, audio=audio)
        curve.append((n, eval_wer(results, utts).wer))
    return curve


def trend_spearman(curve: list[tuple[int, float]]) -> float:
    """Spearman rank correlation of WER with N: the Pearson correlation of
    the ranks, ties given their average rank; NaN when a side is constant."""
    ns, wers = zip(*curve)
    rn, rw = _average_ranks(ns), _average_ranks(wers)
    rn -= rn.mean()
    rw -= rw.mean()
    denom = np.sqrt((rn @ rn) * (rw @ rw))
    return float(rn @ rw / denom) if denom else float("nan")


def _average_ranks(values) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    values = np.asarray(values, dtype=np.float64)
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


# ---------------------------------------------------------------------------


def attention_hit_rate(
    model: Recognizer,
    utts: list[Utterance],
    cfg: DecodeConfig,
    threshold: float = 0.5,
) -> float:
    """Share of utterances whose true phrase dominates bias attention at the
    first `</bias>`-emission step of the decoded hypothesis."""
    results = decode_corpus(model, utts, cfg)
    hits, total = 0, 0
    for u, r in zip(utts, results):
        total += 1
        steps = [i for i, s in enumerate(r.raw_symbols) if s == BIAS_END]
        if not steps or r.alphas.shape[1] < 2:
            continue
        if r.alphas[steps[0], 1] > threshold:  # column 1 = manifest's true phrase
            hits += 1
    return hits / total if total else 0.0


# ---------------------------------------------------------------------------


def strategy_comparison(
    model: Recognizer,
    utts: list[Utterance],
    strategies: list[str],
    lams: list[float],
    cfg: DecodeConfig,
    bonus: float = 1.0,
) -> dict[str, tuple[float, float]]:
    """Per strategy, the best (lambda, WER) over the grid, fusing each
    utterance's own bias list over the plain model. Every strategy compiles
    each distinct list once, before any decode."""
    audio = prepare_audio(model, utts)
    lists = {tuple(u.bias_phrases): u.bias_phrases for u in utts}
    compiled = {
        strat: {key: FusionScorer(compile_context(phrases, model.vocab.graphemes, strat, bonus))
                for key, phrases in lists.items()}
        for strat in strategies
    }
    table = {}
    for strat in strategies:
        best = None
        for lam in lams:
            results = decode_corpus(
                model, utts, replace(cfg, lam=lam), audio=audio,
                fusion_per_utt=lambda u, scorers=compiled[strat]: scorers[tuple(u.bias_phrases)],
            )
            wer = eval_wer(results, utts).wer
            if best is None or wer < best[1]:
                best = (lam, wer)
        table[strat] = best
    return table


def conditioning_comparison(
    model: Recognizer,
    utts: list[Utterance],
    cfg: DecodeConfig,
    trigger: str = "talk to",
) -> dict[str, float]:
    """Unconditioned vs rule-based-conditioned WER on a trigger-led set."""
    audio = prepare_audio(model, utts)
    plain = decode_corpus(model, utts, cfg, audio=audio)
    entries_fn = per_bias_list(lambda phrases: split_rule_based(phrases, trigger=trigger))
    conditioned = decode_corpus(model, utts, cfg, entries_fn=entries_fn, audio=audio)
    return {
        "unconditioned": eval_wer(plain, utts).wer,
        "conditioned": eval_wer(conditioned, utts).wer,
    }
