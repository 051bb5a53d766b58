"""Directional experiment shapes: distractor sweeps, strategy comparison,
conditioning rescue, and attention hit rate."""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np

from .conditioning import PrefixTable, plain_entries, split_rule_based
from .corpus import Utterance
from .decoding import DecodeConfig, DecodeResult, beam_search
from .fst import FusionScorer, check_strategy, compile_context
from .metrics import WerReport, corpus_wer
from .model import AudioCache, Recognizer, embed_phrases
from .tensor import substream
from .vocab import BIAS_END


def prepare_audio(model: Recognizer, utts: list[Utterance]) -> AudioCache:
    """Encode every utterance once: one cache over their stacked frames, one
    `closed` row per utterance in order, reusable across decodes of the same
    model.

    One `encode_audio` call runs the encoder over every utterance, longest
    first, and one `precompute_audio` call projects every frame, so each
    head's keys and values are one GEMM. An utterance's last bits can so
    depend on which utterances were encoded with it, as BLAS may round a
    product over more rows differently. Each utterance's features are read
    by `Recognizer.read_features`, so a bad feature file raises ValueError
    naming the utterance and its file."""
    xs = [model.read_features(u) for u in utts]
    return model.precompute_audio(model.encode_audio(xs), [len(x) for x in xs])


# The most consecutive utterances `decode_corpus` takes at a time; those of
# them that share one embedded list, prefix table and fusion scorer are
# decoded as one beam.
GROUP_UTTS = 16


def decode_corpus(
    model: Recognizer,
    utts: list[Utterance],
    cfg: DecodeConfig,
    fusion_per_utt=None,
    phrases_fn=None,
    entries_fn=None,
    audio: AudioCache | None = None,
) -> list[DecodeResult]:
    """Top-1 decode of a set. `phrases_fn(utt)` overrides the manifest bias
    list, which is decoded as `plain_entries`; `entries_fn(utt)` switches on
    conditioning, and its phrases are the ones embedded, so `phrases_fn` is
    then not called; `fusion_per_utt(utt)` gives a per-utterance fusion
    scorer. The callbacks are called once per utterance, in that order:
    entries or phrases, then fusion. Each distinct phrase list is embedded,
    and each distinct prefix list compiled into a `PrefixTable`, once per
    call.

    The utterances are taken `GROUP_UTTS` at a time; within those, the ones
    whose embedded list, prefix table and scorer are the same objects are
    decoded as one `beam_search` group, after every callback of the chunk
    has run, on the group's rows of `audio` (`AudioCache.take`), the cache
    of every utterance in order; without it `prepare_audio` encodes them in
    one pass. An utterance's last bits can depend on its group and on the
    utterances encoded with it (see `decoding`)."""
    if not utts:
        return []
    if audio is None:
        audio = prepare_audio(model, utts)
    if len(audio.closed) != len(utts):
        raise ValueError(f"audio of {len(audio.closed)} utterances for {len(utts)} utterances")
    embed = functools.cache(lambda phrases: embed_phrases(model, list(phrases)))
    compile_table = functools.cache(PrefixTable)
    phrases_of = phrases_fn or (lambda u: u.bias_phrases)
    entries_of = entries_fn or (lambda u: plain_entries(phrases_of(u)))
    fusion_of = fusion_per_utt or (lambda u: None)
    out: list[DecodeResult] = [None] * len(utts)
    for at in range(0, len(utts), GROUP_UTTS):
        # (embedded list, table, scorer) by their identities -> the utterances that share them
        groups: dict[tuple[int, int, int], tuple] = {}
        for i in range(at, min(at + GROUP_UTTS, len(utts))):
            # The prefixes and the phrases of the entries; an empty list has neither.
            prefix_list, phrase_list = tuple(zip(*entries_of(utts[i]))) or ((), ())
            bias = embed(phrase_list)
            prefixes = compile_table(prefix_list)
            fusion = fusion_of(utts[i])
            groups.setdefault((id(bias), id(prefixes), id(fusion)), (bias, prefixes, fusion, []))[3].append(i)
        for bias, prefixes, fusion, members in groups.values():
            n_best = beam_search(model, audio.take(members), bias, cfg, fusion=fusion, prefixes=prefixes)
            for i, results in zip(members, n_best):
                out[i] = results[0]
    return out


def per_bias_list(fn):
    """`utt -> fn(utt.bias_phrases)`, called once per distinct phrase list."""
    once = functools.cache(lambda phrases: fn(list(phrases)))
    return lambda u: once(tuple(u.bias_phrases))


def eval_wer(results: list[DecodeResult], utts: list[Utterance]) -> WerReport:
    if len(results) != len(utts):
        raise ValueError(f"{len(results)} results for {len(utts)} utterances")
    return corpus_wer([(r.text, u.transcript) for r, u in zip(results, utts)])


# ---------------------------------------------------------------------------


def check_distractor_counts(counts) -> None:
    """Raise ValueError unless `counts` holds one or more counts >= 0."""
    if not counts or min(counts) < 0:
        raise ValueError(f"[distractors] counts needs one or more counts >= 0, got {list(counts)}")


def check_strategy_grid(strategies, lams) -> None:
    """Raise ValueError if `strategies` or `lams` is empty, names a strategy
    outside STRATEGIES or holds a lambda that DecodeConfig rejects."""
    for key, values in (("strategies", strategies), ("lams", lams)):
        if not values:
            raise ValueError(f"[strategies] {key} is empty")
    for strategy in strategies:
        check_strategy(strategy)
    for lam in lams:
        DecodeConfig(lam=lam)


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
    any decode if `counts` is empty or has a negative count, or if an
    utterance has no bias list."""
    check_distractor_counts(counts)
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
) -> float:
    """Share of utterances whose true phrase dominates bias attention at the
    first `</bias>`-emission step of the decoded hypothesis: its weight there
    is above 0.5."""
    results = decode_corpus(model, utts, cfg)
    hits, total = 0, 0
    for u, r in zip(utts, results):
        total += 1
        steps = [i for i, s in enumerate(r.raw_symbols) if s == BIAS_END]
        if not steps or r.alphas.shape[1] < 2:
            continue
        if r.alphas[steps[0], 1] > 0.5:  # column 1 = manifest's true phrase
            hits += 1
    return hits / total if total else 0.0


# ---------------------------------------------------------------------------


def strategy_comparison(
    model: Recognizer,
    utts: list[Utterance],
    strategies: list[str],
    lams: list[float],
    cfg: DecodeConfig,
) -> dict[str, tuple[float, float]]:
    """Per strategy, the best (lambda, WER) over the grid, fusing each
    utterance's own bias list over the plain model. Raises ValueError before
    any decode for a grid `check_strategy_grid` rejects. Every strategy
    compiles each distinct list once, before any decode, at bonus 1: every
    strategy's weights are linear in the bonus, so `lams` alone sets the
    scale."""
    check_strategy_grid(strategies, lams)
    alphabet = model.vocab.graphemes

    def fusion(strat: str):
        return per_bias_list(lambda phrases: FusionScorer(compile_context(phrases, alphabet, strat, 1.0)))

    fusions = {strat: fusion(strat) for strat in strategies}
    for per_utt in fusions.values():
        for u in utts:
            per_utt(u)  # compiles each list now, so a bad one fails before any decode
    audio = prepare_audio(model, utts)

    def wer(lam: float, per_utt) -> float:
        results = decode_corpus(model, utts, replace(cfg, lam=lam), audio=audio, fusion_per_utt=per_utt)
        return eval_wer(results, utts).wer

    # on equal WERs, min keeps the lambda that comes first in `lams`
    return {
        strat: min(((lam, wer(lam, per_utt)) for lam in lams), key=lambda row: row[1])
        for strat, per_utt in fusions.items()
    }


def conditioning_comparison(
    model: Recognizer,
    utts: list[Utterance],
    cfg: DecodeConfig,
) -> dict[str, float]:
    """Unconditioned vs rule-based-conditioned WER on a talk-to set."""
    audio = prepare_audio(model, utts)
    plain = decode_corpus(model, utts, cfg, audio=audio)
    conditioned = decode_corpus(model, utts, cfg, entries_fn=per_bias_list(split_rule_based), audio=audio)
    return {
        "unconditioned": eval_wer(plain, utts).wer,
        "conditioned": eval_wer(conditioned, utts).wer,
    }
