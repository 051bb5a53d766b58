"""Directional experiment shapes: distractor sweeps, strategy comparison,
conditioning rescue, embedding correlation, and attention dumps."""

from __future__ import annotations

import numpy as np

from .conditioning import BiasEntry, split_rule_based
from .corpus import Utterance
from .decoding import DecodeConfig, DecodeResult, beam_search, embed_phrases
from .fst import FusionScorer, compile_context
from .metrics import WerReport, corpus_wer
from .model import AudioCache, Recognizer
from .tensor import substream
from .vocab import BIAS_END, SPACE


def prepare_audio(model: Recognizer, utts: list[Utterance]) -> list[AudioCache]:
    """Encode every utterance once; reusable across decodes of the same model."""
    return [model.precompute_audio(model.encode_audio(u.load_features())) for u in utts]


def decode_corpus(
    model: Recognizer,
    utts: list[Utterance],
    cfg: DecodeConfig,
    fusion: FusionScorer | None = None,
    fusion_per_utt=None,
    phrases_fn=None,
    entries_fn=None,
    audio: list[AudioCache] | None = None,
) -> list[DecodeResult]:
    """Top-1 decode of a set. `phrases_fn(utt)` overrides the manifest bias
    list; `entries_fn(utt)` switches on conditioning; `fusion_per_utt(utt)`
    builds a per-utterance fusion scorer."""
    if audio is None:
        audio = prepare_audio(model, utts)
    embeddings: dict[tuple[str, ...], tuple] = {}
    out = []
    for u, cache in zip(utts, audio):
        entries = entries_fn(u) if entries_fn is not None else None
        phrases = phrases_fn(u) if phrases_fn is not None else list(u.bias_phrases)
        if entries is not None:
            phrases = [e.phrase for e in entries]
        key = tuple(phrases)
        if key not in embeddings:
            embeddings[key] = embed_phrases(model, phrases)
        scorer = fusion_per_utt(u) if fusion_per_utt is not None else fusion
        out.append(
            beam_search(
                model,
                None,
                phrases,
                cfg,
                fusion=scorer,
                entries=entries,
                audio=cache,
                bias_cache=embeddings[key],
            )[0]
        )
    return out


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
    audio: list[AudioCache] | None = None,
) -> list[tuple[int, float]]:
    """WER as a function of distractor count; the true phrase is always present."""
    if max(counts) > len(pool) - 1:
        raise ValueError(f"distractor pool of {len(pool)} cannot cover N={max(counts)}")
    if audio is None:
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


def embedding_correlation(h_z: np.ndarray) -> dict:
    """Cosine matrix over phrase embeddings (no-bias row excluded upstream)."""
    h = np.asarray(h_z, dtype=np.float64)
    if h.shape[0] < 2:
        raise ValueError("need at least two phrase embeddings")
    norms = np.linalg.norm(h, axis=1)
    if (norms == 0).any():
        raise ValueError("zero-norm embedding")
    c = (h / norms[:, None]) @ (h / norms[:, None]).T
    off = c[~np.eye(len(c), dtype=bool)]
    return {"matrix": c, "mean_off_diagonal": float(off.mean()), "max_off_diagonal": float(off.max())}


def phrase_embeddings(model: Recognizer, phrases: list[str]) -> np.ndarray:
    return model.encode_bias(phrases).data[1:]


# ---------------------------------------------------------------------------


def dump_bias_attention(
    model: Recognizer, utt: Utterance, phrases: list[str], cfg: DecodeConfig
) -> tuple[np.ndarray, list[str], list[str]]:
    """Decode and return (alphas over steps, emitted symbols, column labels)."""
    result = beam_search(model, utt.load_features(), phrases, cfg)[0]
    labels = ["<no-bias>"] + list(phrases)
    return result.alphas, result.raw_symbols, labels


def attention_hit_rate(
    model: Recognizer,
    utts: list[Utterance],
    cfg: DecodeConfig,
    threshold: float = 0.5,
    audio: list[AudioCache] | None = None,
) -> float:
    """Share of utterances whose true phrase dominates bias attention at the
    first `</bias>`-emission step of the decoded hypothesis."""
    results = decode_corpus(model, utts, cfg, audio=audio)
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
    audio: list[AudioCache] | None = None,
) -> dict[str, tuple[float, float]]:
    """Per strategy, the best (lambda, WER) over the grid, fusing each
    utterance's own bias list over the plain model."""
    if audio is None:
        audio = prepare_audio(model, utts)
    alphabet = [SPACE] + [s for s in model.vocab.graphemes if s != SPACE]
    compiled: dict[str, list[FusionScorer]] = {}
    for strat in strategies:
        compiled[strat] = [
            FusionScorer(compile_context(u.bias_phrases, alphabet, strat, bonus))
            for u in utts
        ]
    table = {}
    for strat in strategies:
        best = None
        for lam in lams:
            lam_cfg = DecodeConfig(cfg.beam_width, cfg.max_len, lam, cfg.n_best)
            scorers = iter(compiled[strat])
            results = decode_corpus(
                model, utts, lam_cfg, fusion_per_utt=lambda u, it=scorers: next(it), audio=audio
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
    audio: list[AudioCache] | None = None,
) -> dict[str, float]:
    """Unconditioned vs rule-based-conditioned WER on a trigger-led set."""
    if audio is None:
        audio = prepare_audio(model, utts)
    plain = decode_corpus(model, utts, cfg, audio=audio)
    entry_cache: dict[tuple[str, ...], list[BiasEntry]] = {}

    def entries_fn(u: Utterance) -> list[BiasEntry]:
        key = tuple(u.bias_phrases)
        if key not in entry_cache:
            entry_cache[key] = split_rule_based(u.bias_phrases, trigger=trigger)
        return entry_cache[key]

    conditioned = decode_corpus(model, utts, cfg, entries_fn=entries_fn, audio=audio)
    return {
        "unconditioned": eval_wer(plain, utts).wer,
        "conditioned": eval_wer(conditioned, utts).wer,
    }
