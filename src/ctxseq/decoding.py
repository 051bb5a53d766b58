"""Length-synchronous N-best beam search with optional fusion and conditioning.

Each hypothesis tracks its own decoder state, fusion-scorer state, and (when
prefix conditioning is active) recomputes its attention mask from its own
partial string at every step. The conditioning list is compiled once per
utterance into a `PrefixTable`, so a mask costs one substring test per
distinct prefix. Totals combine the model log-probability with a
lambda-scaled fusion score. `</bias>` may be emitted during search but is
stripped from returned sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditioning import BiasEntry, PrefixTable, compute_mask
from .fst import FusionScorer
from .model import AudioCache, DecoderStepState, Recognizer
from .vocab import BIAS_END, SOS, render


@dataclass
class DecodeConfig:
    beam_width: int = 8
    max_len: int = 80
    lam: float = 0.0
    n_best: int = 1

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if not 1 <= self.n_best <= self.beam_width:
            raise ValueError("n_best must be in [1, beam_width]")
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")


@dataclass
class Hypothesis:
    tokens: list[int]  # emitted ids, possibly including </bias>
    log_model: float
    log_fusion: float
    state: DecoderStepState
    fusion_state: int
    alphas: list[np.ndarray]
    finished: bool = False

    def total(self, lam: float) -> float:
        return self.log_model + lam * self.log_fusion


@dataclass
class DecodeResult:
    text: str
    tokens: list[str]  # stripped symbol sequence
    total: float
    log_model: float
    log_fusion: float
    finished: bool
    raw_symbols: list[str]  # as emitted, including </bias>, excluding eos
    alphas: np.ndarray  # (steps, N+1) bias attention per emitted step


def beam_search(
    model: Recognizer,
    x: np.ndarray | None,
    phrases: list[str],
    cfg: DecodeConfig,
    fusion: FusionScorer | None = None,
    entries: list[BiasEntry] | None = None,
    audio: AudioCache | None = None,
    bias_cache: tuple | None = None,
) -> list[DecodeResult]:
    """Decode one utterance; returns up to n_best results, best first.

    `entries` switches on prefix conditioning; its phrases are then the ones
    embedded and `phrases` is ignored. Without a finished hypothesis at
    max_len the single best unfinished one is returned, flagged. `bias_cache`
    (from `embed_phrases`) skips re-embedding a phrase list shared across
    utterances.
    """
    vocab = model.vocab
    if entries is not None:
        phrases = [e.phrase for e in entries]
        prefix_table = PrefixTable(entries)
    if audio is None:
        audio = model.precompute_audio(model.encode_audio(x))
    if bias_cache is None:
        bias_cache = embed_phrases(model, phrases)
    h_z, bias_keys = bias_cache
    if h_z.data.shape[0] != len(phrases) + 1:
        raise ValueError("bias_cache does not match the phrase list")
    zero_mask = np.zeros(len(phrases) + 1)

    start_fusion = fusion.start if fusion is not None else 0
    live = [
        Hypothesis([], 0.0, 0.0, model.initial_state(), start_fusion, [])
    ]
    done: list[Hypothesis] = []

    def tie_key(h: Hypothesis):
        return (-h.total(cfg.lam), len(h.tokens), h.tokens)

    for _ in range(cfg.max_len):
        if not live:
            break
        candidates: list[Hypothesis] = []
        for h in live:
            if entries is not None:
                mask = compute_mask(prefix_table, [vocab.symbols[t] for t in h.tokens])
            else:
                mask = zero_mask
            y_prev = h.tokens[-1] if h.tokens else vocab.sos
            log_probs, alpha, state = model.step(y_prev, h.state, audio, h_z, mask, bias_keys)
            lp = log_probs.data
            al = alpha.data
            for v in range(len(vocab)):
                f_state, f_inc = _fusion_step(fusion, h.fusion_state, v, vocab)
                candidates.append(
                    Hypothesis(
                        tokens=h.tokens + [v],
                        log_model=h.log_model + float(lp[v]),
                        log_fusion=h.log_fusion + f_inc,
                        state=state,
                        fusion_state=f_state,
                        alphas=h.alphas + [al],
                        finished=v == vocab.eos,
                    )
                )
        candidates.sort(key=tie_key)
        live = []
        for h in candidates[: cfg.beam_width]:
            (done if h.finished else live).append(h)

    pool = done if done else sorted(live, key=tie_key)[:1]
    pool = sorted(pool, key=tie_key)[: cfg.n_best]
    return [_to_result(h, cfg.lam, vocab) for h in pool]


def embed_phrases(model: Recognizer, phrases: list[str]) -> tuple:
    """Embed a phrase list once for reuse across utterances."""
    h_z = model.encode_bias(phrases)
    return h_z, model.bias_key_cache(h_z)


def _fusion_step(fusion, state: int, token: int, vocab) -> tuple[int, float]:
    if fusion is None:
        return state, 0.0
    symbol = vocab.symbols[token]
    if token == vocab.eos:
        return state, fusion.finish(state)
    if symbol in (BIAS_END, SOS):
        return state, 0.0
    return fusion.score_step(state, symbol)


def _to_result(h: Hypothesis, lam: float, vocab) -> DecodeResult:
    raw = [vocab.symbols[t] for t in h.tokens if t != vocab.eos]
    stripped = [s for s in raw if s != BIAS_END]
    return DecodeResult(
        text=render(stripped),
        tokens=stripped,
        total=h.total(lam),
        log_model=h.log_model,
        log_fusion=h.log_fusion,
        finished=h.finished,
        raw_symbols=raw,
        alphas=np.array(h.alphas) if h.alphas else np.zeros((0, 1)),
    )
