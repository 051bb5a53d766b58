"""Length-synchronous N-best beam search with optional fusion and conditioning.

The live hypotheses advance together, and each one is row b of a few arrays:
its tokens, the row its ancestor had at every step, its model and fusion
scores, its fusion state and the rank of its token sequence. The decoder
states are stacked into (B, ·) rows the same way, and one `Recognizer.step`
call scores the whole beam. The B×V candidate totals (model log-probability
plus lambda-scaled fusion score) form one array; the `beam_width` best give
the parent row and token of each kept candidate, and every array is gathered
by parent. A hypothesis that emits end-of-sequence is copied out; its
attention rows are read from the per-step attention arrays through its
back-pointers. Under prefix conditioning every live hypothesis gets its own
attention mask from its own partial string at every step; the caller
compiles each distinct conditioning list once into a `PrefixTable`, so a
mask costs one substring test per distinct prefix. `</bias>` may be emitted
during search but is stripped from returned sequences.

The (B, ·) rows are the only layout `Recognizer` steps take; the training
loss makes the same call with one row per utterance of a minibatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditioning import PrefixTable, compute_mask
from .fst import FusionScorer
from .model import AudioCache, Recognizer
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
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be a finite number >= 0, got {self.lam}")


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
    audio: AudioCache,
    bias: tuple,
    cfg: DecodeConfig,
    fusion: FusionScorer | None = None,
    prefixes: PrefixTable | None = None,
) -> list[DecodeResult]:
    """Decode one utterance; returns up to n_best results, best first.

    `audio` comes from `Recognizer.precompute_audio` and `bias` from
    `embed_phrases`. `prefixes`, compiled from the entries whose phrases
    `bias` embeds, switches on prefix conditioning. Without a finished
    hypothesis at max_len the single best unfinished one is returned,
    flagged.
    """
    vocab = model.vocab
    h_z, bias_keys = bias
    if prefixes is not None and len(prefixes.group_of) != h_z.data.shape[0]:
        raise ValueError(
            f"the prefix table has {len(prefixes.group_of)} rows, the embedded list {h_z.data.shape[0]}"
        )
    n_vocab = len(vocab)
    fusion_rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def fusion_row(f_state: int) -> tuple[np.ndarray, np.ndarray]:
        """Next fusion state and increment of every token from `f_state`."""
        if f_state not in fusion_rows:
            steps = [_fusion_step(fusion, f_state, v, vocab) for v in range(n_vocab)]
            fusion_rows[f_state] = (
                np.array([s for s, _ in steps]),
                np.array([inc for _, inc in steps], dtype=np.float64),
            )
        return fusion_rows[f_state]

    # Row b of each array is live hypothesis b; `rows[b, s]` is the row its
    # ancestor had at step s, which indexes that step's attention array.
    tokens = np.zeros((1, 0), dtype=np.intp)
    rows = np.zeros((1, 0), dtype=np.intp)
    log_model, log_fusion = np.zeros(1), np.zeros(1)
    f_state = np.array([fusion.start if fusion is not None else 0])
    lex_rank = np.zeros(1, dtype=np.intp)  # rank of each live token sequence
    symbols = np.array(vocab.symbols, dtype=object)
    state = model.initial_state(rows=1)
    alphas: list[np.ndarray] = []  # per step: (B, N+1) bias attention
    done: list[tuple] = []  # (tokens, rows, log_model, log_fusion), tokens ending in eos

    while len(tokens) and tokens.shape[1] < cfg.max_len:
        if prefixes is not None:
            mask = np.stack([compute_mask(prefixes, symbols[row].tolist()) for row in tokens])
        else:
            mask = np.zeros((len(tokens), h_z.data.shape[0]))
        y_prev = tokens[:, -1] if tokens.shape[1] else np.array([vocab.sos])
        log_probs, alpha, state = model.step(y_prev, state, audio, h_z, mask, bias_keys)
        alphas.append(alpha.data)
        f_next, f_inc = map(np.stack, zip(*(fusion_row(f) for f in f_state.tolist())))
        step_model = log_model[:, None] + log_probs.data
        step_fusion = log_fusion[:, None] + f_inc
        total = step_model + cfg.lam * step_fusion
        # Reference order: -total, then the token sequence. Live sequences
        # have equal length, so that is the parent's rank, then the token.
        order = np.lexsort((
            np.tile(np.arange(n_vocab), len(tokens)), np.repeat(lex_rank, n_vocab), -total.ravel()
        ))
        parents, new = np.divmod(order[: cfg.beam_width], n_vocab)
        tokens = np.column_stack([tokens[parents], new])
        rows = np.column_stack([rows[parents], parents])
        log_model, log_fusion = step_model[parents, new], step_fusion[parents, new]
        f_state = f_next[parents, new]
        ended = new == vocab.eos
        done += [(tokens[b], rows[b], log_model[b], log_fusion[b]) for b in np.flatnonzero(ended)]
        live = ~ended
        tokens, rows, log_model, log_fusion, f_state, parents, new = (
            a[live] for a in (tokens, rows, log_model, log_fusion, f_state, parents, new)
        )
        state = state.take(parents)
        lex_rank = np.argsort(np.lexsort((new, lex_rank[parents])))

    def tie_key(h: tuple):
        return (-(h[2] + cfg.lam * h[3]), len(h[0]), h[0].tolist())

    pool = done if done else sorted(zip(tokens, rows, log_model, log_fusion), key=tie_key)[:1]
    pool = sorted(pool, key=tie_key)[: cfg.n_best]
    return [_to_result(*h, alphas, cfg.lam, vocab) for h in pool]


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


def _to_result(tokens, rows, log_model, log_fusion, alphas, lam: float, vocab) -> DecodeResult:
    """The result of one hypothesis; `alphas[s][rows[s]]` is its step-s attention."""
    raw = [vocab.symbols[t] for t in tokens.tolist() if t != vocab.eos]
    stripped = [s for s in raw if s != BIAS_END]
    return DecodeResult(
        text=render(stripped),
        tokens=stripped,
        total=float(log_model + lam * log_fusion),
        log_model=float(log_model),
        log_fusion=float(log_fusion),
        finished=bool(tokens[-1] == vocab.eos),
        raw_symbols=raw,
        alphas=np.array([alphas[s][b] for s, b in enumerate(rows.tolist())]),
    )
