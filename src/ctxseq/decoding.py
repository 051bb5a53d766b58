"""Length-synchronous N-best beam search with optional fusion and conditioning.

The live hypotheses advance together: their decoder states are stacked into
(B, ·) rows and one `Recognizer.step` call scores the whole beam. The B×V
candidate totals (model log-probability plus lambda-scaled fusion score) form
one array, and only the `beam_width` best become `Hypothesis` objects, each
holding its last token and a back-pointer to its parent. Under prefix
conditioning every live hypothesis gets its own attention mask from its own
partial string at every step; the caller compiles each distinct
conditioning list once into a `PrefixTable`, so a mask costs one substring
test per distinct prefix. `</bias>` may be emitted during search but is
stripped from returned sequences.

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


@dataclass(eq=False)
class Hypothesis:
    """A kept beam entry: its last emitted token and its parent."""

    parent: "Hypothesis | None"  # None at the root, which has emitted nothing
    token: int  # last emitted id, possibly </bias>; <s> at the root
    log_model: float
    log_fusion: float
    fusion_state: int
    alpha: np.ndarray | None  # bias attention of the step that emitted `token`
    finished: bool = False

    def total(self, lam: float) -> float:
        return self.log_model + lam * self.log_fusion

    def path(self) -> list["Hypothesis"]:
        """The entries from the first emitted token to this one."""
        out = []
        h = self
        while h.parent is not None:
            out.append(h)
            h = h.parent
        return out[::-1]

    @property
    def tokens(self) -> list[int]:
        return [h.token for h in self.path()]


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

    start_fusion = fusion.start if fusion is not None else 0
    live = [Hypothesis(None, vocab.sos, 0.0, 0.0, start_fusion, None)]
    lex_rank = np.zeros(1, dtype=np.intp)  # rank of each live token sequence
    history = np.zeros((1, 0), dtype=np.intp)  # row b: the tokens of live[b]
    symbols = np.array(vocab.symbols, dtype=object)
    state = model.initial_state(rows=1)
    done: list[Hypothesis] = []

    for _ in range(cfg.max_len):
        if not live:
            break
        if prefixes is not None:
            mask = np.stack([
                compute_mask(prefixes, symbols[row].tolist()) for row in history
            ])
        else:
            mask = np.zeros((len(live), h_z.data.shape[0]))
        y_prev = np.array([h.token for h in live])
        log_probs, alpha, state = model.step(y_prev, state, audio, h_z, mask, bias_keys)
        f_next, f_inc = zip(*(fusion_row(h.fusion_state) for h in live))
        log_model = np.array([h.log_model for h in live])[:, None] + log_probs.data
        log_fusion = np.array([h.log_fusion for h in live])[:, None] + np.array(f_inc)
        total = log_model + cfg.lam * log_fusion
        # Reference order: -total, then the token sequence. Live sequences
        # have equal length, so that is the parent's rank, then the token.
        order = np.lexsort((
            np.tile(np.arange(n_vocab), len(live)), np.repeat(lex_rank, n_vocab), -total.ravel()
        ))
        parents, tokens = np.divmod(order[: cfg.beam_width], n_vocab)
        kept = [
            Hypothesis(
                parent=live[b],
                token=v,
                log_model=float(log_model[b, v]),
                log_fusion=float(log_fusion[b, v]),
                fusion_state=int(f_next[b][v]),
                alpha=alpha.data[b],
                finished=v == vocab.eos,
            )
            for b, v in zip(parents.tolist(), tokens.tolist())
        ]
        done.extend(h for h in kept if h.finished)
        live = [h for h in kept if not h.finished]
        if live:
            keep = tokens != vocab.eos
            parents, tokens = parents[keep], tokens[keep]
            state = state.take(parents)
            history = np.column_stack([history[parents], tokens])
            lex_rank = np.argsort(np.lexsort((tokens, lex_rank[parents])))

    def tie_key(h: Hypothesis):
        tokens = h.tokens
        return (-h.total(cfg.lam), len(tokens), tokens)

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
    path = h.path()
    raw = [vocab.symbols[p.token] for p in path if p.token != vocab.eos]
    stripped = [s for s in raw if s != BIAS_END]
    return DecodeResult(
        text=render(stripped),
        tokens=stripped,
        total=h.total(lam),
        log_model=h.log_model,
        log_fusion=h.log_fusion,
        finished=h.finished,
        raw_symbols=raw,
        alphas=np.array([p.alpha for p in path]) if path else np.zeros((0, 1)),
    )
