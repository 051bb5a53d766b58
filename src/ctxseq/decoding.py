"""Length-synchronous N-best beam search with optional fusion and conditioning.

One search decodes a group of utterances that share one embedded phrase
list, one prefix table and one fusion scorer; a single utterance is a group
of one. The live hypotheses of every utterance of the group advance
together, and each one is row b of a few arrays: its utterance, its tokens,
the row its ancestor had at every step, its model and fusion scores, its
fusion state and its prefix state. The rows of one utterance are
contiguous, the utterances in group order, and within an utterance the rows
are in the lexicographic order of their token sequences. The decoder states
are stacked into (B, ·) rows the same way, and one `Recognizer.step` call
scores the whole group, on arrays; the group's audio is one `AudioCache`
over its utterances' stacked frames, and row b reads the frame-mask row of
its own utterance, so only that utterance's frames; its list is the arrays
of `Recognizer.precompute_bias`. The B×V candidate totals (model
log-probability plus lambda-scaled fusion score, whose increments are read
from the scorer's table by fusion state) form one array; one stable sort
picks the `beam_width` best of each utterance, which give the parent row
and token of each kept candidate, and every array is gathered by parent,
the last tokens too. A hypothesis that emits end-of-sequence is copied out;
its attention rows are read from the per-step attention through its
back-pointers. The caller compiles each distinct conditioning list once
into a `PrefixTable`; each row carries its state in that table, which its
one new token advances. At every step the search asks the table once per
distinct state for its read-only boolean `closed` row, and row b reads the
row of its own state; the step's bias attention scores each row only
against the entries open for it, and is kept as the weights over the
entries open for some row, with their indices. A plain list is a table of
empty prefixes, one group that is always open. The fusion state advances
the same way, by a lookup in a (state, token) table built once per search.
`</bias>` may be emitted during search but is stripped from returned
sequences.

An utterance's search stops as soon as no live hypothesis of it, nor any
continuation of one, can enter its returned n-best, and at `max_len` steps
at the latest. The test ends each step, after the step's finished
hypotheses are recorded, and a stopped utterance's rows leave the batch in
the one filter that also drops the finished rows. A model log-probability is
never positive, so a row's model score can only fall; its fusion score can
rise by at most the scorer's `gain_bound` for its state and the steps left.
Once `n_best` hypotheses of an utterance have finished and every live row
of it has its bound below the `n_best`-th finished total, more steps could
only add finished hypotheses that sort after it: within its group, the
utterance's results are those of running its rows on to `max_len`, bit for
bit.

A group of one has no case of its own: each row reads the utterance's
all-False mask row, which adds exactly 0 to every audio score. In a larger
group an utterance's last bits depend on its group, as an embedded
phrase's depend on the rest of its list (`Recognizer.encode_bias`): its
rows' attention over the stacked frames also sums the zero weights of the
other utterances' frames, and BLAS may round a product over more rows, or
over fewer once another utterance stops, differently. Its cache's bits
also depend on the utterances that `experiments.prepare_audio` encoded
with it, in one encoder pass and one key/value product. Its tokens and
totals match its lone decode up to that rounding.

The (B, ·) rows are the only layout `Recognizer` steps take; the training
loss makes the same call with one row per utterance of a minibatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditioning import PrefixTable, compute_mask
from .fst import END_OF_WORD, FusionScorer, Wfst
from .model import AudioCache, Recognizer
from .vocab import BIAS_END, render


@dataclass
class DecodeConfig:
    beam_width: int = 8
    max_len: int = 80  # a cap: the search stops earlier once no live row can still win
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
) -> list[list[DecodeResult]]:
    """Decode a group of utterances that share `bias`, `prefixes` and
    `fusion`; returns, per utterance, up to n_best results, best first.

    `audio` is the group's cache, one `closed` row per utterance in group
    order (`Recognizer.precompute_audio`, or `AudioCache.take` of a larger
    one); `bias` comes from `model.precompute_bias`. `prefixes` is compiled
    from the prefixes of the entries whose phrases `bias` embeds; without
    it every phrase is always open. Without a finished hypothesis at max_len an
    utterance gets the single best unfinished one, flagged.

    Step 0 has one row per utterance, whose last token is `<s>`. An
    utterance's rows are contiguous and in the lexicographic order of their
    tokens, and utterances ascend: one stable `np.lexsort` of the (B, V)
    candidates by (utterance, -total) ranks each utterance's in the
    reference order, and its `beam_width` best are kept in flat-index
    order, which keeps that row order.

    After each step, with the finished rows recorded, the search drops the
    rows of each utterance none of whose live rows can still win, in the
    same filter that drops the finished ones. Let theta be the utterance's
    `n_best`-th best finished total, by the expression the final sort uses
    (-inf until `n_best` have finished), and `left` the labels a row may
    still emit before `</s>`: max_len - 1 - its new length; after the last
    step there is nothing left to test. Every finished descendant of a row
    totals at most the row's bound
    log_model + lam * (log_fusion + gain_bound[left, f_state]), up to the
    rounding of the fusion sums: each `log_softmax` entry is <= 0 exactly
    (shifted logits <= 0 less a log-sum-exp >= 0), and float addition and
    multiplication by lam >= 0 (`DecodeConfig` enforces it) are monotone,
    so the model score never rises. The descendant's fusion score and the
    bound are sums of at most max_len + 1 terms of size at most max|inc|
    (the scorer's largest increment), so they round by less than about
    2 * (max_len + 1) * 2**-53 * lam * max_len * max|inc| (under 1e-13 of
    lam * max_len * max|inc| at max_len 80), and the final addition by
    under 1e-15 * |theta|. An utterance stops when every one of its live
    rows has its bound below theta by more than
    1e-9 * (1 + |theta| + lam * max_len * max|inc|), far above both: the
    finished hypotheses that more steps would add total below theta and
    sort after the n_best kept.
    """
    vocab = model.vocab
    h_z, bias_keys = bias
    prefixes = prefixes or PrefixTable([""] * (len(h_z) - 1))
    if len(prefixes.group_of) != len(h_z):
        raise ValueError(f"the prefix table has {len(prefixes.group_of)} rows, the embedded list {len(h_z)}")
    n_vocab = len(vocab)
    # The scorer's tables by (state, token): `<s>`, `</s>` and `</bias>` keep
    # the state and add 0, but `</s>` adds the refund. No scorer: an empty context.
    fusion = fusion or FusionScorer(Wfst(meta={"strategy": END_OF_WORD}))
    column = np.array([fusion.column.get(s, -1) for s in vocab.symbols])
    keep = np.isin(np.arange(n_vocab), [vocab.sos, vocab.eos, vocab.bias_end])
    f_next = np.where(keep, np.arange(len(fusion.refund))[:, None], fusion.next[:, column])
    f_inc = np.where(keep, 0.0, fusion.inc[:, column])
    f_inc[:, vocab.eos] = fusion.refund

    # Row b of each array is a live hypothesis of utterance `owner[b]`; see
    # the module docstring for the row order. `rows[b, s]` is the row its
    # ancestor had at step s, which indexes that step's attention.
    n_utts = len(audio.closed)
    owner = np.arange(n_utts)
    tokens = rows = np.zeros((n_utts, 0), dtype=np.intp)
    log_model, log_fusion = np.zeros(n_utts), np.zeros(n_utts)
    f_state = np.full(n_utts, fusion.start)
    p_state = np.full(n_utts, PrefixTable.START)  # the hypothesis's state in the prefix table
    y_prev = np.full(n_utts, vocab.sos)  # each row's last token
    state = model.initial_state(rows=n_utts)
    # Per step: the columns open for some row, and every row's attention on them.
    alphas: list[tuple[np.ndarray, np.ndarray]] = []
    done: list[list[tuple]] = [[] for _ in range(n_utts)]  # (tokens, rows, log_model, log_fusion), tokens ending in eos
    theta = np.full(n_utts, -math.inf)  # the n_best-th best finished total, once n_best have finished
    gain = fusion.gain_bound(cfg.max_len - 1)
    scale = 1 + cfg.lam * cfg.max_len * np.abs(fusion.inc).max(initial=0.0)  # of the rounding margin

    while len(tokens) and tokens.shape[1] < cfg.max_len:
        states, of_state = np.unique(p_state, return_inverse=True)
        closed = np.array([compute_mask(prefixes, p) for p in states.tolist()])[of_state]
        rows_audio = AudioCache(audio.keys, audio.values, audio.closed[owner])
        log_probs, (alpha, cols), state = model.step(y_prev, state, rows_audio, h_z, closed, bias_keys)
        alphas.append((cols, alpha))
        step_model = log_model[:, None] + log_probs
        step_fusion = log_fusion[:, None] + f_inc[f_state]
        total = step_model + cfg.lam * step_fusion
        # Rows in sequence order and of equal length make flat index order
        # sequence order within an utterance; see the docstring.
        cell_owner = np.repeat(owner, n_vocab)
        order = np.lexsort((-total.ravel(), cell_owner))
        rank = np.arange(order.size) - np.searchsorted(cell_owner, cell_owner)  # within the utterance
        kept = np.sort(order[rank < cfg.beam_width])
        parents, new = np.divmod(kept, n_vocab)
        owner = owner[parents]
        tokens = np.column_stack([tokens[parents], new])
        rows = np.column_stack([rows[parents], parents])
        log_model, log_fusion = step_model[parents, new], step_fusion[parents, new]
        f_state = f_next[f_state[parents], new]
        ended = new == vocab.eos
        for b in np.flatnonzero(ended).tolist():
            done[owner[b]].append((tokens[b], rows[b], log_model[b], log_fusion[b]))
        for u in set(owner[ended].tolist()):
            if len(done[u]) >= cfg.n_best:
                theta[u] = sorted(h[2] + cfg.lam * h[3] for h in done[u])[-cfg.n_best]
        go = ~ended
        left = cfg.max_len - 1 - tokens.shape[1]
        if left >= 0:  # an utterance stops when none of its live rows can still win
            bound = log_model + cfg.lam * (log_fusion + gain[left, f_state])
            beaten = bound < (theta - 1e-9 * (scale + np.abs(theta)))[owner]
            go &= np.bincount(owner[go & ~beaten], minlength=n_utts)[owner] > 0
        owner, tokens, rows, log_model, log_fusion, f_state, parents, y_prev = (
            a[go] for a in (owner, tokens, rows, log_model, log_fusion, f_state, parents, new)
        )
        state = state.take(parents)
        p_state = np.array(
            [prefixes.advance(p, vocab.symbols[t]) for p, t in zip(p_state[parents].tolist(), y_prev.tolist())]
        )

    results = []
    for u in range(n_utts):
        # `done` and the live rows are in (length, tokens) order: a stable sort on -total suffices.
        mine = owner == u
        live_rows = zip(tokens[mine], rows[mine], log_model[mine], log_fusion[mine])
        pool = sorted(done[u] or live_rows, key=lambda h: -(h[2] + cfg.lam * h[3]))
        kept = pool[: cfg.n_best if done[u] else 1]
        results.append([_to_result(*h, alphas, len(h_z), cfg.lam, vocab) for h in kept])
    return results


def _to_result(tokens, rows, log_model, log_fusion, steps, width: int, lam: float, vocab) -> DecodeResult:
    """The result of one hypothesis; `steps[s]` is the search's step-s
    (open columns, attention), and `rows[s]` the hypothesis's row at step s.
    A column closed for every row of a step gets weight 0."""
    raw = [vocab.symbols[t] for t in tokens.tolist() if t != vocab.eos]
    stripped = [s for s in raw if s != BIAS_END]
    alphas = np.zeros((len(rows), width))
    for s, b in enumerate(rows.tolist()):
        cols, block = steps[s]
        alphas[s, cols] = block[b]
    return DecodeResult(
        text=render(stripped),
        tokens=stripped,
        total=float(log_model + lam * log_fusion),
        log_model=float(log_model),
        log_fusion=float(log_fusion),
        finished=bool(tokens[-1] == vocab.eos),
        raw_symbols=raw,
        alphas=alphas,
    )
