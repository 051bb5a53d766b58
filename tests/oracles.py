"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: central finite differences, exhaustive
enumeration, and direct string scanning. None of it shares code with the
library paths it checks.
"""

from __future__ import annotations

import numpy as np

from ctxseq.tensor import Tensor
from ctxseq.vocab import BIAS_END, SPACE, normalize, render

FD_STEP = 1e-5


def finite_difference(loss_fn, params: dict[str, Tensor], step: float = FD_STEP) -> dict[str, np.ndarray]:
    """Central-difference gradient of a forward-only scalar loss function."""
    grads = {}
    for name, t in params.items():
        flat = t.data.reshape(-1)
        g = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_fn()
            flat[i] = orig - step
            lo = loss_fn()
            flat[i] = orig
            g[i] = (hi - lo) / (2.0 * step)
        grads[name] = g.reshape(t.data.shape)
    return grads


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-4) -> float:
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


# ---------------------------------------------------------------------------
# phrase-annotation oracle


def brute_force_annotation(words: list[str], phrases: list[str]) -> list[tuple[int, int]]:
    """All legal non-overlapping word-span annotations, then the leftmost-longest
    one: spans compared lexicographically by (start, -end), where continuing to
    match beats stopping."""
    phrase_words = [p.split() for p in phrases if p]
    candidates: list[list[tuple[int, int]]] = []

    def rec(i: int, acc: list[tuple[int, int]]):
        if i == len(words):
            candidates.append(list(acc))
            return
        rec(i + 1, acc)
        for pw in phrase_words:
            if words[i : i + len(pw)] == pw:
                acc.append((i, i + len(pw)))
                rec(i + len(pw), acc)
                acc.pop()

    rec(0, [])

    def key(ann: list[tuple[int, int]]):
        return [x for (s, e) in ann for x in (s, -e)] + [float("inf")]

    return min(candidates, key=key)


# ---------------------------------------------------------------------------
# fusion-scoring oracle: greedy candidate tracking by direct string scanning


def fusion_events(labels: list[str], phrases: list[str]) -> list[tuple[int, int]]:
    """After each consumed label: cumulative (started words, completed words).

    A started word is the first grapheme consumed toward some candidate
    phrase word; a completed word is counted once per word slot, when the
    consumed segment first equals a candidate word.
    """
    word_lists = [normalize(p).split() for p in phrases]
    all_fresh = {(p, 0) for p in range(len(word_lists))}
    live = set(all_fresh)
    seg = ""
    committed = False
    starts = completions = 0
    out: list[tuple[int, int]] = []

    for lab in labels:
        if lab == SPACE:
            done = {(p, w) for (p, w) in live if word_lists[p][w] == seg} if seg else set()
            if done:
                finished = any(w + 1 == len(word_lists[p]) for p, w in done)
                live = {(p, w + 1) for p, w in done if w + 1 < len(word_lists[p])}
                if finished:
                    live |= all_fresh
            else:
                live = set(all_fresh)
            seg = ""
            committed = False
        else:
            ext = {(p, w) for (p, w) in live if word_lists[p][w].startswith(seg + lab)}
            if ext:
                if seg == "":
                    starts += 1
                seg += lab
                live = ext
            else:
                # abandoned: restart matching at this very label
                fresh = {(p, w) for (p, w) in all_fresh if word_lists[p][0].startswith(lab)}
                committed = False
                if fresh:
                    starts += 1
                    seg = lab
                    live = fresh
                else:
                    seg = ""
                    live = set(all_fresh)
            if seg and not committed and any(word_lists[p][w] == seg for (p, w) in live):
                completions += 1
                committed = True
        out.append((starts, completions))
    return out


def grammar_accepts(word_seq: list[str], phrases: list[str]) -> bool:
    """A word sequence is accepted iff it is a concatenation of phrases."""
    phrase_words = [normalize(p).split() for p in phrases]
    ok = [False] * (len(word_seq) + 1)
    ok[0] = True
    for i in range(1, len(word_seq) + 1):
        for pw in phrase_words:
            if len(pw) <= i and ok[i - len(pw)] and word_seq[i - len(pw) : i] == pw:
                ok[i] = True
                break
    return ok[-1]


# ---------------------------------------------------------------------------
# conditioning-mask oracle


def reference_compute_mask(entries, hypothesis_tokens) -> np.ndarray:
    """The per-entry mask loop: normalize and test every entry's prefix."""
    text = normalize(render([t for t in hypothesis_tokens if t != BIAS_END]))
    mask = np.zeros(len(entries) + 1)
    for i, e in enumerate(entries):
        prefix = normalize(e.prefix)
        if prefix and prefix not in text:
            mask[i + 1] = np.inf
    return mask


# ---------------------------------------------------------------------------
# alignment oracle


def brute_force_edit_distance(hyp: list[str], ref: list[str]) -> int:
    """Plain recursive minimal edit distance (unit costs), memoized."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        same = ref[i - 1] == hyp[j - 1]
        return min(
            go(i - 1, j - 1) + (0 if same else 1),
            go(i - 1, j) + 1,
            go(i, j - 1) + 1,
        )

    return go(len(ref), len(hyp))


# ---------------------------------------------------------------------------
# exhaustive search oracle


def enumerate_best(model, audio, phrases, max_len: int, lam: float, fusion=None):
    """Global argmax of model + lambda * fusion over every finished sequence
    of length <= max_len, with the beam's own tie-breaking order."""
    vocab = model.vocab
    h_z = model.encode_bias(phrases)
    keys = model.bias_key_cache(h_z)
    mask = np.zeros(h_z.data.shape[0])
    best = None

    def consider(tokens, log_model, log_fusion):
        nonlocal best
        entry = (-(log_model + lam * log_fusion), len(tokens), tokens, log_model, log_fusion)
        if best is None or entry < best:
            best = entry

    def fusion_step(state, token):
        if fusion is None:
            return state, 0.0
        sym = vocab.symbols[token]
        if token == vocab.eos:
            return state, fusion.finish(state)
        if sym in ("<s>", "</bias>"):
            return state, 0.0
        return fusion.score_step(state, sym)

    def rec(tokens, state, fstate, log_model, log_fusion, y_prev):
        if len(tokens) == max_len:
            return
        log_probs, _, new_state = model.step(y_prev, state, audio, h_z, mask, keys)
        lp = log_probs.data
        for v in range(len(vocab)):
            f2, finc = fusion_step(fstate, v)
            if v == vocab.eos:
                consider(tokens + [v], log_model + lp[v], log_fusion + finc)
            else:
                rec(tokens + [v], new_state, f2, log_model + lp[v], log_fusion + finc, v)

    rec([], model.initial_state(), fusion.start if fusion else 0, 0.0, 0.0, vocab.sos)
    assert best is not None
    return {"tokens": best[2], "total": -best[0], "log_model": best[3], "log_fusion": best[4]}
