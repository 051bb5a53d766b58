"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: central finite differences, exhaustive
enumeration, and direct string scanning. None of it shares code with the
library paths it checks, except that the context-compiler reference reuses
the library's minimization pass (it builds the speller and the product in a
transducer type of its own, with output labels and final states, and finds
its own word-position facts by walking the determinized machine, where the
library records them while it builds), the op chains of the LSTM cell, the
attentions and the output layer are built from the library's primitive ops
and from the primitive ops defined here, which only those chains and the
tests' losses use (`matmul`, `matmul_t`, `scale`, `columns`, `add`,
`mul`, `sum_`, `concat`, `tanh`, `sigmoid`, `softmax`, `log_softmax` and
`additive_scores`; they take their softmax, log-softmax and tanh-score
arithmetic from the library's helpers, so a bit-identity test checks how a
fused op composes and accumulates it),
the per-position decoder, the per-utterance loss and the per-phrase bias
encoder run those chains one row at a time, the per-row bias attention runs
them with one key per row, the per-hypothesis beam search runs the
library's `Recognizer.step` one row at a time, the enumeration
oracle embeds its list with the library's `embed_phrases` and
`Recognizer.precompute_bias`, and the beam,
enumeration and gain-bound oracles score fusion through the library
scorer's `score_step`/`finish`, whose table `reference_score_step` checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ctxseq import tensor as T
from ctxseq.decoding import DecodeResult
from ctxseq.fst import FAIL, StateAnn, Wfst, _minimize
from ctxseq.model import embed_phrases
from ctxseq.tensor import Tensor
from ctxseq.vocab import BIAS_END, EOS, SOS, SPACE, graphemize, normalize, render

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


def reference_score_step(m: Wfst, state: int, label: str) -> tuple[int, float]:
    """One grapheme of fusion scoring by walking `m.out`: the arc on `label`;
    else the `<fail>` arc's refund (0 and the start state without one) and
    the arc on `label` from its destination; else the refund alone."""
    def arc(st, lab):
        return next((a for a in m.out(st) if a.ilabel == lab), None)

    hit = arc(state, label)
    if hit is not None:
        return hit.dst, hit.weight
    fail = arc(state, FAIL)
    refund, dst = (fail.weight, fail.dst) if fail is not None else (0.0, m.start)
    retry = arc(dst, label)
    if retry is not None:
        return retry.dst, refund + retry.weight
    return dst, refund


def reference_gain_bound(scorer, r: int) -> np.ndarray:
    """Per state, the most the unscaled fusion score can rise over at most
    `r` labels and the final refund: every label string of length <= r over
    the context's alphabet and one label outside it, scored from the state
    as `score_string` scores from the start, and the largest total taken."""
    labels = list(scorer.machine.meta["alphabet"]) + ["<outside>"]
    best = np.full(scorer.machine.n_states, -np.inf)
    for state in range(scorer.machine.n_states):
        for n in range(r + 1):
            for string in itertools.product(labels, repeat=n):
                at, total = state, 0.0
                for lab in string:
                    at, inc = scorer.score_step(at, lab)
                    total += inc
                best[state] = max(best[state], total + scorer.finish(at))
    return best


def fusion_step(fusion, state: int, symbol: str) -> tuple[int, float]:
    """One emitted symbol of beam-search fusion: `</s>` pays the refund,
    `<s>` and `</bias>` score nothing, everything else is one `score_step`."""
    if fusion is None or symbol in (SOS, BIAS_END):
        return state, 0.0
    if symbol == EOS:
        return state, fusion.finish(state)
    return fusion.score_step(state, symbol)


# ---------------------------------------------------------------------------
# context-compiler reference: the speller x grammar product, trimmed,
# projected onto its input labels, then determinized by weighted subset
# construction

EPS = "<eps>"


class TArc(NamedTuple):
    src: int
    ilabel: str
    olabel: str
    weight: float
    dst: int


@dataclass
class Transducer:
    """A weighted transducer with final states, state 0 the start: the
    speller and the product are built in it, not in the library's `Wfst`,
    which is an acceptor with no final state."""

    meta: dict
    n_states: int = 1
    start: int = 0
    arcs: list[TArc] = field(default_factory=list)
    finals: dict[int, float] = field(default_factory=dict)
    index: dict[int, list[TArc]] = field(default_factory=dict)

    def add_state(self) -> int:
        self.n_states += 1
        return self.n_states - 1

    def add_arc(self, src: int, ilabel: str, olabel: str, weight: float, dst: int) -> None:
        arc = TArc(src, ilabel, olabel, weight, dst)
        self.arcs.append(arc)
        self.index.setdefault(src, []).append(arc)

    def out(self, state: int) -> list[TArc]:
        return self.index.get(state, [])


def build_speller(words, alphabet) -> Transducer:
    """Grapheme-to-word trie: spell the word, then a `<space>` arc emits its
    label and returns to the start, the one final state. All weights are zero."""
    alpha = set(alphabet)
    s = Transducer(meta={"alphabet": sorted(alpha)})
    s.finals[s.start] = 0.0
    trie: dict[int, dict[str, int]] = {s.start: {}}
    for word in sorted(set(words)):
        if not word:
            raise ValueError("cannot spell an empty word")
        cur = s.start
        for ch in word:
            if ch not in alpha:
                raise ValueError(f"grapheme {ch!r} of word {word!r} outside the alphabet")
            nxt = trie[cur].get(ch)
            if nxt is None:
                nxt = s.add_state()
                trie[cur][ch] = nxt
                trie[nxt] = {}
                s.add_arc(cur, ch, EPS, 0.0, nxt)
            cur = nxt
        s.add_arc(cur, SPACE, word, 0.0, s.start)
    return s


def reference_compose_det_min(s: Transducer, g: Wfst) -> Wfst:
    """min(det(proj(compose(S, G)))) the long way round, for `fst.compose_det_min`."""
    d = _determinize(_project(_compose(s, g)))
    _annotate(d, g.meta.get("bonus", 1.0))
    d.meta["alphabet"] = s.meta.get("alphabet", [])
    return _minimize(d)


def _annotate(m: Wfst, bonus: float) -> None:
    """Attach word-position facts to every state of a deterministic machine,
    found by walking it: breadth-first depths and parents, then a fixed
    point over every arc for the fewest graphemes to a completion."""
    depth = {m.start: 0}
    parent: dict[int, int] = {}
    order = [m.start]
    seen = {m.start}
    i = 0
    while i < len(order):
        st = order[i]
        i += 1
        for a in m.out(st):
            d = 0 if a.ilabel == SPACE else depth[st] + 1
            if a.dst in seen:
                if depth[a.dst] != d:
                    raise ValueError("inconsistent word positions; machine is not slot-aligned")
                continue
            seen.add(a.dst)
            depth[a.dst] = d
            if a.ilabel != SPACE:
                parent[a.dst] = st
            order.append(a.dst)

    completes = {st: any(a.ilabel == SPACE for a in m.out(st)) for st in range(m.n_states)}
    committed = {st: False for st in order}
    for st in order:
        if depth[st] > 0:
            committed[st] = completes[st] or committed[parent[st]]

    # shortest remaining graphemes to any completion, for spreading the bonus
    dist = {st: (0 if completes[st] else None) for st in range(m.n_states)}
    changed = True
    while changed:
        changed = False
        for a in m.arcs:
            if a.ilabel in (SPACE, FAIL):
                continue
            if dist[a.dst] is not None:
                cand = dist[a.dst] + 1
                if dist[a.src] is None or cand < dist[a.src]:
                    dist[a.src] = cand
                    changed = True

    pending: dict[int, float] = {}
    for st in order:
        if depth[st] == 0 or committed[st]:
            pending[st] = 0.0
        else:
            frac = bonus * depth[st] / (depth[st] + dist[st])
            pending[st] = max(pending[parent[st]], frac)
    m.ann = {
        st: StateAnn(boundary=depth[st] == 0, committed=committed[st], pending=pending[st])
        for st in range(m.n_states)
    }


def _compose(s: Transducer, g: Wfst) -> Transducer:
    """Product construction, trimmed; speller arcs with epsilon output move
    only the speller side, word-emitting arcs must find a matching grammar
    arc. A product state is final when the speller's is and the grammar is
    back at its start, where every phrase ends."""
    c = Transducer(meta={**s.meta, **g.meta})
    ids: dict[tuple[int, int], int] = {(s.start, g.start): c.start}
    stack = [(s.start, g.start)]
    while stack:
        ss, gs = stack.pop()
        src = ids[(ss, gs)]
        for arc in s.out(ss):
            if arc.olabel == EPS:
                targets = [((arc.dst, gs), EPS, arc.weight)]
            else:
                targets = [
                    ((arc.dst, ga.dst), ga.ilabel, arc.weight + ga.weight)
                    for ga in g.out(gs)
                    if ga.ilabel == arc.olabel
                ]
            for pair, olabel, weight in targets:
                if pair not in ids:
                    ids[pair] = c.add_state()
                    stack.append(pair)
                c.add_arc(src, arc.ilabel, olabel, weight, ids[pair])
        if ss in s.finals and gs == g.start:
            c.finals[src] = s.finals[ss]
    return _trim(c)


def _trim(m: Transducer) -> Transducer:
    reach = {m.start}
    stack = [m.start]
    while stack:
        for a in m.out(stack.pop()):
            if a.dst not in reach:
                reach.add(a.dst)
                stack.append(a.dst)
    back: dict[int, set[int]] = {}
    for a in m.arcs:
        back.setdefault(a.dst, set()).add(a.src)
    alive = set(m.finals)
    stack = list(alive)
    while stack:
        for src in back.get(stack.pop(), ()):
            if src not in alive:
                alive.add(src)
                stack.append(src)
    keep = reach & alive
    has_path = any(a.src in keep and a.dst in keep for a in m.arcs)
    if m.start not in keep or not has_path:
        raise ValueError("composition is empty: no phrase is spellable")
    out = Transducer(meta=dict(m.meta))
    remap = {m.start: out.start}
    for st in sorted(keep):
        if st != m.start:
            remap[st] = out.add_state()
    for a in m.arcs:
        if a.src in keep and a.dst in keep:
            out.add_arc(remap[a.src], a.ilabel, a.olabel, a.weight, remap[a.dst])
    out.finals = {remap[s]: w for s, w in m.finals.items() if s in keep}
    return out


def _project(m: Transducer) -> Wfst:
    """The acceptor of `m`'s input labels and weights. Its output labels and
    final states go: trimmed, every state of `m` lies on a path to a final
    one, and rescoring reads neither."""
    a = Wfst(meta=dict(m.meta))
    for _ in range(m.n_states - 1):
        a.add_state()
    for arc in m.arcs:
        a.add_arc(arc.src, arc.ilabel, arc.weight, arc.dst)
    return a


def _determinize(m: Wfst) -> Wfst:
    """Weighted subset construction; the common weight of merged transitions
    moves onto the arc and the remainder stays as per-state residuals."""
    d = Wfst(meta=dict(m.meta))
    init = frozenset({(m.start, 0.0)})
    ids: dict[frozenset, int] = {init: d.start}
    queue = [init]
    while queue:
        subset = queue.pop(0)
        src = ids[subset]
        by_label: dict[str, list[tuple[int, float]]] = {}
        for q, r in subset:
            for a in m.out(q):
                by_label.setdefault(a.ilabel, []).append((a.dst, r + a.weight))
        for ilabel in sorted(by_label):
            items = by_label[ilabel]
            shift = min(w for _, w in items)
            best: dict[int, float] = {}
            for dst, w in items:
                best[dst] = min(best.get(dst, float("inf")), w - shift)
            target = frozenset(best.items())
            if target not in ids:
                ids[target] = d.add_state()
                queue.append(target)
            d.add_arc(src, ilabel, shift, ids[target])
    return d


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
    h_z, keys = model.precompute_bias(embed_phrases(model, phrases))
    closed = np.zeros((1, len(h_z)), dtype=bool)
    best = None

    def consider(tokens, log_model, log_fusion):
        nonlocal best
        entry = (-(log_model + lam * log_fusion), len(tokens), tokens, log_model, log_fusion)
        if best is None or entry < best:
            best = entry

    def rec(tokens, state, fstate, log_model, log_fusion, y_prev):
        if len(tokens) == max_len:
            return
        log_probs, _, new_state = model.step([y_prev], state, audio, h_z, closed, keys)
        lp = log_probs[0]
        for v in range(len(vocab)):
            f2, finc = fusion_step(fusion, fstate, vocab.symbols[v])
            if v == vocab.eos:
                consider(tokens + [v], log_model + lp[v], log_fusion + finc)
            else:
                rec(tokens + [v], new_state, f2, log_model + lp[v], log_fusion + finc, v)

    rec([], model.initial_state(1), fusion.start if fusion else 0, 0.0, 0.0, vocab.sos)
    assert best is not None
    return {"tokens": best[2], "total": -best[0], "log_model": best[3], "log_fusion": best[4]}


# ---------------------------------------------------------------------------
# Adam update


def reference_adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    m: dict[str, np.ndarray],
    v: dict[str, np.ndarray],
    step: int,
    lr: float,
) -> None:
    """`tensor.Adam.step` as plain expressions with a temporary per
    operation: global-norm clipping at CLIP_NORM, then the bias-corrected
    update of the 1-based `step`. Updates `params`, `m` and `v` in place."""
    norm = np.sqrt(sum(float((g**2).sum()) for g in grads.values()))
    factor = T.CLIP_NORM / norm if norm > T.CLIP_NORM else 1.0
    b1t = 1.0 - T.BETA1**step
    b2t = 1.0 - T.BETA2**step
    for name, p in params.items():
        g = grads[name] * factor
        m[name] *= T.BETA1
        m[name] += (1.0 - T.BETA1) * g
        v[name] *= T.BETA2
        v[name] += (1.0 - T.BETA2) * g * g
        p -= lr * (m[name] / b1t) / (np.sqrt(v[name] / b2t) + T.EPS)


# ---------------------------------------------------------------------------
# primitive ops that only the op chains below use


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a (M, K) and a (K, N) tensor."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise ValueError(f"matmul needs 2-D operands, got shapes {a.shape} and {b.shape}")
    if ad.shape[1] != bd.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} @ {b.shape}")
    out = Tensor(ad @ bd)

    def backward():
        g = out.grad
        T._accum(a, g @ bd.T)
        T._accum(b, ad.T @ g)

    return T._record(out, backward)


def matmul_t(x: Tensor, w: Tensor) -> Tensor:
    """`x @ w.T` for a (B, D) stack of rows x and a (N, D) matrix w; the
    transpose is a view, never a copy."""
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2:
        raise ValueError(f"matmul_t needs a 2-D x and a 2-D w, got shapes {x.shape} and {w.shape}")
    if xd.shape[1] != wd.shape[1]:
        raise ValueError(f"matmul_t dimension mismatch: {x.shape} @ {w.shape}.T")
    out = Tensor(xd @ wd.T)

    def backward():
        g = out.grad
        T._accum(w, g.T @ xd)
        T._accum(x, g @ wd)

    return T._record(out, backward)


def scale(a: Tensor, k: float) -> Tensor:
    """`a * k` for a tensor of any shape."""
    out = Tensor(a.data * k)

    def backward():
        T._accum(a, out.grad * k)

    return T._record(out, backward)


def columns(a: Tensor, index) -> Tensor:
    """Columns `index` of a vector or matrix, in that order; repeats
    allowed. A column range is `columns` over `np.arange(start, stop)`. The
    backward scatter-adds, so a column not selected gets exactly zero
    gradient."""
    where = (Ellipsis, np.asarray(index, dtype=np.intp))
    out = Tensor(a.data[where])

    def backward():
        T._scatter_add(a, where, out.grad)

    return T._record(out, backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also allows matrix + row-vector broadcast."""
    if a.data.shape != b.data.shape:
        ok = a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]
        if not ok:
            raise ValueError(f"add shape mismatch: {a.shape} + {b.shape}")
    out = Tensor(a.data + b.data)
    broadcast = a.data.shape != b.data.shape

    def backward():
        T._accum(a, out.grad)
        T._accum(b, out.grad.sum(axis=0) if broadcast else out.grad)

    return T._record(out, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two tensors of one shape."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} * {b.shape}")
    out = Tensor(a.data * b.data)
    ad, bd = a.data, b.data

    def backward():
        T._accum(a, out.grad * bd)
        T._accum(b, out.grad * ad)

    return T._record(out, backward)


def sum_(a: Tensor) -> Tensor:
    """The sum of every entry, as a scalar."""
    out = Tensor(a.data.sum())

    def backward():
        T._accum(a, np.full_like(a.data, out.grad))

    return T._record(out, backward)


def concat(parts) -> Tensor:
    """Join 1-D tensors, or (B, D_i) tensors with equal B, along the last axis."""
    ndim = parts[0].data.ndim if parts else 1
    for p in parts:
        if p.data.ndim != ndim or ndim not in (1, 2):
            raise ValueError(f"concat takes all 1-D or all 2-D tensors, got shape {p.shape}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=-1))
    sizes = [p.data.shape[-1] for p in parts]

    def backward():
        pos = 0
        for p, n in zip(parts, sizes):
            T._accum(p, out.grad[..., pos : pos + n])
            pos += n

    return T._record(out, backward)


def tanh(a: Tensor) -> Tensor:
    out = Tensor(np.tanh(a.data))
    od = out.data

    def backward():
        T._accum(a, out.grad * (1.0 - od * od))

    return T._record(out, backward)


def sigmoid(a: Tensor) -> Tensor:
    out = Tensor(1.0 / (1.0 + np.exp(-a.data)))
    od = out.data

    def backward():
        T._accum(a, out.grad * od * (1.0 - od))

    return T._record(out, backward)


def softmax(a: Tensor) -> Tensor:
    """Stabilized softmax over the last axis of a vector or of every row.

    Entries equal to the NEG_INF sentinel map to exactly 0 and so receive
    an exact zero gradient; every row needs at least one other entry.
    """
    if a.data.ndim not in (1, 2):
        raise ValueError(f"softmax takes a 1-D/2-D tensor, got shape {a.shape}")
    T._check_open(a.data == T.NEG_INF)
    od = T._softmax(a.data)
    out = Tensor(od)

    def backward():
        T._accum(a, T._softmax_grad(out.grad, od))

    return T._record(out, backward)


def log_softmax(a: Tensor) -> Tensor:
    """Log-softmax over the last axis of a vector or of every row."""
    if a.data.ndim not in (1, 2):
        raise ValueError(f"log_softmax takes a 1-D/2-D tensor, got shape {a.shape}")
    out = Tensor(T._log_softmax_rows(a.data))

    def backward():
        T._accum(a, T._log_softmax_grad(out.grad, out.data))

    return T._record(out, backward)


def additive_scores(keys: Tensor, query: Tensor, v: Tensor) -> Tensor:
    """Additive-attention scores `v . tanh(keys[u] + query[b])` for every key u.

    keys is (U, A), v is (A,) and query is a (B, A) stack of queries; the
    (B, U) scores have row b scoring every key against query b.
    """
    kd, qd, vd = keys.data, query.data, v.data
    if kd.ndim != 2 or qd.ndim != 2 or vd.shape != kd.shape[1:] or qd.shape[1] != kd.shape[1]:
        raise ValueError(f"additive_scores shape mismatch: keys {keys.shape}, query {query.shape}, v {v.shape}")
    scores, t = T._tanh_block(kd, qd, vd)
    out = Tensor(scores)

    def backward():
        g_args = T._tanh_args_grad(out.grad, t, vd)
        T._accum(v, T._tanh_v_grad(out.grad, t))
        T._accum(keys, g_args.sum(axis=0))
        T._accum(query, g_args.sum(axis=1))

    return T._record(out, backward)


# ---------------------------------------------------------------------------
# op chains of the step's layers, and the per-utterance training loss


def reference_lstm_cell(x_t: Tensor, h_prev: Tensor, c_prev: Tensor, params: T.LstmParams) -> tuple[Tensor, Tensor]:
    """`tensor.lstm_cell` as a chain of twelve primitive ops, each its own
    tape node."""
    h = params.hidden
    pre = add(matmul_t(concat([x_t, h_prev]), params.w), params.b)
    i = sigmoid(columns(pre, np.arange(0, h)))
    f = sigmoid(columns(pre, np.arange(h, 2 * h)))
    g = tanh(columns(pre, np.arange(2 * h, 3 * h)))
    o = sigmoid(columns(pre, np.arange(3 * h, 4 * h)))
    c_t = add(mul(f, c_prev), mul(i, g))
    h_t = mul(o, tanh(c_t))
    return h_t, c_t


def reference_lstm_layer(table: Tensor, rows, lengths, p: T.LstmParams) -> Tensor:
    """`tensor.lstm_layer` as one chain of `reference_lstm_cell` steps per
    sequence, each from zero states and in input order, reading its inputs
    from `table` one row at a time."""
    outs, start = [], 0
    for n in lengths:
        h = c = T.constant(np.zeros((1, p.hidden)))
        for r in rows[start : start + n]:
            h, c = reference_lstm_cell(T.gather(table, [r]), h, c, p)
            outs.append(h)
        start += n
    return T.stack(outs)


def reference_attend_audio(query: Tensor, wq, keys, values, closed, wo: Tensor) -> Tensor:
    """`tensor.multi_head_attention` as a chain: per head matmul_t, matmul_t, scale, add of the -inf
    constant the boolean `closed` gives (one row per query row), softmax and
    matmul, then concat and matmul_t, each its own tape node."""
    heads = []
    for w, k, v in zip(wq, keys, values):
        q = matmul_t(query, w)
        scores = scale(matmul_t(q, k), 1.0 / np.sqrt(w.data.shape[0]))
        scores = add(scores, T.constant(np.where(closed, T.NEG_INF, 0.0)))
        heads.append(matmul(softmax(scores), v))
    return matmul_t(concat(heads), wo)


def reference_additive_attention(query: Tensor, wd, b, keys, v, score_of, closed, values) -> tuple[Tensor, Tensor]:
    """`tensor.additive_attention` as a chain: matmul_t, add,
    additive_scores, columns, add of the -inf mask when any entry is closed,
    softmax and matmul, each its own tape node."""
    scores = additive_scores(keys, add(matmul_t(query, wd), b), v)
    scores = columns(scores, score_of)
    if closed.any():
        scores = add(scores, T.constant(np.where(closed, T.NEG_INF, 0.0)))
    alpha = softmax(scores)
    return matmul(alpha, values), alpha


def reference_output_log_probs(parts, w: Tensor, b: Tensor) -> Tensor:
    """The output layer, `tensor.output_layer` of the joined parts, as a
    chain: concat, matmul_t, add and log_softmax, each its own tape node."""
    return log_softmax(add(matmul_t(concat(parts), w), b))


def reference_attention_decoder(ids: np.ndarray, embedding: Tensor, layers, audio, bias) -> tuple[Tensor, Tensor]:
    """The decoder half of `tensor.attention_decoder`, before its output
    layer and loss, as a per-position loop of op chains, on its `audio`
    (wq, wk, wv, frames, closed, wo) and `bias` (wd, b, wh, v, index,
    phrases): first a `matmul_t` per head for the keys, then one for the
    values, a `matmul` for the bias key rows and a `gather` of the phrases
    at `index` for the bias values; then per position a gather of the input
    tokens' embedding rows, a concat with the previous context, one
    `reference_lstm_cell` per layer, `reference_attend_audio`,
    `reference_additive_attention` with nothing closed and the context
    concat; then one stack of every position's contexts and one of its
    outputs."""
    wq, wk, wv, frames, closed, wo = audio
    wd, b, wh, v, index, phrases = bias
    keys = [matmul_t(frames, w) for w in wk]
    values = [matmul_t(frames, w) for w in wv]
    bias_keys, h_z = matmul(phrases, wh), T.gather(phrases, index)
    rows = ids.shape[1]
    states = [(T.constant(np.zeros((rows, p.hidden))), T.constant(np.zeros((rows, p.hidden)))) for p in layers]
    context = T.constant(np.zeros((rows, wo.data.shape[0] + h_z.data.shape[1])))
    nothing_closed = np.zeros((rows, len(index)), dtype=bool)
    contexts, outputs = [], []
    for tokens in ids:
        x = concat([T.gather(embedding, tokens), context])
        for l, p in enumerate(layers):
            states[l] = reference_lstm_cell(x, *states[l], p)
            x = states[l][0]
        c_x = reference_attend_audio(x, wq, keys, values, closed, wo)
        c_z, _ = reference_additive_attention(x, wd, b, bias_keys, v, index, nothing_closed, h_z)
        context = concat([c_x, c_z])
        contexts.append(context)
        outputs.append(x)
    return T.stack(contexts), T.stack(outputs)


def reference_forward_loss(model, x: np.ndarray, bias: tuple, target: list[int]) -> Tensor:
    """`Recognizer.forward_loss` for one utterance: the encoder one frame at a
    time, then `reference_attention_decoder` over one row and
    `reference_output_log_probs`, and the loss one position at a time;
    `bias` is the `(phrases, index)` of `embed_phrases`."""
    seq = [T.constant(x[k : k + 1]) for k in range(len(x))]
    for p in model.encoder:
        h = T.constant(np.zeros((1, p.hidden)))
        c = T.constant(np.zeros((1, p.hidden)))
        out = []
        for frame in seq:
            h, c = reference_lstm_cell(frame, h, c, p)
            out.append(h)
        seq = out
    phrases, index = bias
    p = model.params
    heads = [[p[f"audio_attn.{h}.{w}"] for h in range(model.config.attention_heads)] for w in ("wq", "wk", "wv")]
    ids = np.array([[model.vocab.sos] + list(target[:-1])]).T
    contexts, outputs = reference_attention_decoder(
        ids,
        p["embedding"],
        model.decoder,
        (*heads, T.stack(seq), np.zeros((1, len(x)), dtype=bool), p["audio_attn.wo"]),
        (p["bias_attn.wd"], p["bias_attn.b"], p["bias_attn.wh"], p["bias_attn.v"], index, phrases),
    )
    log_probs = reference_output_log_probs([contexts, outputs], p["output.w"], p["output.b"])
    loss = None
    for t, y in enumerate(target):
        nll = scale(columns(T.gather(log_probs, [t]), [y]), -1.0)
        loss = nll if loss is None else add(loss, nll)
    return sum_(loss)


# ---------------------------------------------------------------------------
# per-phrase bias encoder, per-row bias attention and per-hypothesis beam search


def reference_encode_bias(model, phrases) -> Tensor:
    """One LSTM chain per phrase, one grapheme at a time; row 0 is no-bias."""
    rows = [model.params["no_bias"]]
    emb = model.params["embedding"]
    p = model.bias_encoder
    for phrase in phrases:
        tokens = graphemize(phrase)
        if not tokens:
            raise ValueError("empty phrase in bias list")
        h = T.constant(np.zeros((1, p.hidden)))
        c = T.constant(np.zeros((1, p.hidden)))
        for tok in tokens:
            h, c = reference_lstm_cell(T.gather(emb, [model.vocab.index(tok)]), h, c, p)
        rows.append(h)
    return T.stack(rows)


def full_alpha(attention: tuple[np.ndarray, np.ndarray], width: int) -> np.ndarray:
    """The (B, width) weights of `Recognizer.attend_bias`'s `(alpha, rows)`:
    column `rows[j]` reads alpha's column j, every other column is 0."""
    alpha, rows = attention
    out = np.zeros((len(alpha), width))
    out[:, rows] = alpha
    return out


def reference_attend_bias(model, d_t: np.ndarray, h_z: Tensor, closed: np.ndarray, keys: Tensor):
    """`Recognizer.attend_bias` with one key row per row of `h_z` (`keys` is
    (N+1, A)): the rows open for some query, and each one's own key, are
    gathered and scored under the boolean `closed` by a chain of primitive
    ops; returns the context and alpha scattered back to full length."""
    n_rows = h_z.data.shape[0]
    rows = np.flatnonzero(~closed.all(axis=0))
    h_z, keys, closed = T.gather(h_z, rows), T.gather(keys, rows), closed[:, rows]
    query = add(matmul_t(T.constant(d_t), model.params["bias_attn.wd"]), model.params["bias_attn.b"])
    scores = additive_scores(keys, query, model.params["bias_attn.v"])
    alpha = softmax(add(scores, T.constant(np.where(closed, T.NEG_INF, 0.0))))
    return matmul(alpha, h_z).data, full_alpha((alpha.data, rows), n_rows)


@dataclass
class _Hypothesis:
    tokens: list[int]  # emitted ids, possibly including </bias>
    log_model: float
    log_fusion: float
    state: object
    fusion_state: int
    alphas: list[np.ndarray]
    finished: bool = False

    def total(self, lam: float) -> float:
        return self.log_model + lam * self.log_fusion


def reference_beam_search(model, audio, bias, cfg, fusion=None, entries=None):
    """`decoding.beam_search` one hypothesis at a time: one model step per
    live hypothesis, every one of the beam×V candidates built as an object
    with its own copies of the token and attention lists, then a full sort
    by (-total, length, tokens); `entries` switches on conditioning, each
    hypothesis masked by `reference_compute_mask`."""
    vocab = model.vocab
    h_z, bias_keys = bias
    nothing_closed = np.zeros((1, len(h_z)), dtype=bool)
    start_fusion = fusion.start if fusion is not None else 0
    live = [_Hypothesis([], 0.0, 0.0, model.initial_state(1), start_fusion, [])]
    done: list[_Hypothesis] = []

    def tie_key(h: _Hypothesis):
        return (-h.total(cfg.lam), len(h.tokens), h.tokens)

    for _ in range(cfg.max_len):
        if not live:
            break
        candidates: list[_Hypothesis] = []
        for h in live:
            if entries is not None:
                closed = reference_compute_mask(entries, [vocab.symbols[t] for t in h.tokens])[None] == np.inf
            else:
                closed = nothing_closed
            y_prev = h.tokens[-1] if h.tokens else vocab.sos
            log_probs, attention, state = model.step([y_prev], h.state, audio, h_z, closed, bias_keys)
            lp = log_probs[0]
            al = full_alpha(attention, len(h_z))[0]
            for v in range(len(vocab)):
                f_state, f_inc = fusion_step(fusion, h.fusion_state, vocab.symbols[v])
                candidates.append(
                    _Hypothesis(
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
    results = []
    for h in pool:
        raw = [vocab.symbols[t] for t in h.tokens if t != vocab.eos]
        stripped = [s for s in raw if s != BIAS_END]
        results.append(
            DecodeResult(
                text=render(stripped),
                tokens=stripped,
                total=h.total(cfg.lam),
                log_model=h.log_model,
                log_fusion=h.log_fusion,
                finished=h.finished,
                raw_symbols=raw,
                alphas=np.array(h.alphas) if h.alphas else np.zeros((0, 1)),
            )
        )
    return results


def assert_same_results(got, want, entries=None):
    """`got` equals the n-best list `want` in its symbols, and in its totals
    and attention within 1e-12; with `entries`, no closed entry gets weight."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.raw_symbols == w.raw_symbols
        assert g.finished == w.finished
        assert g.text == w.text and g.tokens == w.tokens
        for field in ("total", "log_model", "log_fusion"):
            assert abs(getattr(g, field) - getattr(w, field)) <= 1e-12, field
        assert g.alphas.shape == w.alphas.shape
        assert np.abs(g.alphas - w.alphas).max(initial=0.0) <= 1e-12
        if entries is not None:
            for step, alpha in enumerate(g.alphas):
                closed = reference_compute_mask(entries, g.raw_symbols[:step]) == np.inf
                assert np.all(alpha[closed] == 0.0), step
