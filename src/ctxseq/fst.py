"""Weighted finite-state machinery for on-the-fly contextual rescoring.

Pipeline: a word-level grammar over the phrase list (each word arc carries
the per-word bonus, completed phrases loop back to the start), a speller
transducing grapheme sequences to words, their composition determinized and
minimized into a grapheme-level context model, and finally one of three
weight-placement strategies:

  end-of-word        the word bonus sits on the word's final grapheme arc
  beginning-of-word  the word bonus sits on the word's first grapheme arc
  every-subword      the bonus is spread across the word's grapheme arcs and
                     explicit failure arcs refund whatever an abandoned
                     partial word collected

Scoring walks the machine one grapheme at a time; a label with no matching
arc takes the failure route (refund, then re-enter from the start with the
same label so a new match can begin anywhere). Once some word completes
inside a slot, deeper nested completions in the same slot add nothing, which
keeps complete-match path totals identical across all three strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .vocab import SPACE, normalize

EPS = "<eps>"
FAIL = "<fail>"

END_OF_WORD = "end-of-word"
BEGINNING_OF_WORD = "beginning-of-word"
EVERY_SUBWORD = "every-subword"
STRATEGIES = (END_OF_WORD, BEGINNING_OF_WORD, EVERY_SUBWORD)


@dataclass(frozen=True)
class Arc:
    src: int
    ilabel: str
    olabel: str
    weight: float
    dst: int


@dataclass
class StateAnn:
    """Word-position facts a strategy needs: see apply_strategy."""

    boundary: bool  # no graphemes consumed in the current word yet
    committed: bool  # some word already completed in the current slot
    pending: float  # uncommitted bonus collected so far (subtractive refund)


class Wfst:
    def __init__(self, meta: dict | None = None):
        self.n_states = 0
        self.start = self.add_state()
        self.finals: dict[int, float] = {}
        self.arcs: list[Arc] = []
        self.meta: dict = meta or {}
        self.ann: dict[int, StateAnn] = {}
        self._index: dict[int, list[Arc]] | None = None

    def add_state(self) -> int:
        self.n_states += 1
        self._index = None
        return self.n_states - 1

    def add_arc(self, src: int, ilabel: str, olabel: str, weight: float, dst: int) -> None:
        self.arcs.append(Arc(src, ilabel, olabel, float(weight), dst))
        self._index = None

    def out(self, state: int) -> list[Arc]:
        if self._index is None:
            self._index = {s: [] for s in range(self.n_states)}
            for a in self.arcs:
                self._index[a.src].append(a)
        return self._index[state]

    def is_deterministic(self) -> bool:
        for s in range(self.n_states):
            labels = [a.ilabel for a in self.out(s)]
            if len(labels) != len(set(labels)):
                return False
        return True

    def accepts(self, labels: Sequence[str]) -> tuple[bool, float]:
        """Deterministic walk; returns (accepted, path weight + final weight)."""
        state, total = self.start, 0.0
        for lab in labels:
            arc = next((a for a in self.out(state) if a.ilabel == lab), None)
            if arc is None:
                return False, 0.0
            state, total = arc.dst, total + arc.weight
        if state not in self.finals:
            return False, 0.0
        return True, total + self.finals[state]


# ---------------------------------------------------------------------------
# construction


def build_grammar(phrases: Sequence[str], bonus_per_word: float) -> Wfst:
    """Word-label acceptor: each phrase is a chain of word arcs carrying the
    per-word bonus, with the final word arc looping back to the start."""
    if bonus_per_word <= 0:
        raise ValueError(f"bonus_per_word must be positive, got {bonus_per_word}")
    cleaned = list(dict.fromkeys(normalize(p) for p in phrases))
    if not cleaned or any(not p for p in cleaned):
        raise ValueError("phrases must be non-empty")
    g = Wfst(meta={"bonus": float(bonus_per_word), "phrases": cleaned})
    g.finals[g.start] = 0.0
    for phrase in cleaned:
        words = phrase.split()
        cur = g.start
        for w in words[:-1]:
            nxt = g.add_state()
            g.add_arc(cur, w, w, bonus_per_word, nxt)
            cur = nxt
        g.add_arc(cur, words[-1], words[-1], bonus_per_word, g.start)
    return g


def build_speller(words: Iterable[str], alphabet: Sequence[str]) -> Wfst:
    """Grapheme-to-word trie: spell the word, then a `<space>` arc emits its
    label and returns to the start. All weights are zero."""
    alpha = set(alphabet)
    s = Wfst(meta={"alphabet": sorted(alpha)})
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


def _compose(s: Wfst, g: Wfst) -> Wfst:
    """Product construction; speller arcs with epsilon output move only the
    speller side, word-emitting arcs must find a matching grammar arc."""
    c = Wfst(meta={**s.meta, **g.meta})
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
                    ((arc.dst, ga.dst), ga.olabel, arc.weight + ga.weight)
                    for ga in g.out(gs)
                    if ga.ilabel == arc.olabel
                ]
            for pair, olabel, weight in targets:
                if pair not in ids:
                    ids[pair] = c.add_state()
                    stack.append(pair)
                c.add_arc(src, arc.ilabel, olabel, weight, ids[pair])
        if ss in s.finals and gs in g.finals:
            c.finals[src] = s.finals[ss] + g.finals[gs]
    return _trim(c)


def _trim(m: Wfst) -> Wfst:
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
    out = Wfst(meta=dict(m.meta))
    remap = {m.start: out.start}
    for st in sorted(keep):
        if st != m.start:
            remap[st] = out.add_state()
    for a in m.arcs:
        if a.src in keep and a.dst in keep:
            out.add_arc(remap[a.src], a.ilabel, a.olabel, a.weight, remap[a.dst])
    out.finals = {remap[s]: w for s, w in m.finals.items() if s in keep}
    return out


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
        by_label: dict[str, list[tuple[int, float, str]]] = {}
        for q, r in subset:
            for a in m.out(q):
                by_label.setdefault(a.ilabel, []).append((a.dst, r + a.weight, a.olabel))
        for ilabel in sorted(by_label):
            items = by_label[ilabel]
            olabels = {o for _, _, o in items if o != EPS}
            if len(olabels) > 1:
                raise ValueError(f"output-label conflict while determinizing on {ilabel!r}")
            olabel = olabels.pop() if olabels else EPS
            shift = min(w for _, w, _ in items)
            best: dict[int, float] = {}
            for dst, w, _ in items:
                best[dst] = min(best.get(dst, float("inf")), w - shift)
            target = frozenset(best.items())
            if target not in ids:
                ids[target] = d.add_state()
                queue.append(target)
            d.add_arc(src, ilabel, olabel, shift, ids[target])
        fw = [r + m.finals[q] for q, r in subset if q in m.finals]
        if fw:
            d.finals[src] = min(fw)
    return d


def _annotate(m: Wfst, bonus: float) -> None:
    """Attach word-position facts to every state of a deterministic machine."""
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


def _minimize(m: Wfst) -> Wfst:
    """Moore refinement; states merge only when finality, annotations, and
    weighted arc behavior all agree, so every strategy stays well-defined."""
    def base_key(st):
        a = m.ann[st]
        return (m.finals.get(st), a.boundary, a.committed, a.pending)

    cls = {}
    keys = {}
    for st in range(m.n_states):
        keys.setdefault(base_key(st), len(keys))
        cls[st] = keys[base_key(st)]
    while True:
        sigs = {}
        new_cls = {}
        for st in range(m.n_states):
            sig = (
                cls[st],
                tuple(sorted((a.ilabel, a.olabel, a.weight, cls[a.dst]) for a in m.out(st))),
            )
            sigs.setdefault(sig, len(sigs))
            new_cls[st] = sigs[sig]
        if len(set(new_cls.values())) == len(set(cls.values())):
            cls = new_cls
            break
        cls = new_cls

    out = Wfst(meta=dict(m.meta))
    remap = {cls[m.start]: out.start}
    for st in range(m.n_states):
        if cls[st] not in remap:
            remap[cls[st]] = out.add_state()
    seen_arcs = set()
    for a in m.arcs:
        key = (remap[cls[a.src]], a.ilabel, a.olabel, a.weight, remap[cls[a.dst]])
        if key not in seen_arcs:
            seen_arcs.add(key)
            out.add_arc(*key)
    for st, w in m.finals.items():
        out.finals[remap[cls[st]]] = w
    out.ann = {remap[cls[st]]: m.ann[st] for st in range(m.n_states)}
    return out


def compose_det_min(s: Wfst, g: Wfst) -> Wfst:
    """The grapheme-level context model: min(det(compose(S, G)))."""
    c = _compose(s, g)
    d = _determinize(c)
    _annotate(d, g.meta.get("bonus", 1.0))
    d.meta["alphabet"] = s.meta.get("alphabet", [])
    return _minimize(d)


# ---------------------------------------------------------------------------
# weight placement


def apply_strategy(c: Wfst, strategy: str) -> Wfst:
    """Reassign arc weights per the chosen placement and add failure arcs.

    Grapheme arcs get, per strategy: the word bonus on the first completion
    of a slot (end-of-word), on the word-initial arc (beginning-of-word), or
    spread so the collected amount tracks progress toward the nearest
    completion (every-subword). Failure arcs from every non-start state lead
    back to the start; under every-subword they refund the uncommitted part,
    so an abandoned partial word nets exactly zero.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if not c.is_deterministic():
        raise ValueError("apply_strategy requires a deterministic context model")
    if not c.ann:
        raise ValueError("context model lacks word-position annotations")
    bonus = float(c.meta["bonus"])
    out = Wfst(meta={**c.meta, "strategy": strategy})
    for _ in range(c.n_states - 1):
        out.add_state()
    out.finals = dict(c.finals)
    out.ann = dict(c.ann)

    def collected(st: int) -> float:
        a = c.ann[st]
        return bonus if a.committed else a.pending

    for a in c.arcs:
        if a.ilabel == SPACE:
            w = 0.0
        elif strategy == END_OF_WORD:
            first_completion = c.ann[a.dst].committed and not c.ann[a.src].committed
            w = bonus if first_completion else 0.0
        elif strategy == BEGINNING_OF_WORD:
            w = bonus if c.ann[a.src].boundary else 0.0
        else:
            w = collected(a.dst) - collected(a.src)
        out.add_arc(a.src, a.ilabel, a.olabel, w, a.dst)
    for st in range(c.n_states):
        if st == c.start:
            continue
        refund = -c.ann[st].pending if strategy == EVERY_SUBWORD else 0.0
        out.add_arc(st, FAIL, EPS, refund, c.start)
    return out


# ---------------------------------------------------------------------------
# incremental scoring


class FusionScorer:
    """Immutable compiled context; per-hypothesis state is a plain int."""

    def __init__(self, machine: Wfst, neutral_labels: Sequence[str] = ()):
        if "strategy" not in machine.meta:
            raise ValueError("scorer needs a strategy-applied context model")
        self.machine = machine
        self.start = machine.start
        self.neutral = set(neutral_labels)
        self._trans: list[dict[str, tuple[float, int]]] = [
            {} for _ in range(machine.n_states)
        ]
        self._fail: list[tuple[float, int]] = [(0.0, machine.start)] * machine.n_states
        for a in machine.arcs:
            if a.ilabel == FAIL:
                self._fail[a.src] = (a.weight, a.dst)
            else:
                self._trans[a.src][a.ilabel] = (a.weight, a.dst)

    @classmethod
    def null(cls) -> "FusionScorer":
        """Scorer over an empty phrase set; every increment is zero."""
        return cls(Wfst(meta={"strategy": END_OF_WORD, "bonus": 1.0, "alphabet": []}))

    def score_step(self, state: int, label: str) -> tuple[int, float]:
        """Advance on one grapheme; returns (new state, unscaled increment)."""
        if label in self.neutral:
            return state, 0.0
        hit = self._trans[state].get(label)
        if hit is not None:
            w, dst = hit
            return dst, w
        refund, dst = self._fail[state]
        retry = self._trans[dst].get(label)
        if retry is not None:
            w, dst2 = retry
            return dst2, refund + w
        return dst, refund

    def finish(self, state: int) -> float:
        """Refund due when scoring ends mid-word (end of utterance)."""
        return self._fail[state][0]

    def score_string(self, labels: Sequence[str]) -> tuple[float, list[float]]:
        state, total, incs = self.start, 0.0, []
        for lab in labels:
            state, inc = self.score_step(state, lab)
            total += inc
            incs.append(inc)
        tail = self.finish(state)
        return total + tail, incs


def compile_context(
    phrases: Sequence[str], alphabet: Sequence[str], strategy: str, bonus_per_word: float
) -> Wfst:
    """Grammar -> speller -> compose/det/min -> strategy weights."""
    g = build_grammar(phrases, bonus_per_word)
    words = sorted({w for p in g.meta["phrases"] for w in p.split()})
    s = build_speller(words, alphabet)
    return apply_strategy(compose_det_min(s, g), strategy)


# ---------------------------------------------------------------------------
# serialization


def save_context(path, machine: Wfst) -> None:
    """Text format: header lines, then one `src in out weight dst` per arc."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("CTXSEQ-CONTEXT-1\n")
        f.write("alphabet " + " ".join(machine.meta.get("alphabet", [])) + "\n")
        f.write("strategy " + machine.meta["strategy"] + "\n")
        f.write(f"bonus {machine.meta['bonus']!r}\n")
        f.write(f"states {machine.n_states}\n")
        f.write(f"start {machine.start}\n")
        f.write("finals " + " ".join(f"{s}:{w!r}" for s, w in sorted(machine.finals.items())) + "\n")
        for a in sorted(machine.arcs, key=lambda a: (a.src, a.ilabel, a.dst)):
            f.write(f"{a.src} {a.ilabel} {a.olabel} {a.weight!r} {a.dst}\n")


_CONTEXT_HEADER = ("alphabet", "strategy", "bonus", "states", "start", "finals")


def load_context(path) -> Wfst:
    """Read a `save_context` file. Raises ValueError for a missing header
    key, an arc line without five fields, a state id outside the machine,
    or a non-finite weight."""
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f]
    if not lines or lines[0] != "CTXSEQ-CONTEXT-1":
        raise ValueError("not a compiled context file")
    header: dict[str, str] = {}
    idx = 1
    while idx < len(lines) and lines[idx].partition(" ")[0] in _CONTEXT_HEADER:
        key, _, value = lines[idx].partition(" ")
        header[key] = value
        idx += 1
    missing = [k for k in _CONTEXT_HEADER if k not in header]
    if missing:
        raise ValueError(f"context file lacks header keys: {', '.join(missing)}")
    n_states = int(header["states"])
    if n_states < 1:
        raise ValueError(f"context file declares {n_states} states")

    def state(text: str, what: str) -> int:
        s = int(text)
        if not 0 <= s < n_states:
            raise ValueError(f"{what} {s} outside [0, {n_states})")
        return s

    def weight(text: str, what: str) -> float:
        w = float(text)
        if not math.isfinite(w):
            raise ValueError(f"non-finite {what} {text!r}")
        return w

    m = Wfst(meta={
        "alphabet": header["alphabet"].split(),
        "strategy": header["strategy"],
        "bonus": weight(header["bonus"], "bonus"),
    })
    for _ in range(n_states - 1):
        m.add_state()
    m.start = state(header["start"], "start state")
    for item in header["finals"].split():
        s, _, w = item.partition(":")
        m.finals[state(s, "final state")] = weight(w, "final weight")
    for lineno, ln in enumerate(lines[idx:], start=idx + 1):
        if not ln:
            continue
        fields = ln.split(" ")
        if len(fields) != 5:
            raise ValueError(f"line {lineno}: expected `src in out weight dst`, got {len(fields)} fields")
        src, ilabel, olabel, w, dst = fields
        m.add_arc(
            state(src, f"line {lineno}: arc source"),
            ilabel,
            olabel,
            weight(w, f"line {lineno}: arc weight"),
            state(dst, f"line {lineno}: arc destination"),
        )
    return m
