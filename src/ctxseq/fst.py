"""Weighted finite-state machinery for on-the-fly contextual rescoring.

Pipeline: a word-level grammar over the phrase list (each word arc carries
the per-word bonus, completed phrases loop back to the start) is composed
with the speller of its words, the grapheme trie whose `<space>` arcs emit
the word. The composition is built deterministic in one pass over the trie
(a state is a trie node plus the grammar states whose words still run
through it), which also records each state's word-position facts, then
minimized into a grapheme-level context model, and finally one of three
weight-placement strategies is applied:

  end-of-word        the word bonus sits on the word's final grapheme arc
  beginning-of-word  the word bonus sits on the word's first grapheme arc
  every-subword      the bonus is spread across the word's grapheme arcs and
                     explicit failure arcs refund whatever an abandoned
                     partial word collected

Scoring walks the machine one grapheme at a time; a label with no matching
arc takes the failure route (refund, then re-enter from the start with the
same label so a new match can begin anywhere), resolved once per state and
label into the scorer's table. Once some word completes inside a slot,
deeper nested completions in the same slot add nothing, which keeps
complete-match path totals identical across all three strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


# ---------------------------------------------------------------------------
# construction


def check_bonus(bonus_per_word: float) -> None:
    """Raise ValueError unless the per-word bonus is a finite number > 0."""
    if not 0 < bonus_per_word < math.inf:
        raise ValueError(f"bonus_per_word must be a finite number > 0, got {bonus_per_word}")


def check_strategy(strategy: str) -> None:
    """Raise ValueError unless `strategy` is one of STRATEGIES."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


def build_grammar(phrases: Sequence[str], bonus_per_word: float) -> Wfst:
    """Word-label acceptor: each phrase is a chain of word arcs carrying the
    per-word bonus, with the final word arc looping back to the start."""
    check_bonus(bonus_per_word)
    cleaned = list(dict.fromkeys(normalize(p) for p in phrases))
    if not cleaned or any(not p for p in cleaned):
        raise ValueError("phrases must be non-empty")
    g = Wfst(meta={"bonus": float(bonus_per_word)})
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


def compose_det_min(g: Wfst, alphabet: Sequence[str]) -> Wfst:
    """The grapheme-level context model min(det(S o G)) of grammar `g` and
    the speller S of its words, built in one breadth-first pass over the
    words' grapheme trie.

    A state is a trie node p with the set G of grammar states that still
    have an outgoing word spelled through p. A grapheme moves to the child
    node and keeps the members of G whose words go on through it. `<space>`
    at the end of word w emits w with the word bonus and returns to the root
    with the states that G's arcs on w reach. The root is final, with weight
    0, when G holds the grammar start. Every speller path inside a word
    follows the trie and every word arc carries the same bonus, so this is
    the weighted subset construction of the composition with all residuals
    0; exploring with labels sorted gives its state numbering too. The same
    pass records the word-position facts the strategies need of each state.
    Raises ValueError for a word with a grapheme outside `alphabet`.
    """
    alpha = set(alphabet)
    children: list[dict[str, int]] = [{}]  # trie node -> grapheme -> child; 0 is the root
    through: list[set[int]] = [set()]  # trie node -> grammar states with a word through it
    word_at: dict[int, str] = {}  # trie node -> the word that ends there
    trie_depth = [0]  # trie node -> graphemes from the root
    for a in g.arcs:
        p = 0
        for ch in a.ilabel:
            if ch not in alpha:
                raise ValueError(f"grapheme {ch!r} of word {a.ilabel!r} outside the alphabet")
            if ch not in children[p]:
                children[p][ch] = len(children)
                children.append({})
                through.append(set())
                trie_depth.append(trie_depth[p] + 1)
            p = children[p][ch]
            through[p].add(a.src)
        word_at[p] = a.ilabel

    bonus = g.meta["bonus"]
    d = Wfst(meta={**g.meta, "alphabet": sorted(alpha)})
    init = (0, frozenset({g.start}))
    ids = {init: d.start}
    queue = [init]
    # Word-position facts of each state, indexed by state (the queue order
    # is the state numbering): its trie depth, the state whose arc first
    # reached it, and whether it has a `<space>` arc.
    depth = [0]
    parent = [d.start]
    completes: list[bool] = []
    for p, gs in queue:
        src = ids[(p, gs)]
        completes.append(False)
        moves = [(ch, (c, gs & through[c]), EPS, 0.0) for ch, c in children[p].items()]
        if p in word_at:
            w = word_at[p]
            reached = frozenset(b.dst for q in gs for b in g.out(q) if b.ilabel == w)
            moves.append((SPACE, (0, reached), w, bonus))
        for label, dst, olabel, weight in sorted(moves, key=lambda m: m[0]):
            if not dst[1]:
                continue
            if dst not in ids:
                ids[dst] = d.add_state()
                queue.append(dst)
                depth.append(trie_depth[dst[0]])
                parent.append(src)
            if label == SPACE:
                completes[src] = True
            d.add_arc(src, label, olabel, weight, ids[dst])
        if p == 0 and g.start in gs:
            d.finals[src] = 0.0

    # A grapheme arc goes one trie level deeper, so one pass over the arcs,
    # deepest source first, gives the fewest graphemes to a completion. A
    # parent comes before its child, so one pass in state order does the rest.
    dist = [0 if c else math.inf for c in completes]
    for a in sorted(d.arcs, key=lambda a: -depth[a.src]):
        if a.ilabel != SPACE:
            dist[a.src] = min(dist[a.src], dist[a.dst] + 1)
    committed = [False] * d.n_states
    pending = [0.0] * d.n_states
    for st in range(d.n_states):
        if depth[st] > 0:
            committed[st] = completes[st] or committed[parent[st]]
            if not committed[st]:
                pending[st] = max(pending[parent[st]], bonus * depth[st] / (depth[st] + dist[st]))
    d.ann = {
        st: StateAnn(boundary=depth[st] == 0, committed=committed[st], pending=pending[st])
        for st in range(d.n_states)
    }
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
    check_strategy(strategy)
    if not c.is_deterministic():
        raise ValueError("apply_strategy requires a deterministic context model")
    if not c.ann:
        raise ValueError("context model lacks word-position annotations")
    bonus = float(c.meta["bonus"])
    out = Wfst(meta={**c.meta, "strategy": strategy})
    for _ in range(c.n_states - 1):
        out.add_state()
    out.finals = dict(c.finals)

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
    """Immutable compiled context; per-hypothesis state is a plain int:
    `label` takes state `s` to `next[s, j]` for the unscaled increment
    `inc[s, j]`, failure route taken, where j is `column[label]` or -1 for a
    label outside the machine; `refund[s]` is due when scoring ends in `s`.
    `gain_bound` derives a table from these, once, on first use."""

    def __init__(self, machine: Wfst):
        if "strategy" not in machine.meta:
            raise ValueError("scorer needs a strategy-applied context model")
        self.machine = machine
        self.start = machine.start
        self.column = {lab: j for j, lab in enumerate(sorted({a.ilabel for a in machine.arcs} - {FAIL}))}
        self.refund = np.zeros(machine.n_states)
        fail_to = np.full(machine.n_states, machine.start)
        arc_to = np.full((machine.n_states, len(self.column) + 1), -1)
        arc_inc = np.zeros(arc_to.shape)
        for a in machine.arcs:
            if a.ilabel == FAIL:
                self.refund[a.src], fail_to[a.src] = a.weight, a.dst
            else:
                arc_to[a.src, self.column[a.ilabel]], arc_inc[a.src, self.column[a.ilabel]] = a.dst, a.weight
        # The direct arc; else refund and retry from the failure destination; else the refund alone, bit for bit.
        retry_to, retry_inc, refund = arc_to[fail_to], arc_inc[fail_to], self.refund[:, None]
        self.next = np.where(arc_to >= 0, arc_to, np.where(retry_to >= 0, retry_to, fail_to[:, None]))
        self.inc = np.where(arc_to >= 0, arc_inc, np.where(retry_to >= 0, refund + retry_inc, refund))
        self._gain: np.ndarray | None = None  # gain_bound's rows, built on first use

    def gain_bound(self, steps: int) -> np.ndarray:
        """The (steps + 1, S) table B whose row r bounds, for each state s,
        the unscaled fusion score still to come over at most r more labels
        and the final refund: every label string of length <= r, scored
        from s with `score_step` and then `finish`, totals at most B[r, s]
        (up to float rounding of the order of r additions).

        B[0] = refund and B[r] = max(refund, max_j inc[:, j] + B[r-1][next[:, j]])
        over every column, the outside-label one included. By induction
        B[r] >= B[r-1], so a label that keeps the state and scores 0
        (`<s>`, `</bias>`) is covered too. The rows do not depend on
        `steps`: the table is kept, and rebuilt only for a longer horizon.
        """
        if self._gain is None or len(self._gain) <= steps:
            rows = [self.refund]
            while len(rows) <= steps:
                rows.append(np.maximum(self.refund, (self.inc + rows[-1][self.next]).max(axis=1)))
                if np.array_equal(rows[-1], rows[-2]):  # a fixed point, so every later row is the same
                    rows += rows[-1:] * (steps + 1 - len(rows))
            self._gain = np.array(rows)
        return self._gain[: steps + 1]

    def score_step(self, state: int, label: str) -> tuple[int, float]:
        """Advance on one grapheme; returns (new state, unscaled increment)."""
        j = self.column.get(label, -1)
        return int(self.next[state, j]), float(self.inc[state, j])

    def finish(self, state: int) -> float:
        """Refund due when scoring ends mid-word (end of utterance)."""
        return float(self.refund[state])

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
    """Grammar -> compose/det/min over its word trie -> strategy weights."""
    g = build_grammar(phrases, bonus_per_word)
    return apply_strategy(compose_det_min(g, alphabet), strategy)


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
    key, an unknown strategy, a state count outside [1, arcs + 1], an arc
    line without five fields, a state id outside the machine, a non-finite
    weight, an arc label outside the alphabet and `<fail>`, or a second arc
    with the same source and label."""
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
    check_strategy(header["strategy"])
    n_states = int(header["states"])
    n_arcs = sum(1 for ln in lines[idx:] if ln)
    if not 1 <= n_states <= n_arcs + 1:
        # Every state but the start is entered by an arc in a trim machine.
        raise ValueError(f"context file declares {n_states} states for {n_arcs} arcs")

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
    labels = set(m.meta["alphabet"]) | {FAIL}
    seen: set[tuple[int, str]] = set()
    for lineno, ln in enumerate(lines[idx:], start=idx + 1):
        if not ln:
            continue
        fields = ln.split(" ")
        if len(fields) != 5:
            raise ValueError(f"line {lineno}: expected `src in out weight dst`, got {len(fields)} fields")
        src, ilabel, olabel, w, dst = fields
        src_state = state(src, f"line {lineno}: arc source")
        if ilabel not in labels:
            raise ValueError(f"line {lineno}: arc label {ilabel!r} outside the alphabet")
        if (src_state, ilabel) in seen:
            raise ValueError(f"line {lineno}: second arc from state {src_state} on {ilabel!r}")
        seen.add((src_state, ilabel))
        m.add_arc(
            src_state,
            ilabel,
            olabel,
            weight(w, f"line {lineno}: arc weight"),
            state(dst, f"line {lineno}: arc destination"),
        )
    return m
