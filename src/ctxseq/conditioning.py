"""Prefix-conditioned phrase lists and per-step attention masks.

A conditioned entry pairs a phrase with a textual prefix; the phrase's
attention entry stays closed (its logit -inf) until the prefix occurs as a
raw substring of the normalized text of the partial hypothesis. Empty prefixes
always match, so a list with all-empty prefixes behaves exactly like an
unconditioned one.

A `PrefixTable` compiles a list once. A partial hypothesis is a state of the
table: the end of its normalized text that could still begin a prefix, and
the set of prefix groups that have occurred. Normalized text only grows as
symbols are appended, so that set only grows, and one emitted symbol moves a
state to the next: a decoder carries each hypothesis's state and advances it
by its new token instead of re-reading the whole hypothesis.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .vocab import normalize, render


class BiasEntry(NamedTuple):
    prefix: str  # possibly empty word sequence
    phrase: str  # the phrase that gets embedded


def plain_entries(phrases: Sequence[str]) -> list[BiasEntry]:
    return [BiasEntry("", p) for p in phrases]


class PrefixTable:
    """The prefixes of a conditioning list, compiled for `compute_mask`.

    Mask slot i + 1 belongs to `prefixes[i]`, and the slots are grouped by
    distinct normalized prefix; group 0 is the empty prefix, always open. A
    state is an int naming (text, bit set of open groups); `START` is the
    state of the empty hypothesis. `text` is the longest end of the
    hypothesis's normalized text that is a proper beginning of some prefix
    ("" always is one), so any occurrence still to come of a prefix starts
    inside it. Whitespace becomes one space, dropped
    at the start of `text` or after a space, so repeated and leading spaces
    collapse as `normalize` does; `<s>`, `</s>` and `</bias>` render to
    nothing and keep the state. Text is lower-cased one symbol at a time.
    States are memoised per (state, symbol), and the boolean `closed` rows
    per set of open groups, so states that share their open groups share one
    read-only row.
    """

    START = 0

    def __init__(self, prefixes: Sequence[str]):
        groups: dict[str, int] = {"": 0}  # group 0: empty prefix, always open
        group_of = [0]  # mask slot -> group; slot 0 (no-bias) is always open
        for prefix in prefixes:
            group_of.append(groups.setdefault(normalize(prefix), len(groups)))
        self.prefixes = list(groups)[1:]  # the prefixes of groups 1, 2, ...
        self.group_of = np.array(group_of)
        self._beginnings = {""} | {p[:k] for p in self.prefixes for k in range(len(p))}
        self._ending: dict[str, list[tuple[str, int]]] = {}  # last character -> (prefix, group bit)
        for g, prefix in enumerate(self.prefixes, start=1):
            self._ending.setdefault(prefix[-1], []).append((prefix, 1 << g))
        self._states: list[tuple[str, int]] = [("", 1)]  # START: no text, open {0}
        self._state_ids = {self._states[0]: self.START}
        self._steps: dict[tuple[int, str], int] = {}
        self._closed: dict[int, np.ndarray] = {}

    def advance(self, state: int, symbol: str) -> int:
        """The state after `symbol` is appended to the hypothesis at `state`."""
        key = (state, symbol)
        after = self._steps.get(key)
        if after is None:
            text, open_ = self._states[state]
            for ch in render([symbol]).lower():
                if ch.isspace():
                    if not text or text[-1] == " ":
                        continue
                    ch = " "
                text += ch
                for prefix, bit in self._ending.get(ch, ()):
                    if text.endswith(prefix):
                        open_ |= bit
                while text not in self._beginnings:
                    text = text[1:]
            after = self._steps[key] = self._state_ids.setdefault((text, open_), len(self._states))
            if after == len(self._states):
                self._states.append((text, open_))
        return after

    def closed(self, state: int) -> np.ndarray:
        """Boolean row of length N+1 for `state`, true on each closed slot;
        read-only and shared by the states with the same open groups."""
        open_ = self._states[state][1]
        closed = self._closed.get(open_)
        if closed is None:
            is_closed = np.array([not open_ >> g & 1 for g in range(len(self.prefixes) + 1)])
            closed = self._closed[open_] = is_closed[self.group_of]
            closed.flags.writeable = False
        return closed


def compute_mask(entries: PrefixTable | Sequence[BiasEntry], at: int | Sequence[str]) -> np.ndarray:
    """The mask of length N+1 of a hypothesis; index 0 (no-bias) is always
    open.

    Matching is raw substring inclusion on the normalized text of the
    hypothesis, which `render` strips of `</bias>` tokens. There are two
    forms. A decoder passes a compiled `PrefixTable` and a hypothesis's state
    in it, which it advances by one token per step, and gets the table's
    read-only boolean `closed` row, which the bias attention takes as it is.
    A check passes the plain entry list and the hypothesis's symbols and gets
    a {0, inf} float row: each distinct prefix is normalized and tested
    against the whole text once, with no table, so that a check of the
    decoder's masks stays independent of the table.
    """
    if isinstance(entries, PrefixTable):
        return entries.closed(at)
    text = normalize(render(at))
    closed = {p: normalize(p) not in text for p in {e.prefix for e in entries}}
    return np.where([False] + [closed[e.prefix] for e in entries], np.inf, 0.0)


TALKTO_TRIGGER = "talk to"  # the words that open every talk-to phrase and utterance


def split_rule_based(phrases: Sequence[str], trigger: str = TALKTO_TRIGGER) -> list[BiasEntry]:
    """Split trigger-led phrases into first-letter and continuation entries.

    "<trigger> w rest" yields (prefix="<trigger> <first letter of w>", phrase=w)
    and, when rest is non-empty, (prefix="<trigger> w", phrase=rest).
    """
    trigger = normalize(trigger)
    trig_words = trigger.split()
    entries: list[BiasEntry] = []
    for phrase in phrases:
        words = phrase.lower().split()  # the words of `normalize(phrase)`
        if words[: len(trig_words)] != trig_words or len(words) == len(trig_words):
            raise ValueError(f"phrase {phrase!r} does not extend the trigger {trigger!r}")
        head = words[len(trig_words)]
        rest = words[len(trig_words) + 1 :]
        entries.append(BiasEntry(f"{trigger} {head[0]}", head))
        if rest:
            entries.append(BiasEntry(f"{trigger} {head}", " ".join(rest)))
    return entries


def split_greedy(phrases: Sequence[str], max_share: int) -> list[BiasEntry]:
    """Grow prefixes word by word until no prefix is shared by more than
    `max_share` entries (or the offending entries run out of suffix words).
    """
    if max_share < 1:
        raise ValueError("max_share must be >= 1")
    prefixes: list[list[str]] = [[] for _ in phrases]
    suffixes: list[list[str]] = [normalize(p).split() for p in phrases]
    while True:
        groups: dict[str, list[int]] = {}
        for i, pre in enumerate(prefixes):
            groups.setdefault(" ".join(pre), []).append(i)
        extended = False
        for members in groups.values():
            if len(members) <= max_share:
                continue
            for i in members:
                if suffixes[i]:
                    prefixes[i].append(suffixes[i].pop(0))
                    extended = True
        if not extended:
            break
    return [
        BiasEntry(prefix=" ".join(pre), phrase=" ".join(suf))
        for pre, suf in zip(prefixes, suffixes)
    ]

