"""Prefix-conditioned phrase lists and per-step attention masks.

A conditioned entry pairs a phrase with a textual prefix; the phrase's
attention logit stays masked (infinite) until the prefix occurs as a raw
substring of the partial hypothesis. Empty prefixes always match, so a list
with all-empty prefixes behaves exactly like an unconditioned one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .vocab import normalize, render


@dataclass(frozen=True)
class BiasEntry:
    prefix: str  # possibly empty word sequence
    phrase: str  # the phrase that gets embedded


def plain_entries(phrases: Sequence[str]) -> list[BiasEntry]:
    return [BiasEntry("", p) for p in phrases]


class PrefixTable:
    """A conditioning list compiled for `compute_mask`: its entries grouped
    by distinct normalized prefix, so that a mask costs one substring test
    per prefix rather than one normalization and test per entry."""

    def __init__(self, entries: Sequence[BiasEntry]):
        groups: dict[str, int] = {"": 0}  # group 0: empty prefix, always open
        group_of = [0]  # mask slot -> group; slot 0 (no-bias) is always open
        for e in entries:
            group_of.append(groups.setdefault(normalize(e.prefix), len(groups)))
        self.prefixes = list(groups)[1:]  # the prefixes of groups 1, 2, ...
        self.group_of = np.array(group_of)


def compute_mask(
    entries: PrefixTable | Sequence[BiasEntry], hypothesis_tokens: Sequence[str]
) -> np.ndarray:
    """{0, inf} mask of length N+1; index 0 (no-bias) is always open.

    Matching is raw substring inclusion on the normalized text of the
    hypothesis, which `render` strips of `</bias>` tokens. `entries` is a
    compiled `PrefixTable` or a plain entry list, which is compiled on each
    call; a decoder compiles its list once and passes the table at every
    step.
    """
    table = entries if isinstance(entries, PrefixTable) else PrefixTable(entries)
    text = normalize(render(hypothesis_tokens))
    closed = np.array([False] + [p not in text for p in table.prefixes])
    return np.where(closed[table.group_of], np.inf, 0.0)


def split_rule_based(phrases: Sequence[str], trigger: str = "talk to") -> list[BiasEntry]:
    """Split trigger-led phrases into first-letter and continuation entries.

    "<trigger> w rest" yields (prefix="<trigger> <first letter of w>", phrase=w)
    and, when rest is non-empty, (prefix="<trigger> w", phrase=rest).
    """
    trigger = normalize(trigger)
    trig_words = trigger.split()
    entries: list[BiasEntry] = []
    for phrase in phrases:
        words = normalize(phrase).split()
        if words[: len(trig_words)] != trig_words or len(words) == len(trig_words):
            raise ValueError(f"phrase {phrase!r} does not extend the trigger {trigger!r}")
        head = words[len(trig_words)]
        rest = words[len(trig_words) + 1 :]
        entries.append(BiasEntry(prefix=f"{trigger} {head[0]}", phrase=head))
        if rest:
            entries.append(BiasEntry(prefix=f"{trigger} {head}", phrase=" ".join(rest)))
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

