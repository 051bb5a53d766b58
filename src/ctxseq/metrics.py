"""Word error rate via Levenshtein-minimal alignment."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass
class WerReport:
    substitutions: int
    insertions: int
    deletions: int
    ref_words: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    @property
    def wer(self) -> float:
        """Errors per reference word; raises ValueError when there are none."""
        if not self.ref_words:
            raise ValueError("WER is undefined over zero reference words")
        return self.errors / self.ref_words

    def __add__(self, other: "WerReport") -> "WerReport":
        return WerReport(
            self.substitutions + other.substitutions,
            self.insertions + other.insertions,
            self.deletions + other.deletions,
            self.ref_words + other.ref_words,
        )


def compute_wer(hyp: str, ref: str) -> WerReport:
    """Minimal unit-cost edit distance between the words of two texts, as S/I/D counts."""
    hyp_words, ref_words = hyp.split(), ref.split()
    if not ref_words:
        raise ValueError("WER is undefined for an empty reference")

    n, m = len(ref_words), len(hyp_words)
    # dp[i][j] = (cost, subs, ins, dels) for ref[:i] vs hyp[:j]
    dp = [[(0, 0, 0, 0)] * (m + 1) for _ in range(n + 1)]
    for j in range(1, m + 1):
        dp[0][j] = (j, 0, j, 0)
    for i in range(1, n + 1):
        dp[i][0] = (i, 0, 0, i)
        for j in range(1, m + 1):
            if ref_words[i - 1] == hyp_words[j - 1]:
                dp[i][j] = dp[i - 1][j - 1]
                continue
            sub = dp[i - 1][j - 1]
            dele = dp[i - 1][j]
            ins = dp[i][j - 1]
            best = min(sub[0], dele[0], ins[0])
            if sub[0] == best:
                dp[i][j] = (best + 1, sub[1] + 1, sub[2], sub[3])
            elif dele[0] == best:
                dp[i][j] = (best + 1, dele[1], dele[2], dele[3] + 1)
            else:
                dp[i][j] = (best + 1, ins[1], ins[2] + 1, ins[3])
    cost, subs, ins, dels = dp[n][m]
    assert cost == subs + ins + dels
    return WerReport(substitutions=subs, insertions=ins, deletions=dels, ref_words=n)


def corpus_wer(pairs: Sequence[tuple[str, str]]) -> WerReport:
    """Micro-averaged WER over (hypothesis, reference) text pairs."""
    total = WerReport(0, 0, 0, 0)
    for hyp, ref in pairs:
        total = total + compute_wer(hyp, ref)
    return total
