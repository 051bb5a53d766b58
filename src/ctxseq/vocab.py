"""Grapheme inventory and text <-> token conversion.

Words are spelled as single-character graphemes; spaces between words become
an explicit `<space>` token. Three special symbols exist exactly once each:
start-of-sequence, end-of-sequence, and the bias-boundary marker `</bias>`.
"""

from __future__ import annotations

SOS = "<s>"
EOS = "</s>"
BIAS_END = "</bias>"
SPACE = "<space>"

_SPECIALS = (SOS, EOS, BIAS_END)


class Vocabulary:
    def __init__(self, symbols: list[str]):
        for s in _SPECIALS:
            if symbols.count(s) != 1:
                raise ValueError(f"vocabulary must contain {s!r} exactly once")
        if len(set(symbols)) != len(symbols):
            raise ValueError("duplicate symbols in vocabulary")
        self.symbols = list(symbols)
        self._index = {s: i for i, s in enumerate(symbols)}

    @classmethod
    def from_alphabet(cls, alphabet: str | list[str]) -> "Vocabulary":
        """Build the standard layout: specials, space, then the letters."""
        letters = list(alphabet)
        return cls([SOS, EOS, BIAS_END, SPACE] + letters)

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise KeyError(f"unknown token {symbol!r}") from None

    @property
    def sos(self) -> int:
        return self._index[SOS]

    @property
    def eos(self) -> int:
        return self._index[EOS]

    @property
    def bias_end(self) -> int:
        return self._index[BIAS_END]

    @property
    def graphemes(self) -> list[str]:
        """Symbols usable in spelled-out text (letters plus `<space>`)."""
        return [s for s in self.symbols if s not in _SPECIALS]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.symbols:
                f.write(s + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, "r", encoding="utf-8") as f:
            return cls([line.rstrip("\n") for line in f if line.rstrip("\n")])


def graphemize(text: str) -> list[str]:
    """Spell out text as grapheme tokens with explicit `<space>` separators."""
    tokens: list[str] = []
    for ch in normalize(text):
        tokens.append(SPACE if ch == " " else ch)
    return tokens


def render(tokens: list[str]) -> str:
    """Inverse of graphemize; drops structural specials and `</bias>`."""
    out = []
    for t in tokens:
        if t == SPACE:
            out.append(" ")
        elif t not in (SOS, EOS, BIAS_END):
            out.append(t)
    return "".join(out)


def normalize(text: str) -> str:
    """Lower-case and collapse runs of whitespace to single spaces."""
    return " ".join(text.lower().split())
