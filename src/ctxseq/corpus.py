"""Synthetic transcription task: corpora, features, and manifests.

"Audio" is a sequence of per-grapheme one-hot frames (letters plus space)
with Gaussian noise, each grapheme emitting 1..max frames; consecutive frames
are stacked 3 at a time and strided by 3. Test sets carry per-utterance bias
phrases; the out-of-vocabulary lexicon is disjoint from the training lexicon
by construction, so OOV spellings are reachable only through generalization.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tensor import load_tensors, save_tensors, substream
from .vocab import SPACE, Vocabulary, graphemize, normalize


@dataclass
class SyntheticTaskConfig:
    alphabet_size: int = 10
    lexicon_size: int = 40
    oov_lexicon_size: int = 60
    word_len_range: tuple[int, int] = (2, 5)
    utterance_words_range: tuple[int, int] = (2, 5)
    phrase_words_range: tuple[int, int] = (1, 2)
    frames_per_grapheme: tuple[int, int] = (1, 2)
    noise_std: float = 0.35
    carriers: tuple[str, ...] = ("play {phrase}", "call {phrase}", "talk to {phrase}")
    n_train: int = 300
    n_dev: int = 16
    n_test: int = 50
    distractors_per_utterance: int = 8
    talkto_names: int = 520
    talkto_utterances: int = 50
    talkto_multiword_share: float = 0.1
    seed: int = 0

    @property
    def alphabet(self) -> str:
        """Letters used by the carriers come first, padded up to alphabet_size."""
        if not 1 <= self.alphabet_size <= 26:
            raise ValueError("alphabet_size must be in [1, 26]")
        carrier_letters = sorted(
            {ch for c in self.carriers for ch in c.replace("{phrase}", "") if ch != " "}
        )
        if len(carrier_letters) > self.alphabet_size:
            raise ValueError(
                f"alphabet_size {self.alphabet_size} cannot cover the carrier letters "
                f"{''.join(carrier_letters)}"
            )
        filler = [ch for ch in string.ascii_lowercase if ch not in carrier_letters]
        return "".join(carrier_letters + filler[: self.alphabet_size - len(carrier_letters)])

    @property
    def raw_feature_dim(self) -> int:
        return self.alphabet_size + 1  # letters plus the space grapheme

    @property
    def feature_dim(self) -> int:
        return 3 * self.raw_feature_dim  # after frame stacking

    def vocabulary(self) -> Vocabulary:
        return Vocabulary.from_alphabet(list(self.alphabet))


@dataclass
class Utterance:
    id: str
    features_path: str
    transcript: str
    bias_phrases: list[str] = field(default_factory=list)
    bias_prefixes: list[str] | None = None

    def load_features(self) -> np.ndarray:
        return load_tensors(self.features_path)["features"]


# ---------------------------------------------------------------------------
# feature synthesis


def stack_frames(raw: np.ndarray, factor: int = 3) -> np.ndarray:
    """Stack `factor` consecutive frames and stride by the same factor."""
    k, d = raw.shape
    n_out = -(-k // factor)
    padded = np.zeros((n_out * factor, d))
    padded[:k] = raw
    return padded.reshape(n_out, factor * d)


def make_features(
    transcript: str, cfg: SyntheticTaskConfig, rng: np.random.Generator
) -> np.ndarray:
    """One-hot-plus-noise frames for each grapheme, then the stacking pipeline."""
    graphemes = [SPACE] + list(cfg.alphabet)
    index = {g: i for i, g in enumerate(graphemes)}
    lo, hi = cfg.frames_per_grapheme
    rows = []
    for tok in graphemize(transcript):
        n = int(rng.integers(lo, hi + 1))
        for _ in range(n):
            frame = np.zeros(cfg.raw_feature_dim)
            frame[index[tok]] = 1.0
            rows.append(frame + rng.normal(0.0, cfg.noise_std, cfg.raw_feature_dim))
    return stack_frames(np.array(rows))


# ---------------------------------------------------------------------------
# lexicon and transcripts


def _make_words(rng: np.random.Generator, cfg: SyntheticTaskConfig, count: int, taken: set[str]) -> list[str]:
    words = []
    lo, hi = cfg.word_len_range
    while len(words) < count:
        n = int(rng.integers(lo, hi + 1))
        w = "".join(rng.choice(list(cfg.alphabet)) for _ in range(n))
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


def _make_transcript(
    rng: np.random.Generator, cfg: SyntheticTaskConfig, lexicon: list[str], phrase: str
) -> str:
    carrier = cfg.carriers[int(rng.integers(0, len(cfg.carriers)))]
    text = carrier.format(phrase=phrase)
    lo, hi = cfg.utterance_words_range
    target = int(rng.integers(lo, hi + 1))
    words = text.split()
    while len(words) < target:
        words.append(lexicon[int(rng.integers(0, len(lexicon)))])
    return normalize(" ".join(words))


def _sample_phrase(rng: np.random.Generator, cfg: SyntheticTaskConfig, pool: list[str]) -> str:
    lo, hi = cfg.phrase_words_range
    n = int(rng.integers(lo, hi + 1))
    picks = rng.choice(len(pool), size=n, replace=False)
    return " ".join(pool[i] for i in picks)


@dataclass
class Corpus:
    config: SyntheticTaskConfig
    lexicon: list[str]
    oov_lexicon: list[str]
    manifests: dict[str, str]  # set name -> manifest path


def generate_corpus(cfg: SyntheticTaskConfig, outdir) -> Corpus:
    """Write train/dev/test manifests, feature files, and lexicon files."""
    outdir = Path(outdir)
    (outdir / "feats").mkdir(parents=True, exist_ok=True)
    taken: set[str] = set()
    lexicon = _make_words(substream(cfg.seed, "corpus/lexicon"), cfg, cfg.lexicon_size, taken)
    oov = _make_words(substream(cfg.seed, "corpus/oov"), cfg, cfg.oov_lexicon_size, taken)
    (outdir / "lexicon.txt").write_text("\n".join(lexicon) + "\n")
    (outdir / "oov_lexicon.txt").write_text("\n".join(oov) + "\n")

    manifests = {}

    def emit(name: str, utts: list[Utterance]) -> None:
        path = outdir / f"{name}.jsonl"
        write_manifest(path, utts)
        manifests[name] = str(path)

    def build(name: str, count: int, pool: list[str], biased: bool) -> list[Utterance]:
        rng = substream(cfg.seed, f"corpus/{name}")
        utts = []
        for i in range(count):
            phrase = _sample_phrase(rng, cfg, pool)
            transcript = _make_transcript(rng, cfg, lexicon, phrase)
            feats = make_features(transcript, cfg, rng)
            fpath = outdir / "feats" / f"{name}_{i:05d}.bin"
            save_tensors(fpath, {"features": feats})
            bias: list[str] = []
            if biased:
                distractor_pool = [w for w in oov if w not in phrase.split()]
                picks = rng.choice(
                    len(distractor_pool),
                    size=min(cfg.distractors_per_utterance, len(distractor_pool)),
                    replace=False,
                )
                bias = [phrase] + [distractor_pool[j] for j in picks]
            utts.append(
                Utterance(
                    id=f"{name}_{i:05d}",
                    features_path=str(fpath),
                    transcript=transcript,
                    bias_phrases=bias,
                )
            )
        return utts

    emit("train", build("train", cfg.n_train, lexicon, biased=False))
    emit("dev", build("dev", cfg.n_dev, lexicon, biased=False))
    emit("test_unbiased", build("test_unbiased", cfg.n_test, lexicon, biased=False))
    emit("test_biased", build("test_biased", cfg.n_test, oov, biased=True))
    emit("test_talkto", _build_talkto(cfg, outdir, lexicon, oov))

    return Corpus(config=cfg, lexicon=lexicon, oov_lexicon=oov, manifests=manifests)


def _build_talkto(cfg: SyntheticTaskConfig, outdir: Path, lexicon: list[str], oov: list[str]) -> list[Utterance]:
    """Talk-to style set: every utterance shares one large trigger-led phrase list."""
    rng = substream(cfg.seed, "corpus/talkto")
    pool = oov + lexicon
    names = []
    seen = set()
    while len(names) < cfg.talkto_names:
        if rng.random() < cfg.talkto_multiword_share:
            name = " ".join(pool[i] for i in rng.choice(len(pool), size=2, replace=False))
        else:
            name = pool[int(rng.integers(0, len(pool)))]
        if name not in seen:
            seen.add(name)
            names.append(name)
    phrases = [f"talk to {n}" for n in names]
    utts = []
    for i in range(cfg.talkto_utterances):
        name = names[int(rng.integers(0, len(names)))]
        transcript = normalize(f"talk to {name}")
        feats = make_features(transcript, cfg, rng)
        fpath = outdir / "feats" / f"talkto_{i:05d}.bin"
        save_tensors(fpath, {"features": feats})
        utts.append(
            Utterance(
                id=f"talkto_{i:05d}",
                features_path=str(fpath),
                transcript=transcript,
                bias_phrases=list(phrases),
            )
        )
    return utts


# ---------------------------------------------------------------------------
# manifest IO


def write_manifest(path, utts: list[Utterance]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for u in utts:
            record = {
                "id": u.id,
                "features_path": u.features_path,
                "transcript": u.transcript,
                "bias_phrases": u.bias_phrases,
            }
            if u.bias_prefixes is not None:
                record["bias_prefixes"] = u.bias_prefixes
            f.write(json.dumps(record) + "\n")


def read_manifest(path) -> list[Utterance]:
    """One JSON record per line; a record lacking `id`, `features_path` or
    `transcript` raises ValueError naming the field and line."""
    utts = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ValueError(f"{path}: line {lineno}: record is not a JSON object")
            for key in ("id", "features_path", "transcript"):
                if key not in rec:
                    raise ValueError(f"{path}: line {lineno}: record lacks field {key!r}")
            utts.append(
                Utterance(
                    id=rec["id"],
                    features_path=rec["features_path"],
                    transcript=rec["transcript"],
                    bias_phrases=rec.get("bias_phrases", []),
                    bias_prefixes=rec.get("bias_prefixes"),
                )
            )
    return utts
