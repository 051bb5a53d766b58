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

from .conditioning import TALKTO_TRIGGER
from .tensor import load_tensors, save_tensors, substream
from .vocab import SPACE, Vocabulary, graphemize, normalize

STACK = 3  # raw frames per stacked frame, and the stride


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

    def __post_init__(self):
        """Work out the alphabet, and reject a corpus that cannot be drawn: a
        negative count, size or noise level, a share outside [0, 1], a range
        without 1 <= lo <= hi, no carriers, a carrier whose fields are not
        just {phrase}, a phrase longer than a lexicon, more distinct words
        or names than exist (the generator draws until it has them), talk-to
        utterances without names, or more letters than `alphabet_size`."""
        if not 1 <= self.alphabet_size <= 26:
            raise ValueError("alphabet_size must be in [1, 26]")
        counts = ("lexicon_size", "oov_lexicon_size", "n_train", "n_dev", "n_test",
                  "distractors_per_utterance", "talkto_names", "talkto_utterances")
        for name in counts:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.noise_std >= 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        if not 0 <= self.talkto_multiword_share <= 1:
            raise ValueError(f"talkto_multiword_share must be in [0, 1], got {self.talkto_multiword_share}")
        for name in ("word_len_range", "utterance_words_range", "phrase_words_range", "frames_per_grapheme"):
            lo, hi = getattr(self, name)
            if not 1 <= lo <= hi:
                raise ValueError(f"{name} must have 1 <= lo <= hi, got {(lo, hi)}")
        if not self.carriers:
            raise ValueError("carriers must not be empty")
        for carrier in self.carriers:
            try:
                fields_in = {field for _, field, _, _ in string.Formatter().parse(carrier) if field is not None}
            except ValueError as exc:  # an unmatched brace
                raise ValueError(f"carrier {carrier!r}: {exc}") from None
            if fields_in != {"phrase"}:
                raise ValueError(f"carrier {carrier!r} must have a {{phrase}} field and no other")
        most = self.phrase_words_range[1]
        if most > min(self.lexicon_size, self.oov_lexicon_size):
            raise ValueError(f"phrase_words_range allows {most} distinct words, more than lexicon_size "
                             f"{self.lexicon_size} or oov_lexicon_size {self.oov_lexicon_size}")
        lo, hi = self.word_len_range
        pool, letters, words, n = self.lexicon_size + self.oov_lexicon_size, self.alphabet_size, 0, lo
        while words < pool and n <= hi:  # summed only as far as needed: the full sum can be huge
            words, n = words + letters**n, n + 1
        if words < pool:
            raise ValueError(f"lexicon_size + oov_lexicon_size = {pool} exceeds the {words} distinct words "
                             f"of {letters} letters in word_len_range {self.word_len_range}")
        # A name is one pool word or, at talkto_multiword_share, two different ones in order.
        names = pool * (self.talkto_multiword_share < 1) + pool * (pool - 1) * (self.talkto_multiword_share > 0)
        if self.talkto_names > names:
            raise ValueError(f"talkto_names = {self.talkto_names} exceeds the {names} distinct names "
                             f"{pool} words form at talkto_multiword_share {self.talkto_multiword_share}")
        if self.talkto_utterances and not self.talkto_names:
            raise ValueError(f"talkto_utterances = {self.talkto_utterances} needs talkto_names >= 1")
        # The letters the carriers spell, and the trigger when the talk-to set is drawn.
        spelled = [c.format(phrase="") for c in self.carriers] + [TALKTO_TRIGGER] * bool(self.talkto_utterances)
        spelled_letters = sorted(set(normalize(" ".join(spelled))) - {" "})
        if len(spelled_letters) > self.alphabet_size:
            raise ValueError(
                f"alphabet_size {self.alphabet_size} cannot cover the carrier and talk-to letters "
                f"{''.join(spelled_letters)}"
            )
        filler = [ch for ch in string.ascii_lowercase if ch not in spelled_letters]
        # Spelled letters come first, padded up to alphabet_size.
        self.alphabet = "".join(spelled_letters + filler[: self.alphabet_size - len(spelled_letters)])

    @property
    def raw_feature_dim(self) -> int:
        return self.alphabet_size + 1  # letters plus the space grapheme

    @property
    def feature_dim(self) -> int:
        return STACK * self.raw_feature_dim  # after frame stacking

    def vocabulary(self) -> Vocabulary:
        return Vocabulary.from_alphabet(self.alphabet)


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


def stack_frames(raw: np.ndarray) -> np.ndarray:
    """Stack `STACK` consecutive frames and stride by the same count."""
    k, d = raw.shape
    n_out = -(-k // STACK)
    padded = np.zeros((n_out * STACK, d))
    padded[:k] = raw
    return padded.reshape(n_out, STACK * d)


def make_features(
    transcript: str, cfg: SyntheticTaskConfig, rng: np.random.Generator
) -> np.ndarray:
    """One-hot-plus-noise frames for each grapheme, then the stacking pipeline."""
    eye = np.eye(cfg.raw_feature_dim)
    index = {g: i for i, g in enumerate([SPACE, *cfg.alphabet])}
    lo, hi = cfg.frames_per_grapheme
    blocks = []
    for tok in graphemize(transcript):
        n = int(rng.integers(lo, hi + 1))
        blocks.append(eye[index[tok]] + rng.normal(0.0, cfg.noise_std, (n, cfg.raw_feature_dim)))
    return stack_frames(np.concatenate(blocks))


# ---------------------------------------------------------------------------
# lexicon and transcripts


def _make_words(rng: np.random.Generator, cfg: SyntheticTaskConfig, count: int, taken: set[str]) -> list[str]:
    words = []
    lo, hi = cfg.word_len_range
    letters = list(cfg.alphabet)
    while len(words) < count:
        n = int(rng.integers(lo, hi + 1))
        w = "".join(rng.choice(letters) for _ in range(n))
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
    lexicon: list[str]
    oov_lexicon: list[str]
    manifests: dict[str, str]  # set name -> manifest path


def generate_corpus(cfg: SyntheticTaskConfig, outdir) -> Corpus:
    """Write train/dev/test manifests, feature files, and lexicon files. The
    manifests give absolute feature paths, so they load from any directory."""
    outdir = Path(outdir).absolute()
    (outdir / "feats").mkdir(parents=True, exist_ok=True)
    taken: set[str] = set()
    lexicon = _make_words(substream(cfg.seed, "corpus/lexicon"), cfg, cfg.lexicon_size, taken)
    oov = _make_words(substream(cfg.seed, "corpus/oov"), cfg, cfg.oov_lexicon_size, taken)
    (outdir / "lexicon.txt").write_text("\n".join(lexicon) + "\n")
    (outdir / "oov_lexicon.txt").write_text("\n".join(oov) + "\n")

    def build(name: str, count: int, pool: list[str], biased: bool) -> list[Utterance]:
        rng = substream(cfg.seed, f"corpus/{name}")
        utts = []
        for i in range(count):
            phrase = _sample_phrase(rng, cfg, pool)
            transcript = _make_transcript(rng, cfg, lexicon, phrase)
            utt = _write_utterance(outdir, f"{name}_{i:05d}", transcript, cfg, rng)
            if biased:
                distractor_pool = [w for w in oov if w not in phrase.split()]
                picks = rng.choice(
                    len(distractor_pool),
                    size=min(cfg.distractors_per_utterance, len(distractor_pool)),
                    replace=False,
                )
                utt.bias_phrases = [phrase] + [distractor_pool[j] for j in picks]
            utts.append(utt)
        return utts

    sets = {
        "train": build("train", cfg.n_train, lexicon, biased=False),
        "dev": build("dev", cfg.n_dev, lexicon, biased=False),
        "test_unbiased": build("test_unbiased", cfg.n_test, lexicon, biased=False),
        "test_biased": build("test_biased", cfg.n_test, oov, biased=True),
        "test_talkto": _build_talkto(cfg, outdir, lexicon, oov),
    }
    manifests = {name: str(outdir / f"{name}.jsonl") for name in sets}
    for name, utts in sets.items():
        write_manifest(manifests[name], utts)
    return Corpus(lexicon=lexicon, oov_lexicon=oov, manifests=manifests)


def _write_utterance(
    outdir: Path, uid: str, transcript: str, cfg: SyntheticTaskConfig, rng: np.random.Generator
) -> Utterance:
    """Draw the features of `transcript`, write them to `feats/<uid>.bin`, and
    return the utterance with an empty bias list."""
    fpath = outdir / "feats" / f"{uid}.bin"
    save_tensors(fpath, {"features": make_features(transcript, cfg, rng)})
    return Utterance(id=uid, features_path=str(fpath), transcript=transcript)


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
    phrases = [f"{TALKTO_TRIGGER} {n}" for n in names]
    utts = []
    for i in range(cfg.talkto_utterances):
        name = names[int(rng.integers(0, len(names)))]
        utt = _write_utterance(outdir, f"talkto_{i:05d}", normalize(f"{TALKTO_TRIGGER} {name}"), cfg, rng)
        utt.bias_phrases = phrases
        utts.append(utt)
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
    """One JSON record per line. A record lacking `id`, `features_path` or
    `transcript`, or with a field of the wrong type (`id`, `features_path`
    and `transcript` strings, `bias_phrases` a list of strings,
    `bias_prefixes` null or a list of strings), or with a `bias_prefixes`
    list whose length differs from that of `bias_phrases`, raises ValueError
    naming the field and line."""
    utts = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except RecursionError:
                raise ValueError(f"{path}: line {lineno}: record nests too deeply") from None
            if not isinstance(rec, dict):
                raise ValueError(f"{path}: line {lineno}: record is not a JSON object")
            for key in ("id", "features_path", "transcript"):
                if key not in rec:
                    raise ValueError(f"{path}: line {lineno}: record lacks field {key!r}")
                if not isinstance(rec[key], str):
                    raise ValueError(f"{path}: line {lineno}: field {key!r} is not a string")
            phrases = rec.get("bias_phrases", [])
            if not _is_str_list(phrases):
                raise ValueError(f"{path}: line {lineno}: field 'bias_phrases' is not a list of strings")
            prefixes = rec.get("bias_prefixes")
            if prefixes is not None and not _is_str_list(prefixes):
                raise ValueError(f"{path}: line {lineno}: field 'bias_prefixes' is not null or a list of strings")
            if prefixes is not None and len(prefixes) != len(phrases):
                raise ValueError(
                    f"{path}: line {lineno}: field 'bias_prefixes' has length {len(prefixes)}, "
                    f"field 'bias_phrases' length {len(phrases)}"
                )
            utts.append(
                Utterance(
                    id=rec["id"],
                    features_path=rec["features_path"],
                    transcript=rec["transcript"],
                    bias_phrases=phrases,
                    bias_prefixes=prefixes,
                )
            )
    return utts


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)
