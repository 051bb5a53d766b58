import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ctxseq.corpus import (
    SyntheticTaskConfig,
    generate_corpus,
    make_features,
    read_manifest,
    stack_frames,
)
from ctxseq.tensor import substream
from ctxseq.vocab import graphemize

SMALL = SyntheticTaskConfig(
    alphabet_size=8,
    lexicon_size=12,
    oov_lexicon_size=10,
    n_train=8,
    n_dev=2,
    n_test=4,
    talkto_names=12,
    talkto_utterances=3,
    distractors_per_utterance=3,
    seed=13,
)
# sha256 of the SMALL corpus: every file's path relative to the output
# directory and its bytes, in path order, with the output directory in the
# manifests replaced by "@".
PINNED_CORPUS_SHA256 = "250333a64837e87ccba6cf61fc53d257edd3e325ffae16c16bc1a2cc7ecd49d4"


class TestTaskConfigValidation:
    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(word_len_range=(0, 3)), r"word_len_range must have 1 <= lo <= hi, got \(0, 3\)"),
            (dict(word_len_range=(4, 3)), r"word_len_range must have 1 <= lo <= hi, got \(4, 3\)"),
            (dict(frames_per_grapheme=(0, 2)), r"frames_per_grapheme must have 1 <= lo <= hi, got \(0, 2\)"),
            (dict(frames_per_grapheme=(3, 2)), r"frames_per_grapheme must have 1 <= lo <= hi, got \(3, 2\)"),
            (dict(word_len_range=(1, 1)), "lexicon_size [+] oov_lexicon_size = 22 exceeds the 8 distinct words"),
            (dict(alphabet_size=2, carriers=("{phrase}",), word_len_range=(2, 3)), "= 22 exceeds the 12 distinct words of 2 letters"),
            (dict(talkto_names=485), "talkto_names = 485 exceeds the 484 distinct names"),
            (dict(talkto_names=23, talkto_multiword_share=0.0), "talkto_names = 23 exceeds the 22 distinct names"),
            (dict(talkto_names=463, talkto_multiword_share=1.0), "talkto_names = 463 exceeds the 462 distinct names"),
            (dict(talkto_names=0), "talkto_utterances = 3 needs talkto_names >= 1"),
            (dict(utterance_words_range=(0, 3)), r"utterance_words_range must have 1 <= lo <= hi, got \(0, 3\)"),
            (dict(phrase_words_range=(2, 1)), r"phrase_words_range must have 1 <= lo <= hi, got \(2, 1\)"),
            (dict(phrase_words_range=(1, 11)), "phrase_words_range allows 11 distinct words, more than lexicon_size 12 "
                                               "or oov_lexicon_size 10"),
            (dict(carriers=()), "carriers must not be empty"),
            (dict(carriers=("play {x}",)), r"carrier 'play \{x\}' must have a \{phrase\} field and no other"),
            (dict(carriers=("play {phrase} {x}",)), r"carrier 'play \{phrase\} \{x\}' must have a \{phrase\} field"),
            (dict(carriers=("play",)), r"carrier 'play' must have a \{phrase\} field and no other"),
            (dict(carriers=("play {",)), r"carrier 'play \{': Single '\{' encountered"),
            # The talk-to set always spells its trigger, whatever the carriers.
            (dict(alphabet_size=4, carriers=("play {phrase}",)), "alphabet_size 4 cannot cover the carrier and talk-to "
                                                                 "letters aklopty"),
            (dict(alphabet_size=2, carriers=("{phrase}",), word_len_range=(2, 4), lexicon_size=18, oov_lexicon_size=10),
             "alphabet_size 2 cannot cover the carrier and talk-to letters aklot"),
            (dict(noise_std=-1.0), "noise_std must be >= 0, got -1.0"),
            (dict(talkto_multiword_share=1.5), r"talkto_multiword_share must be in \[0, 1\], got 1.5"),
            (dict(talkto_multiword_share=-0.1), r"talkto_multiword_share must be in \[0, 1\], got -0.1"),
            (dict(lexicon_size=-5), "lexicon_size must be >= 0, got -5"),
            (dict(n_train=-1), "n_train must be >= 0, got -1"),
            (dict(distractors_per_utterance=-1), "distractors_per_utterance must be >= 0, got -1"),
            (dict(talkto_utterances=-1), "talkto_utterances must be >= 0, got -1"),
            (dict(alphabet_size=0), r"alphabet_size must be in \[1, 26\]"),
            (dict(alphabet_size=27), r"alphabet_size must be in \[1, 26\]"),
        ],
        ids=["lo-zero", "lo-above-hi", "frames-zero", "frames-lo-above-hi", "words-1-1", "words-2-3", "names", "names-single",
             "names-pairs", "no-names", "utterance-words", "phrase-words", "phrase-above-lexicon", "no-carriers",
             "carrier-field", "carrier-extra-field", "carrier-no-field", "carrier-brace", "talkto-letters", "talkto-letters-2",
             "noise", "share-above", "share-below", "lexicon", "n-train", "distractors", "talkto-utterances",
             "alphabet-zero", "alphabet-27"],
    )
    def test_undrawable_corpus_rejected(self, change, message):
        with pytest.raises(ValueError, match=message):
            replace(SMALL, **change)

    @pytest.mark.parametrize(
        "change",
        [dict(alphabet_size=2, carriers=("{phrase}",), word_len_range=(2, 4), lexicon_size=18, oov_lexicon_size=10,
              talkto_utterances=0),
         dict(talkto_names=484), dict(talkto_names=22, talkto_multiword_share=0.0),
         dict(talkto_names=462, talkto_multiword_share=1.0)],
    )
    def test_exactly_drawable_corpus_accepted(self, change, tmp_path):
        generate_corpus(replace(SMALL, **change), tmp_path)


class TestStacking:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 9])
    def test_frame_counts(self, k):
        raw = np.arange(k * 4, dtype=float).reshape(k, 4)
        stacked = stack_frames(raw)
        assert stacked.shape == (-(-k // 3), 12)

    def test_content_layout(self):
        raw = np.arange(12, dtype=float).reshape(4, 3)
        stacked = stack_frames(raw)
        assert np.array_equal(stacked[0], raw[:3].ravel())
        assert np.array_equal(stacked[1], np.concatenate([raw[3], np.zeros(6)]))


class TestFeatures:
    def test_noiseless_single_frame_is_exact_one_hot(self):
        cfg = replace(SMALL, noise_std=0.0, frames_per_grapheme=(1, 1))
        feats = make_features("ac a", cfg, substream(0, "t"))
        tokens = graphemize("ac a")
        raw_dim = cfg.raw_feature_dim
        assert feats.shape == (-(-len(tokens) // 3), 3 * raw_dim)
        unstacked = feats.reshape(-1, raw_dim)[: len(tokens)]
        assert np.array_equal(unstacked.sum(axis=1), np.ones(len(tokens)))
        assert set(np.unique(unstacked)) == {0.0, 1.0}

    def test_frames_per_grapheme_range(self):
        cfg = replace(SMALL, frames_per_grapheme=(2, 3), noise_std=0.0)
        tokens = graphemize("ack")
        feats = make_features("ack", cfg, substream(1, "t"))
        raw_frames_lo = -(-2 * len(tokens) // 3)
        raw_frames_hi = -(-3 * len(tokens) // 3)
        assert raw_frames_lo <= feats.shape[0] <= raw_frames_hi


class TestGenerateCorpus:
    def test_layout_and_disjointness(self, tmp_path):
        corpus = generate_corpus(SMALL, tmp_path)
        assert set(corpus.manifests) == {
            "train",
            "dev",
            "test_unbiased",
            "test_biased",
            "test_talkto",
        }
        assert not set(corpus.lexicon) & set(corpus.oov_lexicon)
        train_words = {
            w for u in read_manifest(corpus.manifests["train"]) for w in u.transcript.split()
        }
        assert not train_words & set(corpus.oov_lexicon)

    def test_biased_set_carries_true_phrase_and_distractors(self, tmp_path):
        corpus = generate_corpus(SMALL, tmp_path)
        for u in read_manifest(corpus.manifests["test_biased"]):
            assert len(u.bias_phrases) == 1 + SMALL.distractors_per_utterance
            true = u.bias_phrases[0]
            assert true in u.transcript
            for d in u.bias_phrases[1:]:
                assert d not in u.transcript.split()

    def test_talkto_set_shares_full_phrase_list(self, tmp_path):
        corpus = generate_corpus(SMALL, tmp_path)
        utts = read_manifest(corpus.manifests["test_talkto"])
        assert all(u.bias_phrases == utts[0].bias_phrases for u in utts)
        assert len(utts[0].bias_phrases) == SMALL.talkto_names
        for u in utts:
            assert u.transcript.startswith("talk to ")
            assert u.transcript in u.bias_phrases

    def test_features_load_and_match_dim(self, tmp_path):
        corpus = generate_corpus(SMALL, tmp_path)
        u = read_manifest(corpus.manifests["train"])[0]
        feats = u.load_features()
        assert feats.shape[1] == SMALL.feature_dim

    def test_relative_outdir_loads_from_elsewhere(self, tmp_path, monkeypatch):
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path)
        corpus = generate_corpus(SMALL, "corp")
        monkeypatch.chdir(tmp_path / "elsewhere")
        u = read_manifest(corpus.manifests["test_biased"])[0]
        assert Path(u.features_path).is_absolute()
        assert u.load_features().shape[1] == SMALL.feature_dim

    def test_deterministic_bytes(self, tmp_path):
        c1 = generate_corpus(SMALL, tmp_path / "one")
        c2 = generate_corpus(SMALL, tmp_path / "two")
        for name in c1.manifests:
            a = Path(c1.manifests[name]).read_text().replace(str(tmp_path / "one"), "@")
            b = Path(c2.manifests[name]).read_text().replace(str(tmp_path / "two"), "@")
            assert a == b
        f1 = sorted((tmp_path / "one" / "feats").iterdir())
        f2 = sorted((tmp_path / "two" / "feats").iterdir())
        assert [p.name for p in f1] == [p.name for p in f2]
        for p1, p2 in zip(f1, f2):
            assert p1.read_bytes() == p2.read_bytes()

    def test_corpus_bytes_are_pinned(self, tmp_path):
        # The seeded substreams and the order of draws within each fix these
        # bytes: manifests, lexicon files and feature files alike.
        generate_corpus(SMALL, tmp_path)
        digest = hashlib.sha256()
        for p in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
            data = p.read_bytes()
            if p.suffix == ".jsonl":
                data = data.replace(str(tmp_path).encode(), b"@")
            digest.update(str(p.relative_to(tmp_path)).encode() + b"\n" + data)
        assert digest.hexdigest() == PINNED_CORPUS_SHA256

    def test_manifest_round_trip(self, tmp_path):
        corpus = generate_corpus(SMALL, tmp_path)
        utts = read_manifest(corpus.manifests["test_biased"])
        assert utts[0].id == "test_biased_00000"
        assert utts[0].bias_prefixes is None

    @pytest.mark.parametrize("field", ["id", "features_path", "transcript"])
    def test_missing_field_names_field_and_line(self, tmp_path, field):
        record = {"id": "u1", "features_path": "f.bin", "transcript": "a b"}
        path = tmp_path / "m.jsonl"
        broken = {k: v for k, v in record.items() if k != field}
        path.write_text(json.dumps(record) + "\n\n" + json.dumps(broken) + "\n")
        with pytest.raises(ValueError, match=f"line 3: record lacks field '{field}'"):
            read_manifest(path)

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("id", 5, "is not a string"),
            ("features_path", None, "is not a string"),
            ("transcript", 5, "is not a string"),
            ("bias_phrases", 5, "is not a list of strings"),
            ("bias_phrases", ["a", 3], "is not a list of strings"),
            ("bias_phrases", None, "is not a list of strings"),
            ("bias_prefixes", "a", "is not null or a list of strings"),
            ("bias_prefixes", [None], "is not null or a list of strings"),
        ],
    )
    def test_wrong_field_type_names_field_and_line(self, tmp_path, field, value, kind):
        record = {"id": "u1", "features_path": "f.bin", "transcript": "a b"}
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(record) + "\n" + json.dumps({**record, field: value}) + "\n")
        with pytest.raises(ValueError, match=f"line 2: field '{field}' {kind}"):
            read_manifest(path)

    def test_null_prefixes_and_absent_lists_load(self, tmp_path):
        record = {"id": "u1", "features_path": "f.bin", "transcript": "a b", "bias_prefixes": None}
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(record) + "\n")
        (u,) = read_manifest(path)
        assert u.bias_phrases == [] and u.bias_prefixes is None

    def test_non_object_record_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('"id features_path transcript"\n')
        with pytest.raises(ValueError, match="line 1: record is not a JSON object"):
            read_manifest(path)
