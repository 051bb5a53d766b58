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

    def test_non_object_record_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('"id features_path transcript"\n')
        with pytest.raises(ValueError, match="line 1: record is not a JSON object"):
            read_manifest(path)
