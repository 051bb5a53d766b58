import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxseq import experiments
from ctxseq.conditioning import BiasEntry, plain_entries
from ctxseq.corpus import Utterance
from ctxseq.decoding import DecodeConfig, DecodeResult, beam_search
from ctxseq.experiments import decode_corpus, distractor_sweep, per_bias_list, trend_spearman
from ctxseq.model import ModelConfig, Recognizer, embed_phrases
from ctxseq.tensor import save_tensors
from ctxseq.vocab import BIAS_END, Vocabulary

from oracles import assert_same_results


class TestTrendSpearman:
    def test_value_with_tied_wers(self):
        # scipy 1.17.1: spearmanr([0, 1, 2, 4, 8], [0.1, 0.2, 0.2, 0.15, 0.3])
        curve = [(0, 0.1), (1, 0.2), (2, 0.2), (4, 0.15), (8, 0.3)]
        assert trend_spearman(curve) == pytest.approx(0.6668859288553501, rel=1e-12)

    def test_monotone_curves(self):
        assert trend_spearman([(0, 0.1), (2, 0.3), (5, 0.9)]) == pytest.approx(1.0)
        assert trend_spearman([(0, 0.9), (2, 0.3), (5, 0.1)]) == pytest.approx(-1.0)

    def test_constant_input_is_nan(self):
        assert math.isnan(trend_spearman([(0, 0.2), (1, 0.2), (2, 0.2)]))
        assert math.isnan(trend_spearman([(4, 0.1), (4, 0.2)]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from([0.0, 0.1, 0.25, 0.5])), min_size=2, max_size=9))
    def test_invariant_under_monotone_transforms(self, curve):
        # Ranks alone matter: a strictly increasing map of either side
        # leaves the statistic unchanged.
        moved = [(3 * n + 7, np.exp(w)) for n, w in curve]
        a, b = trend_spearman(curve), trend_spearman(moved)
        assert (math.isnan(a) and math.isnan(b)) or a == pytest.approx(b, abs=1e-12)


def tiny_model() -> Recognizer:
    cfg = ModelConfig(
        feature_dim=3, encoder_layers=1, encoder_units=3, decoder_layers=1, decoder_units=3,
        attention_dim=2, attention_heads=1, bias_encoder_units=2, embedding_dim=2,
    )
    return Recognizer(cfg, Vocabulary.from_alphabet("ab"), seed=0)


def utterances(lists: list[list[str]]) -> list[Utterance]:
    return [Utterance(f"u{i}", "unused", "a b", bias_phrases=p) for i, p in enumerate(lists)]


def encoded(model: Recognizer, n: int):
    """One audio cache over `n` utterances of 3 random frames each."""
    xs = list(np.random.default_rng(0).normal(size=(n, 3, 3)))
    return model.precompute_audio(model.encode_audio(xs), [3] * n)


def on_disk(tmp_path, lengths: list[int], seed: int = 0) -> list[Utterance]:
    """Utterances of `lengths` frames of 3 random features, each in its own file."""
    rng = np.random.default_rng(seed)
    utts = []
    for i, k in enumerate(lengths):
        path = tmp_path / f"u{i}.bin"
        save_tensors(path, {"features": rng.normal(size=(k, 3))})
        utts.append(Utterance(f"u{i}", str(path), "a b", bias_phrases=["a", "b a"][: i % 3]))
    return utts


class TestPrepareAudio:
    """One encoder pass and one key/value projection serve every utterance;
    each utterance's rows of the cache are its one-utterance cache, up to
    rounding in the last bits."""

    @pytest.mark.parametrize("lengths", [[1], [4, 4], [5, 1, 7, 2], [3, 3, 1, 6, 3]], ids=str)
    def test_each_cache_equals_the_one_utterance_path(self, tmp_path, lengths):
        model, utts = tiny_model(), on_disk(tmp_path, lengths)
        audio = experiments.prepare_audio(model, utts)
        assert audio.closed.shape == (len(utts), sum(lengths))
        for k, u in enumerate(utts):
            cache, x = audio.take([k]), u.load_features()
            alone = model.precompute_audio(model.encode_audio([x]), [len(x)])
            for got, want in zip(cache.keys + cache.values, alone.keys + alone.values):
                assert got.data.shape == want.data.shape
                assert np.abs(got.data - want.data).max() <= 1e-13
            assert cache.closed.shape == (1, len(x)) and not cache.closed.any()

    def test_one_encoder_call(self, tmp_path):
        model, utts = tiny_model(), on_disk(tmp_path, [2, 6, 1])
        calls, encode = [], model.encode_audio
        model.encode_audio = lambda xs: calls.append(len(xs)) or encode(xs)
        experiments.prepare_audio(model, utts)
        assert calls == [3]

    def test_no_utterances(self):
        assert decode_corpus(tiny_model(), [], DecodeConfig()) == []

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda path: save_tensors(path, {"features": np.zeros((2, 5))}), "feature dim 5 does not match config 3"),
            (lambda path: path.write_bytes(path.read_bytes()[:-8]), "truncated tensor file while reading 'features'"),
        ],
        ids=["wrong-dim", "truncated"],
    )
    def test_bad_features_name_the_utterance(self, tmp_path, spoil, message):
        model, utts = tiny_model(), on_disk(tmp_path, [2, 3])
        spoil(tmp_path / "u1.bin")
        with pytest.raises(ValueError) as err:
            experiments.prepare_audio(model, utts)
        assert str(err.value) == f"utterance u1 ({utts[1].features_path}): {message}"

    def test_decode_corpus_equals_lone_decodes(self, tmp_path):
        model, utts = tiny_model(), on_disk(tmp_path, [5, 1, 7, 5, 2, 6], seed=3)
        cfg = DecodeConfig(beam_width=3, max_len=6)
        got = decode_corpus(model, utts, cfg)
        for r, u in zip(got, utts):
            x = u.load_features()
            audio = model.precompute_audio(model.encode_audio([x]), [len(x)])
            assert_same_results([r], beam_search(model, audio, embed_phrases(model, u.bias_phrases), cfg)[0][:1])


class TestOncePerDistinctList:
    LISTS = [["a", "b a"], ["b"], ["a", "b a"], ["b"], ["a", "b a"]]
    CFG = DecodeConfig(beam_width=2, max_len=4)

    def counting(self, monkeypatch, name: str) -> list:
        calls = []
        real = getattr(experiments, name)

        def wrapper(*args):
            calls.append(args[-1])
            return real(*args)

        monkeypatch.setattr(experiments, name, wrapper)
        return calls

    def test_decode_corpus_embeds_each_phrase_list_once(self, monkeypatch):
        model, utts = tiny_model(), utterances(self.LISTS)
        audio = encoded(model, len(utts))
        # each utterance decoded alone, with a list embedded for it alone
        alone = [
            beam_search(model, audio.take([k]), embed_phrases(model, u.bias_phrases), self.CFG)[0]
            for k, u in enumerate(utts)
        ]
        # the utterances that share a list decoded as one group: u0, u2, u4 and u1, u3
        grouped = {}
        for members in ([0, 2, 4], [1, 3]):
            bias = embed_phrases(model, utts[members[0]].bias_phrases)
            grouped.update(zip(members, beam_search(model, audio.take(members), bias, self.CFG)))
        embedded = self.counting(monkeypatch, "embed_phrases")
        got = decode_corpus(model, utts, self.CFG, audio=audio)
        assert embedded == [["a", "b a"], ["b"]]
        want = [grouped[i][0] for i in range(len(utts))]
        assert [(r.raw_symbols, r.total) for r in got] == [(r.raw_symbols, r.total) for r in want]
        for r, want in zip(got, alone):
            assert_same_results([r], want[:1])

    def test_decode_corpus_groups_at_most_group_utts(self, monkeypatch):
        model, utts = tiny_model(), utterances([["a"]] * 5)
        groups = []
        search = experiments.beam_search

        def noting_search(model, audio, *args, **kwargs):
            groups.append(len(audio.closed))
            return search(model, audio, *args, **kwargs)

        monkeypatch.setattr(experiments, "beam_search", noting_search)
        monkeypatch.setattr(experiments, "GROUP_UTTS", 2)
        assert len(decode_corpus(model, utts, self.CFG, audio=encoded(model, len(utts)))) == 5
        assert groups == [2, 2, 1]

    def test_decode_corpus_rejects_unequal_lengths(self):
        model, utts = tiny_model(), utterances(self.LISTS)
        with pytest.raises(ValueError, match="audio of 4 utterances for 5 utterances"):
            decode_corpus(model, utts, self.CFG, audio=encoded(model, 4))

    def test_decode_corpus_compiles_each_entry_list_once(self, monkeypatch):
        model, utts = tiny_model(), utterances(self.LISTS)
        embedded = self.counting(monkeypatch, "embed_phrases")
        compiled = self.counting(monkeypatch, "PrefixTable")
        audio = encoded(model, len(utts))
        entries_fn = lambda u: plain_entries(u.bias_phrases[:1])
        decode_corpus(model, utts, self.CFG, entries_fn=entries_fn, audio=audio)
        assert compiled == [("",)]  # the plain lists ["a"] and ["b"] share one table
        assert embedded == [["a"], ["b"]]
        compiled.clear(), embedded.clear()
        entries_fn = lambda u: [BiasEntry(p, "a") for p in u.bias_phrases]
        decode_corpus(model, utts, self.CFG, entries_fn=entries_fn, audio=audio)
        assert compiled == [("a", "b a"), ("b",)]
        assert embedded == [["a", "a"], ["a"]]

    def decode_noting_calls(self, with_entries: bool) -> list[tuple[str, str]]:
        """The (callback, utterance id) calls of one `decode_corpus` run."""
        model, utts = tiny_model(), utterances(self.LISTS[:2])
        calls = []

        def note(name, value):
            def fn(u):
                calls.append((name, u.id))
                return value(u)
            return fn

        decode_corpus(
            model, utts, self.CFG, audio=encoded(model, len(utts)),
            entries_fn=note("entries", lambda u: plain_entries(u.bias_phrases)) if with_entries else None,
            phrases_fn=note("phrases", lambda u: u.bias_phrases),
            fusion_per_utt=note("fusion", lambda u: None),
        )
        return calls

    def test_decode_corpus_callback_order(self):
        # Given entries, `phrases_fn` is not called: the entries' phrases are the ones embedded.
        assert self.decode_noting_calls(True) == [(name, u) for u in ("u0", "u1") for name in ("entries", "fusion")]

    def test_decode_corpus_callback_order_without_entries(self):
        assert self.decode_noting_calls(False) == [(name, u) for u in ("u0", "u1") for name in ("phrases", "fusion")]

    def test_per_bias_list_calls_once_per_list(self):
        seen = []

        def fn(phrases):
            seen.append(phrases)
            return len(seen)

        lookup = per_bias_list(fn)
        assert [lookup(u) for u in utterances(self.LISTS)] == [1, 2, 1, 2, 1]
        assert seen == [["a", "b a"], ["b"]]


class TestAttentionHitRate:
    @staticmethod
    def result(symbols: list[str], true_weights: list[float]) -> DecodeResult:
        """A decode whose step-k attention gives the true phrase (column 1) `true_weights[k]`."""
        alphas = np.array([[1 - w, w] for w in true_weights])
        return DecodeResult("", [], 0.0, 0.0, 0.0, True, symbols, alphas)

    def test_hit_is_a_weight_above_half_at_the_first_bias_end(self, monkeypatch):
        results = [
            self.result(["a", BIAS_END, "b", BIAS_END], [0.1, 0.75, 0.2, 0.1]),  # a hit
            self.result(["a", BIAS_END], [0.9, 0.5]),  # exactly 0.5 is no hit
            self.result(["a", BIAS_END, BIAS_END], [0.9, 0.25, 0.9]),  # only the first `</bias>` counts
            self.result(["a", "b"], [0.9, 0.9]),  # no `</bias>`
        ]
        monkeypatch.setattr(experiments, "decode_corpus", lambda model, utts, cfg: results)
        assert experiments.attention_hit_rate(None, utterances([["a"]] * 4), DecodeConfig()) == 0.25


def test_eval_wer_rejects_unequal_lengths():
    result = DecodeResult("a b", ["a", " ", "b"], 0.0, 0.0, 0.0, True, [], np.zeros((0, 1)))
    assert experiments.eval_wer([result], utterances([["a"]])).wer == 0.0
    with pytest.raises(ValueError, match="1 results for 2 utterances"):
        experiments.eval_wer([result], utterances([["a"], ["b"]]))


def test_distractor_pool_must_cover_the_largest_count():
    utts = utterances([["a"], ["b"]])
    with pytest.raises(ValueError, match="distractor pool of 2 cannot cover N=2"):
        distractor_sweep(tiny_model(), utts, ["a", "b"], [0, 2], DecodeConfig())
