from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxseq import decoding, experiments
from ctxseq import tensor as T
from ctxseq.cli import load_checkpoint
from ctxseq.conditioning import BiasEntry, PrefixTable, plain_entries, split_rule_based
from ctxseq.corpus import generate_corpus, read_manifest
from ctxseq.decoding import DecodeConfig, beam_search
from ctxseq.fst import END_OF_WORD, EVERY_SUBWORD, FusionScorer, compile_context
from ctxseq.model import DecoderStepState, ModelConfig, Recognizer, embed_phrases
from ctxseq.vocab import BIAS_END, EOS, SPACE, Vocabulary, normalize

from oracles import assert_same_results, enumerate_best, log_softmax, reference_beam_search


def tiny_model(seed=0, alphabet="ab") -> Recognizer:
    cfg = ModelConfig(
        feature_dim=3,
        encoder_layers=1,
        encoder_units=3,
        decoder_layers=1,
        decoder_units=3,
        attention_dim=2,
        attention_heads=1,
        bias_encoder_units=2,
        embedding_dim=2,
    )
    return Recognizer(cfg, Vocabulary.from_alphabet(alphabet), seed=seed)


def random_input(seed, frames=3):
    return np.random.default_rng(seed).normal(size=(frames, 3))


def encoded(model, xs):
    """One audio cache over the utterances of features `xs`."""
    return model.precompute_audio(model.encode_audio(xs), [len(x) for x in xs])


def prepare(model, x, phrases, entries=None):
    """`beam_search`'s prepared inputs: audio, embedded list, prefix table.
    With `entries` the phrases embedded are the entries' own."""
    prefixes = None
    if entries is not None:
        phrases, prefixes = [e.phrase for e in entries], PrefixTable([e.prefix for e in entries])
    return encoded(model, [x]), model.precompute_bias(embed_phrases(model, phrases)), prefixes


def decode(model, x, phrases, cfg, fusion=None, entries=None):
    audio, bias, prefixes = prepare(model, x, phrases, entries)
    return beam_search(model, audio, bias, cfg, fusion=fusion, prefixes=prefixes)[0]


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            DecodeConfig(beam_width=0)
        with pytest.raises(ValueError):
            DecodeConfig(beam_width=2, n_best=3)
        with pytest.raises(ValueError):
            DecodeConfig(lam=-0.1)
        with pytest.raises(ValueError, match="max_len must be >= 1, got 0"):
            DecodeConfig(max_len=0)
        for lam in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"lam must be a finite number >= 0, got {lam}"):
                DecodeConfig(lam=lam)


class TestEmbedPhrases:
    """Each distinct phrase is encoded once; `precompute_bias` keys it once
    and gathers it back into list order."""

    @given(
        seed=st.integers(0, 20),
        # Repeats, and phrases equal only after normalization.
        phrases=st.lists(st.sampled_from(["a", "A", "ab", "a b", " A  B ", "b a", "bab", "Bab"]), max_size=10),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_encoding_the_full_list(self, seed, phrases):
        # Not always bit for bit: where one batch runs an encoder step on a
        # single row and the other on several, BLAS takes a matrix-vector
        # kernel for the one row, which rounds differently (["a", "a"] at
        # seed 0 differs by 7e-21).
        model = tiny_model(seed=seed)
        h_z, (key_rows, key_of) = model.precompute_bias(embed_phrases(model, phrases))
        full = model.encode_bias(phrases)
        assert h_z.shape == full.data.shape
        assert np.abs(h_z - full.data).max() <= 1e-12
        for k in set(key_of.tolist()):  # the rows of one phrase share its bits
            same = h_z[key_of == k]
            assert (same == same[0]).all()
        assert key_rows.shape[0] == len({normalize(p) for p in phrases}) + 1
        assert np.abs(key_rows[key_of] - full.data @ model.params["bias_attn.wh"].data).max() <= 1e-12

    def test_each_distinct_phrase_encoded_once(self, monkeypatch):
        model = tiny_model(seed=1)
        encoded = []
        encode = model.encode_bias
        monkeypatch.setattr(model, "encode_bias", lambda phrases: encoded.append(phrases) or encode(phrases))
        _, key_of = embed_phrases(model, ["b a", "ab", "B  A", "ab"])
        assert encoded == [["b a", "ab"]] and key_of.tolist() == [0, 1, 2, 1, 2]
        phrases, key_of = embed_phrases(model, ["ab", "b"])
        assert key_of.tolist() == [0, 1, 2] and phrases.data.shape == (3, 2)


class TestBeamBasics:
    def test_beam_one_is_greedy(self):
        model = tiny_model(seed=2)
        x = random_input(0)
        cfg = DecodeConfig(beam_width=1, max_len=6)
        result = decode(model, x, [], cfg)[0]

        audio = encoded(model, [x])
        h_z, keys = model.precompute_bias(embed_phrases(model, []))
        state = model.initial_state(1)
        y_prev = model.vocab.sos
        tokens = []
        for _ in range(6):
            log_probs, _, state = model.step([y_prev], state, audio, h_z, np.zeros((1, 1), dtype=bool), keys)
            y_prev = int(np.argmax(log_probs[0]))
            if y_prev == model.vocab.eos:
                break
            tokens.append(model.vocab.symbols[y_prev])
        assert [s for s in result.raw_symbols] == tokens or result.finished

    def test_lambda_zero_ignores_fusion(self):
        model = tiny_model(seed=3)
        x = random_input(1)
        cfg = DecodeConfig(beam_width=4, max_len=5, lam=0.0, n_best=4)
        scorer = FusionScorer(compile_context(["a", "ab"], [SPACE, "a", "b"], EVERY_SUBWORD, 5.0))
        with_fusion = decode(model, x, ["a"], cfg, fusion=scorer)
        without = decode(model, x, ["a"], cfg, fusion=None)
        assert [r.tokens for r in with_fusion] == [r.tokens for r in without]
        assert [r.log_model for r in with_fusion] == [r.log_model for r in without]
        assert [r.total for r in with_fusion] == [r.total for r in without]

    def test_results_sorted_and_limited(self):
        model = tiny_model(seed=4)
        cfg = DecodeConfig(beam_width=6, max_len=4, n_best=3)
        results = decode(model, random_input(2), [], cfg)
        assert len(results) <= 3
        totals = [r.total for r in results]
        assert totals == sorted(totals, reverse=True)

    def test_unfinished_flagged_at_max_len(self):
        model = tiny_model(seed=5)
        model.params["output.b"].data[model.vocab.eos] = -50.0
        cfg = DecodeConfig(beam_width=2, max_len=3)
        results = decode(model, random_input(3), [], cfg)
        assert len(results) == 1
        assert not results[0].finished
        assert len(results[0].raw_symbols) == 3

    def test_bias_token_stripped_from_outputs(self):
        model = tiny_model(seed=6)
        model.params["output.b"].data[model.vocab.bias_end] = 5.0
        model.params["output.b"].data[model.vocab.eos] = 5.0
        cfg = DecodeConfig(beam_width=2, max_len=4, n_best=2)
        results = decode(model, random_input(4), ["a"], cfg)
        with_bias = [r for r in results if BIAS_END in r.raw_symbols]
        assert with_bias, "no hypothesis emitted the bias marker"
        for r in with_bias:
            assert BIAS_END not in r.tokens
            assert BIAS_END not in r.text

    def test_deterministic(self):
        model = tiny_model(seed=7)
        cfg = DecodeConfig(beam_width=3, max_len=5)
        x = random_input(5)
        a = decode(model, x, ["ab"], cfg)[0]
        b = decode(model, x, ["ab"], cfg)[0]
        assert a.tokens == b.tokens and a.total == b.total


class TestFusionByState:
    def test_bias_end_keeps_the_fusion_state(self, monkeypatch):
        # A scripted model whose best sequence puts `</bias>` inside the fused
        # word "abc": the marker neither moves the fusion state nor pays its
        # refund, so the word collects its whole bonus.
        model = tiny_model(seed=3, alphabet="abc")
        v = model.vocab
        script = {v.sos: "a", v.index("a"): BIAS_END, v.bias_end: "b", v.index("b"): "c", v.index("c"): EOS}
        table = np.full((len(v), len(v)), -5.0)
        for prev, nxt in script.items():
            table[prev, v.index(nxt)] = -0.1
        step = model.step

        def scripted_step(y_prev, *args):
            log_probs, alpha, state = step(y_prev, *args)
            log_probs[...] = table[np.asarray(y_prev)]
            return log_probs, alpha, state

        monkeypatch.setattr(model, "step", scripted_step)
        fusion = FusionScorer(compile_context(["abc", "cab"], [SPACE, "a", "b", "c"], EVERY_SUBWORD, 3.0))
        cfg = DecodeConfig(beam_width=4, max_len=6, lam=1.0, n_best=4)
        audio, bias, _ = prepare(model, random_input(5, frames=4), ["abc"])
        got = beam_search(model, audio, bias, cfg, fusion=fusion)[0]
        assert got[0].raw_symbols == ["a", BIAS_END, "b", "c"] and got[0].log_fusion == 3.0
        assert_same_results(got, reference_beam_search(model, audio, bias, cfg, fusion=fusion))


class TestMonotoneBeam:
    def test_wider_beam_never_hurts_top1(self):
        model = tiny_model(seed=8)
        for seed in range(5):
            x = random_input(seed + 10)
            best = -np.inf
            for width in (1, 2, 4, 8, 16):
                cfg = DecodeConfig(beam_width=width, max_len=4)
                total = decode(model, x, ["a"], cfg)[0].total
                assert total >= best - 1e-12
                best = max(best, total)


class TestConditioningIntegration:
    def test_all_empty_prefixes_bit_identical_to_off(self):
        model = tiny_model(seed=9)
        x = random_input(20)
        cfg = DecodeConfig(beam_width=4, max_len=5, n_best=2)
        phrases = ["a", "ab"]
        off = decode(model, x, phrases, cfg)
        on = decode(model, x, [], cfg, entries=plain_entries(phrases))
        assert [r.tokens for r in off] == [r.tokens for r in on]
        assert [r.total for r in off] == [r.total for r in on]
        assert [r.alphas.tobytes() for r in off] == [r.alphas.tobytes() for r in on]

    def test_masked_phrase_gets_zero_attention(self):
        model = tiny_model(seed=10)
        x = random_input(21)
        cfg = DecodeConfig(beam_width=1, max_len=4)
        entries = [BiasEntry("zzz", "ab")]  # prefix can never occur
        result = decode(model, x, [], cfg, entries=entries)[0]
        assert result.alphas[:, 1].max(initial=0.0) == 0.0

    def test_prefix_table_must_match_embedded_list(self):
        model = tiny_model(seed=13)
        audio, bias, _ = prepare(model, random_input(23), ["a", "b"])
        prefixes = PrefixTable(["a"])
        with pytest.raises(ValueError, match="prefix table has 2 rows, the embedded list 3"):
            beam_search(model, audio, bias, DecodeConfig(beam_width=2, max_len=3), prefixes=prefixes)

    def test_empty_list_decode_independent_of_previous_lists(self):
        model = tiny_model(seed=11)
        x = random_input(22)
        cfg = DecodeConfig(beam_width=2, max_len=5)
        first = decode(model, x, [], cfg)[0]
        decode(model, x, ["a", "b a"], cfg)
        decode(model, x, ["ab"], cfg)
        again = decode(model, x, [], cfg)[0]
        assert first.tokens == again.tokens
        assert first.total == again.total


class TestExhaustiveExactness:
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_top1_matches_enumeration(self, lam):
        model = tiny_model(seed=12)
        phrases = ["a", "ab"]
        scorer = FusionScorer(compile_context(phrases, [SPACE, "a", "b"], EVERY_SUBWORD, 4.0))
        max_len = 3
        vocab_size = len(model.vocab)
        cfg = DecodeConfig(beam_width=vocab_size**max_len, max_len=max_len, lam=lam)
        for seed in range(4):
            x = random_input(seed + 40)
            audio, bias, _ = prepare(model, x, phrases)
            got = beam_search(model, audio, bias, cfg, fusion=scorer)[0][0]
            want = enumerate_best(model, audio, phrases, max_len, lam, fusion=scorer)
            got_ids = [model.vocab.index(s) for s in got.raw_symbols] + [model.vocab.eos]
            assert got_ids == want["tokens"]
            assert got.total == pytest.approx(want["total"], abs=1e-12)


# Prefixes that open and close different rows for different partial strings.
CONDITIONED = [
    BiasEntry("", "ab"),
    BiasEntry("a", "b a"),
    BiasEntry("b", "a"),
    BiasEntry("a b", "ba"),
    BiasEntry("c", "abc"),
    BiasEntry("ab", "c"),
]


def audio_led_end(model: Recognizer) -> None:
    """Make the end-of-sequence logit follow the audio context strongly, so
    that utterances of one group often stop at different steps."""
    model.params["audio_attn.0.wv"].data[...] *= 20
    model.params["audio_attn.wo"].data[...] *= 20
    model.params["output.w"].data[model.vocab.eos, : model.config.attention_dim] = 100.0


def check_against_reference(
    seed, beam_width, n_best_frac, lam, with_fusion, conditioned, max_len, tied, frames=(4,), audio_led=False
):
    """One drawn case: `beam_search` over a group of utterances of `frames`
    frames each, every utterance against `reference_beam_search` alone."""
    model = tiny_model(seed=seed, alphabet="abc")
    if audio_led:
        audio_led_end(model)
    if tied:
        # Log-probs depend on the token alone, from two levels: totals
        # tie exactly, so the order among equal totals decides the beam.
        model.params["output.w"].data[...] = 0.0
        model.params["output.b"].data[...] = np.arange(len(model.vocab)) % 2
    n_best = 1 + int(n_best_frac * (beam_width - 1))
    cfg = DecodeConfig(beam_width=beam_width, max_len=max_len, lam=lam, n_best=n_best)
    phrases = ["ab", "b a", "c"]
    entries = CONDITIONED if conditioned else None
    fusion = None
    if with_fusion:
        fusion = FusionScorer(compile_context(phrases, [SPACE, "a", "b", "c"], EVERY_SUBWORD, 2.0))
    _, bias, prefixes = prepare(model, random_input(0), phrases, entries)
    audio = encoded(model, [random_input(seed + 100 + k, frames=n) for k, n in enumerate(frames)])
    got = beam_search(model, audio, bias, cfg, fusion=fusion, prefixes=prefixes)
    assert len(got) == len(frames)
    for k, g in enumerate(got):
        want = reference_beam_search(model, audio.take([k]), bias, cfg, fusion=fusion, entries=entries)
        assert_same_results(g, want, entries)


BEAM_CASES = dict(
    seed=st.integers(0, 30),
    beam_width=st.integers(1, 8),
    n_best_frac=st.floats(0.0, 1.0),
    lam=st.sampled_from([0.0, 0.5, 1.0]),
    with_fusion=st.booleans(),
    conditioned=st.booleans(),
    tied=st.booleans(),
)


class TestBatchedBeamMatchesReference:
    """One model step per beam step against one per live hypothesis, which
    runs every search to max_len."""

    @given(max_len=st.integers(1, 7), **BEAM_CASES)
    @settings(max_examples=150, deadline=None)
    def test_equals_reference(self, seed, beam_width, n_best_frac, lam, with_fusion, conditioned, max_len, tied):
        check_against_reference(seed, beam_width, n_best_frac, lam, with_fusion, conditioned, max_len, tied)

    @given(max_len=st.integers(8, 30), **BEAM_CASES)
    @settings(max_examples=40, deadline=None)
    def test_equals_reference_on_long_searches(
        self, seed, beam_width, n_best_frac, lam, with_fusion, conditioned, max_len, tied
    ):
        # Long enough that many of the searches stop early.
        check_against_reference(seed, beam_width, n_best_frac, lam, with_fusion, conditioned, max_len, tied)

    @given(frames=st.lists(st.integers(1, 6), min_size=2, max_size=4), max_len=st.integers(1, 24), **BEAM_CASES)
    @settings(max_examples=60, deadline=None)
    def test_groups_equal_reference(
        self, seed, beam_width, n_best_frac, lam, with_fusion, conditioned, max_len, tied, frames
    ):
        check_against_reference(
            seed, beam_width, n_best_frac, lam, with_fusion, conditioned, max_len, tied, frames, audio_led=True
        )

    def test_rows_with_different_masks(self):
        # The beam rows of one step carry different conditioning masks.
        model = tiny_model(seed=1, alphabet="abc")
        model.params["output.b"].data[model.vocab.eos] = -50.0
        cfg = DecodeConfig(beam_width=6, max_len=6, n_best=6)
        masks = []
        step = model.step

        def recording_step(y_prev, state, audio, h_z, closed, bias_keys):
            masks.append(np.array(closed))
            return step(y_prev, state, audio, h_z, closed, bias_keys)

        audio, bias, prefixes = prepare(model, random_input(3, frames=4), [], CONDITIONED)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "step", recording_step)
            got = beam_search(model, audio, bias, cfg, prefixes=prefixes)[0]
        assert any(len({row.tobytes() for row in m}) > 1 for m in masks)
        want = reference_beam_search(model, audio, bias, cfg, entries=CONDITIONED)
        assert_same_results(got, want, CONDITIONED)


class TestEarlyStop:
    """The search ends before max_len once no live row can still win, and
    only then; the reference always runs to max_len."""

    @staticmethod
    def decode_counting_steps(model, x, phrases, cfg, fusion):
        audio, bias, _ = prepare(model, x, phrases)
        calls = []
        step, take = model.step, DecoderStepState.take

        def counting_step(*args, **kwargs):
            calls.append("step")
            return step(*args, **kwargs)

        def counting_take(*args, **kwargs):
            calls.append("take")
            return take(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "step", counting_step)
            mp.setattr(DecoderStepState, "take", counting_take)
            got = beam_search(model, audio, bias, cfg, fusion=fusion)[0]
        assert_same_results(got, reference_beam_search(model, audio, bias, cfg, fusion=fusion))
        # The rows that leave, finished or stopped, leave in the step's one gather.
        assert calls == ["step", "take"] * (len(calls) // 2)
        return got, len(calls) // 2

    def test_stops_once_end_of_sequence_wins(self):
        model = tiny_model(seed=5, alphabet="abc")
        model.params["output.b"].data[model.vocab.eos] = 2.0  # `</s>` likely from the first step
        phrases = ["ab", "b a", "c"]
        fusion = FusionScorer(compile_context(phrases, [SPACE, "a", "b", "c"], EVERY_SUBWORD, 1.0))
        cfg = DecodeConfig(beam_width=4, max_len=20, lam=1.0, n_best=2)
        got, steps = self.decode_counting_steps(model, random_input(7, frames=4), phrases, cfg, fusion)
        assert len(got) == 2 and all(r.finished for r in got)
        assert steps < cfg.max_len // 2

    def test_waits_for_the_n_best_th_finished_total(self):
        # Log-probs set by the previous token: "</s>" finishes first and
        # best, "b</s>" second, at step 2, behind the live "ac", whose
        # "ac</s>" at step 3 takes second place. Stopping once every live
        # row trails the best finished total would return "b".
        model = tiny_model(seed=0, alphabet="abc")
        v = model.vocab
        a, b, c = (v.index(g) for g in "abc")
        logits = np.full((len(v), len(v)), -5.0)
        logits[v.sos, [v.eos, a, b]] = 3.0, 1.2, 0.5
        logits[a, c] = logits[b, v.eos] = logits[c, v.eos] = 3.0
        step = model.step

        def markov_step(y_prev, *args):
            _, alpha, state = step(y_prev, *args)
            return log_softmax(T.constant(logits[np.asarray(y_prev)])).data, alpha, state

        cfg = DecodeConfig(beam_width=3, max_len=10, n_best=2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "step", markov_step)
            got, steps = self.decode_counting_steps(model, random_input(0), [], cfg, None)
        assert [r.text for r in got] == ["", "ac"]
        assert steps == 3

    def test_fusion_gain_keeps_the_search_running(self):
        # The bonus of a long word comes on its last grapheme: the winner
        # repeats "cab" to max_len, long after `</s>` first led, while a
        # bound without the fusion gain would stop after two steps on "".
        model = tiny_model(seed=7, alphabet="abc")
        model.params["output.b"].data[model.vocab.eos] = 0.0
        phrases = ["abca", "cab"]
        fusion = FusionScorer(compile_context(phrases, [SPACE, "a", "b", "c"], END_OF_WORD, 6.0))
        cfg = DecodeConfig(beam_width=8, max_len=16, lam=1.0, n_best=1)
        got, steps = self.decode_counting_steps(model, random_input(107, frames=4), phrases, cfg, fusion)
        assert steps == cfg.max_len
        assert "".join(got[0].raw_symbols) == "cab" * 5 and got[0].finished

    def test_rows_leave_when_their_utterance_stops(self):
        # Decoded alone, the second utterance stops after 8 steps and the
        # others run to max_len; in one group, each step has the rows of
        # the utterances still running, as many as each has alone.
        model = tiny_model(seed=2, alphabet="abc")
        audio_led_end(model)
        phrases = ["ab", "b a", "c"]
        fusion = FusionScorer(compile_context(phrases, [SPACE, "a", "b", "c"], EVERY_SUBWORD, 1.0))
        cfg = DecodeConfig(beam_width=4, max_len=20, lam=1.0, n_best=2)
        _, bias, _ = prepare(model, random_input(0), phrases)
        audio = encoded(model, [random_input(7 + k, frames=n) for k, n in enumerate([2, 4, 6])])

        def rows_per_step(group):
            rows = []
            step = model.step

            def counting_step(y_prev, *args):
                rows.append(len(y_prev))
                return step(y_prev, *args)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(model, "step", counting_step)
                got = beam_search(model, group, bias, cfg, fusion=fusion)
            return rows, got

        alone = [rows_per_step(audio.take([k])) for k in range(3)]
        assert [len(rows) for rows, _ in alone] == [20, 8, 20]
        rows, got = rows_per_step(audio)
        assert rows == [sum(r[s] for r, _ in alone if s < len(r)) for s in range(20)]
        for g, (_, want) in zip(got, alone):
            assert_same_results(g, want[0])


class TestRealSizeBeamMatchesReference:
    """The committed benchmark checkpoint on three talk-to utterances decoded
    as one group, as the talk-to benchmark decodes them: the 520-phrase list
    split into 940 conditioning entries (941 bias rows), every-subword fusion
    at lambda 1, beam 8."""

    CHECKPOINT = Path(__file__).resolve().parent.parent / "perfbench" / "checkpoint"

    def test_equals_reference(self, tmp_path):
        model, run_cfg = load_checkpoint(self.CHECKPOINT)
        utts = read_manifest(generate_corpus(run_cfg.task(), tmp_path).manifests["test_talkto"])[:3]
        phrases = utts[0].bias_phrases
        assert all(u.bias_phrases == phrases for u in utts)
        entries = split_rule_based(phrases, trigger="talk to")
        bias = model.precompute_bias(embed_phrases(model, [e.phrase for e in entries]))
        prefixes = PrefixTable([e.prefix for e in entries])
        assert len(bias[0]) == 941
        fusion = FusionScorer(compile_context(phrases, model.vocab.graphemes, EVERY_SUBWORD, 1.0))
        cfg = DecodeConfig(beam_width=8, max_len=run_cfg.decode().max_len, lam=1.0)
        audio = encoded(model, [u.load_features() for u in utts])
        got = beam_search(model, audio, bias, cfg, fusion=fusion, prefixes=prefixes)
        for k, g in enumerate(got):
            want = reference_beam_search(model, audio.take([k]), bias, cfg, fusion=fusion, entries=entries)
            assert_same_results(g, want, entries)


class TestTracingContract:
    """The benchmark's traced run patches these call paths by name; its
    `model.*` and `conditioning.*` metrics rest on them."""

    def test_call_paths(self, monkeypatch):
        model = tiny_model(seed=2, alphabet="abc")
        model.params["output.b"].data[model.vocab.eos] = -50.0  # run to max_len
        cfg = DecodeConfig(beam_width=4, max_len=5)
        audio, bias_cache, prefixes = prepare(model, random_input(4), [], CONDITIONED)
        calls = {"mask": [], "step_rows": [], "h_z": [], "take": 0}
        compute_mask, step, attend_bias = decoding.compute_mask, model.step, model.attend_bias
        take = DecoderStepState.take
        asked = []  # the (state, mask) of each compute_mask call since the last step

        def counting_mask(*args, **kwargs):
            mask = compute_mask(*args, **kwargs)
            calls["mask"].append((mask.shape, mask.dtype))
            asked.append((args[1], mask))
            return mask

        def counting_step(*args, **kwargs):
            calls["step_rows"].append(len(np.atleast_1d(args[0])))
            # One mask per distinct prefix state of the step's rows, and
            # the rows of the step's `closed` are those masks.
            states = [state for state, _ in asked]
            assert len(states) == len(set(states)) <= calls["step_rows"][-1]
            assert {row.tobytes() for row in args[4]} == {mask.tobytes() for _, mask in asked}
            asked.clear()
            return step(*args, **kwargs)

        def counting_attend_bias(*args, **kwargs):
            calls["h_z"].append(args[1])
            return attend_bias(*args, **kwargs)

        def counting_take(*args, **kwargs):
            calls["take"] += 1
            return take(*args, **kwargs)

        monkeypatch.setattr(decoding, "compute_mask", counting_mask)
        monkeypatch.setattr(model, "step", counting_step)
        monkeypatch.setattr(model, "attend_bias", counting_attend_bias)
        monkeypatch.setattr(DecoderStepState, "take", counting_take)
        beam_search(model, audio, bias_cache, cfg, prefixes=prefixes)
        assert len(calls["step_rows"]) == cfg.max_len  # one model step per time step
        assert len(calls["step_rows"]) < len(calls["mask"]) < sum(calls["step_rows"])  # rows share states
        assert max(calls["step_rows"]) == cfg.beam_width
        assert set(calls["mask"]) == {((len(CONDITIONED) + 1,), np.dtype(bool))}
        assert len(calls["h_z"]) == cfg.max_len
        assert all(h is bias_cache[0] for h in calls["h_z"])
        assert calls["take"] == len(calls["step_rows"])  # one gather of the decoder state per step

    def test_experiments_embeds_through_the_model_function(self):
        # The benchmark times `model.embed_phrases` by patching this name.
        assert experiments.embed_phrases is embed_phrases
