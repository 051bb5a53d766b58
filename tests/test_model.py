import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctxseq import tensor as T
from ctxseq.model import DecoderStepState, ModelConfig, Recognizer, embed_phrases
from ctxseq.tensor import Tape
from ctxseq.vocab import BIAS_END, SPACE, Vocabulary, graphemize

from oracles import (
    add,
    finite_difference,
    full_alpha,
    matmul,
    matmul_t,
    max_rel_err,
    mul,
    reference_attend_bias,
    reference_encode_bias,
    reference_forward_loss,
    reference_output_log_probs,
    scale,
    softmax,
    sum_,
)

words = st.text(alphabet="ab", min_size=1, max_size=4)
phrase_lists = st.lists(st.lists(words, min_size=1, max_size=3).map(" ".join), max_size=8)
# sha256 of a fresh default-size model's params.bin (feature_dim 3, alphabet "ab", seed 7).
PINNED_PARAMS_SHA256 = "826926d31471c7df26dc8fffded48478e6686058d2785830da70a119e2353f96"


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        feature_dim=3,
        encoder_layers=1,
        encoder_units=2,
        decoder_layers=1,
        decoder_units=2,
        attention_dim=2,
        attention_heads=1,
        bias_encoder_units=2,
        embedding_dim=2,
    )
    base.update(overrides)
    return ModelConfig(**base)


def tiny_model(seed=0, **overrides) -> Recognizer:
    return Recognizer(tiny_config(**overrides), Vocabulary.from_alphabet("ab"), seed=seed)


def zero_all(model: Recognizer) -> None:
    for t in model.params.values():
        t.data[...] = 0.0


class TestConfig:
    def test_heads_must_divide_attention_dim(self):
        with pytest.raises(ValueError, match="divisible"):
            tiny_config(attention_dim=3, attention_heads=2)

    def test_head_count_must_be_positive(self):
        with pytest.raises(ValueError, match="attention_heads must be >= 1, got 0"):
            tiny_config(attention_heads=0)

    @pytest.mark.parametrize(
        "field, value",
        [("feature_dim", 0), ("encoder_layers", 0), ("encoder_units", 0), ("decoder_layers", 0),
         ("decoder_units", 0), ("attention_dim", 0), ("bias_encoder_units", -1), ("embedding_dim", 0)],
    )
    def test_layer_counts_and_sizes_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 1, got {value}"):
            tiny_config(**{field: value})


class TestEncodeAudio:
    def test_shape_contract(self):
        model = tiny_model()
        out = model.encode_audio([np.random.default_rng(0).normal(size=(5, 3))])
        assert out.data.shape == (5, 2)

    def test_zero_weights_zero_outputs(self):
        model = tiny_model()
        zero_all(model)
        out = model.encode_audio([np.ones((4, 3))])
        assert np.array_equal(out.data, np.zeros((4, 2)))

    def test_two_frame_hand_unrolled(self):
        model = tiny_model()
        x = np.array([[0.2, -0.1, 0.4], [0.0, 0.3, -0.2]])
        out = model.encode_audio([x])
        p = model.encoder[0]
        h = c = np.zeros((1, 2))
        for frame in x:
            h, c = T.lstm_cell(frame[None], h, c, p)
        assert np.abs(out.data[1] - h[0]).max() < 1e-12

    @given(seed=st.integers(0, 20), lengths=st.lists(st.integers(1, 7), min_size=1, max_size=6))
    @example(seed=2, lengths=[2, 5, 1, 5])
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_one_utterance_at_a_time(self, seed, lengths):
        model = tiny_model(seed=seed, encoder_layers=2)
        rng = np.random.default_rng(seed)
        xs = [rng.normal(size=(k, 3)) for k in lengths]
        w = rng.normal(size=(sum(lengths), 2))
        bounds = np.cumsum([0] + lengths)
        weights = [p for name, p in model.params.items() if name.startswith("audio_encoder.")]
        for p in weights:
            p.grad[...] = 0.0
        with Tape() as tape:
            out = model.encode_audio(xs)
            tape.backward(sum_(mul(out, T.constant(w))))
        got, batched = out.data, [p.grad.copy() for p in weights]
        for p in weights:
            p.grad[...] = 0.0
        want = []
        for x, a, b in zip(xs, bounds, bounds[1:]):
            with Tape() as tape:
                one = model.encode_audio([x])
                tape.backward(sum_(mul(one, T.constant(w[a:b]))))
            want.append(one.data)
        assert got.shape == (sum(lengths), 2)
        assert np.abs(got - np.vstack(want)).max() < 1e-12
        for g, p in zip(batched, weights):
            assert np.abs(g - p.grad).max() < 1e-12

    def test_errors(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            model.encode_audio([])
        with pytest.raises(ValueError):
            model.encode_audio([np.zeros((0, 3))])
        with pytest.raises(ValueError, match="feature dim"):
            model.encode_audio([np.zeros((2, 5))])


class TestLongestFirst:
    def test_one_layer_call_per_layer(self, monkeypatch):
        calls, layer = [], T.lstm_layer

        def counting(table, rows, lengths, params):
            calls.append(list(lengths))  # steps of each sequence
            return layer(table, rows, lengths, params)

        monkeypatch.setattr(T, "lstm_layer", counting)
        model = tiny_model(encoder_layers=3)
        model.encode_audio([np.zeros((k, 3)) for k in (2, 5, 3, 5)])
        assert calls == 3 * [[2, 5, 3, 5]]
        calls.clear()
        model.encode_bias(["ab ba", "a", "bbb"])  # 5, 1 and 3 graphemes
        assert calls == [[5, 1, 3]]


class TestEncodeBias:
    def test_empty_list_single_row(self):
        model = tiny_model()
        h_z = model.encode_bias([])
        assert h_z.data.shape == (1, 2)
        assert np.array_equal(h_z.data[0], model.params["no_bias"].data)

    def test_duplicate_phrases_bit_equal(self):
        model = tiny_model()
        h_z = model.encode_bias(["ab", "ab"])
        assert h_z.data[1].tobytes() == h_z.data[2].tobytes()

    def test_single_grapheme_hand_step(self):
        model = tiny_model()
        h_z = model.encode_bias(["a"])
        emb = model.params["embedding"].data[model.vocab.index("a")]
        h, _ = T.lstm_cell(emb[None], np.zeros((1, 2)), np.zeros((1, 2)), model.bias_encoder)
        assert np.abs(h_z.data[1] - h[0]).max() < 1e-12

    def test_empty_phrase_rejected(self):
        with pytest.raises(ValueError, match="empty phrase"):
            tiny_model().encode_bias(["a", ""])

    def test_order_equivariance(self):
        model = tiny_model()
        fwd = model.encode_bias(["a", "ab", "b a"]).data
        rev = model.encode_bias(["b a", "ab", "a"]).data
        assert np.array_equal(fwd[1], rev[3])
        assert np.array_equal(fwd[2], rev[2])
        assert np.array_equal(fwd[3], rev[1])
        assert np.array_equal(fwd[0], rev[0])


class TestBatchedEncodeBias:
    """`encode_bias` runs one LSTM pass over the whole list; the reference
    runs one chain per phrase."""

    @given(seed=st.integers(0, 20), phrases=phrase_lists)
    @settings(max_examples=60, deadline=None)
    def test_equals_per_phrase_reference(self, seed, phrases):
        model = tiny_model(seed=seed)
        got = model.encode_bias(phrases).data
        want = reference_encode_bias(model, phrases).data
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-12

    def bias_params(self, model):
        return {k: model.params[k] for k in ("embedding", "bias_encoder.w", "bias_encoder.b", "no_bias")}

    def test_gradients_on_unequal_lengths(self):
        model = tiny_model(seed=3)
        params = self.bias_params(model)
        phrases = ["ab ba", "a", "bb", "a b a b", "b"]
        w = T.constant(np.random.default_rng(12).normal(size=(len(phrases) + 1, 2)))

        def forward(encode):
            return sum_(mul(encode(model, phrases), w))

        with Tape() as tape:
            tape.backward(forward(Recognizer.encode_bias))
        batched = {k: t.grad.copy() for k, t in params.items()}
        fd = finite_difference(lambda: float(forward(Recognizer.encode_bias).data), params)
        for name, g in batched.items():
            assert max_rel_err(g, fd[name]) < 1e-6, name
        for t in params.values():
            t.grad[...] = 0.0
        with Tape() as tape:
            tape.backward(forward(reference_encode_bias))
        for name, t in params.items():
            assert np.abs(batched[name] - t.grad).max() < 1e-12, name

    def test_steps_after_a_phrase_ends_add_no_gradient(self):
        # Only the one-grapheme phrase's row is in the loss: the graphemes of
        # the longer phrase, which the batch keeps running, get zero gradient.
        model = tiny_model(seed=4)
        emb = model.params["embedding"]
        with Tape() as tape:
            h_z = model.encode_bias(["b b b", "a"])
            tape.backward(sum_(T.gather(h_z, np.array([2]))))
        for sym in ("b", SPACE):
            assert np.all(emb.grad[model.vocab.index(sym)] == 0.0), sym
        assert np.all(emb.grad[model.vocab.index("a")] != 0.0)


class TestBatchedStep:
    def test_rows_equal_single_steps(self):
        # Three hypotheses with different tokens, states and masks in one call.
        model = tiny_model(seed=5)
        rng = np.random.default_rng(13)
        audio = model.precompute_audio(model.encode_audio([rng.normal(size=(4, 3))]), [4])
        audio = replace(audio, closed=audio.closed[[0, 0, 0]])  # each row's own frames, as a beam passes them
        h_z, keys = model.precompute_bias(embed_phrases(model, ["a", "ab", "b a"]))
        y = np.array([model.vocab.index("a"), model.vocab.sos, model.vocab.index("b")])
        closed = np.array([[0, 1, 0, 0], [0, 0, 1, 1], [0, 1, 1, 0]], dtype=bool)
        state = model.initial_state(rows=3)
        state.context = rng.normal(size=(3, 4))
        state.layers = [(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))]
        log_probs, attention, new = model.step(y, state, audio, h_z, closed, keys)
        alpha = full_alpha(attention, 4)
        for b in range(3):
            one = slice(b, b + 1)
            single = DecoderStepState(layers=[(h[one], c[one]) for h, c in state.layers], context=state.context[one])
            lp, al, st1 = model.step(y[one], single, replace(audio, closed=audio.closed[one]), h_z, closed[one], keys)
            assert np.abs(log_probs[b] - lp[0]).max() < 1e-12
            assert np.abs(alpha[b] - full_alpha(al, 4)[0]).max() < 1e-12
            assert np.all(alpha[b][closed[b]] == 0.0)
            assert np.abs(new.context[b] - st1.context[0]).max() < 1e-12

    def test_mask_shape_must_match_rows(self):
        model = tiny_model()
        h_z, keys = model.precompute_bias(embed_phrases(model, ["a"]))
        with pytest.raises(ValueError, match="mask length"):
            model.attend_bias(np.zeros((2, 2)), h_z, np.zeros(2, dtype=bool), keys)
        with pytest.raises(ValueError, match="no-bias"):
            model.attend_bias(np.zeros((2, 2)), h_z, np.array([[0, 0], [1, 0]], dtype=bool), keys)


class TestRowLayout:
    def test_vector_inputs_are_rejected(self):
        # Each step method and row-wise op takes (B, ·) rows; a 1-D input
        # (a bare token id, a vector state, query or mask) is an error.
        model = tiny_model()
        assert all(t.shape[0] == 2 for t in model.initial_state(2).layers[0])
        audio = model.precompute_audio(model.encode_audio([np.zeros((2, 3))]), [2])
        h_z, keys = model.precompute_bias(embed_phrases(model, ["a"]))
        vec = np.zeros(2)
        vector_state = DecoderStepState(layers=[(vec, vec)], context=np.zeros(4))
        sos = model.vocab.sos
        calls = {
            "multi_head_attention": lambda: T.multi_head_attention(
                vec, [model.params["audio_attn.0.wq"]], audio.keys, audio.values, audio.closed,
                model.params["audio_attn.wo"],
            ),
            "additive_attention": lambda: T.additive_attention(
                vec, *(model.params[f"bias_attn.{k}"] for k in ("wd", "b")), keys[0], model.params["bias_attn.v"],
                keys[1], np.zeros((1, 2), dtype=bool), h_z,
            ),
            "output_layer": lambda: T.output_layer(np.zeros(6), model.params["output.w"], model.params["output.b"]),
            "lstm_cell": lambda: T.lstm_cell(np.zeros(6), vec, vec, model.decoder[0]),
            "decoder_step id": lambda: model.decoder_step(sos, model.initial_state(1)),
            "decoder_step state": lambda: model.decoder_step([sos], vector_state),
            "step": lambda: model.step(sos, model.initial_state(1), audio, h_z, np.zeros(2, dtype=bool), keys),
            "attend_audio": lambda: model.attend_audio(vec, audio),
            "attend_bias": lambda: model.attend_bias(vec, h_z, np.zeros(2, dtype=bool), keys),
        }
        accepted = []
        for name, call in calls.items():
            try:
                call()
            except ValueError:
                continue
            accepted.append(name)
        assert accepted == []


class TestAttendAudio:
    def test_single_frame_ignores_scores(self):
        model = tiny_model()
        rng = np.random.default_rng(1)
        h_x = T.constant(rng.normal(size=(1, 2)))
        cache = model.precompute_audio(h_x, [1])
        c1 = model.attend_audio(rng.normal(size=(1, 2)), cache)
        c2 = model.attend_audio(rng.normal(size=(1, 2)), cache)
        assert np.abs(c1 - c2).max() < 1e-12
        wv = model.params["audio_attn.0.wv"].data
        wo = model.params["audio_attn.wo"].data
        assert np.abs(c1[0] - wo @ (wv @ h_x.data[0])).max() < 1e-12

    def test_head_weights_sum_to_one(self):
        model = tiny_model(attention_dim=4, attention_heads=2)
        rng = np.random.default_rng(2)
        h_x = T.constant(rng.normal(size=(5, 2)))
        d = T.constant(rng.normal(size=2))
        cache = model.precompute_audio(h_x, [5])
        for h in range(2):
            q = model.params[f"audio_attn.{h}.wq"].data @ d.data
            scores = cache.keys[h] @ q / np.sqrt(2)
            alpha = softmax(T.constant(scores)).data
            assert abs(alpha.sum() - 1.0) <= 1e-12

    def test_rows_read_only_their_own_frames(self):
        # Two utterances stacked in one cache: each query row equals the
        # attention over its own utterance alone. (Training's form of this,
        # exact zero gradient across utterances, is in
        # TestBatchedForwardLoss.)
        model = tiny_model(attention_dim=4, attention_heads=2)
        rng = np.random.default_rng(15)
        h_x = T.constant(rng.normal(size=(5, 2)))
        d_t = rng.normal(size=(2, 2))
        out = model.attend_audio(d_t, model.precompute_audio(h_x, [3, 2]))
        for b, (start, end) in enumerate([(0, 3), (3, 5)]):
            own = model.precompute_audio(T.constant(h_x.data[start:end]), [end - start])
            alone = model.attend_audio(d_t[b : b + 1], own)
            assert np.abs(out[b] - alone[0]).max() < 1e-12
        with pytest.raises(ValueError, match="shape mismatch"):
            model.attend_audio(np.zeros((3, 2)), model.precompute_audio(h_x, [3, 2]))

    def test_one_utterance_is_one_open_mask_row(self):
        model = tiny_model()
        cache = model.precompute_audio(T.constant(np.ones((3, 2))), [3])
        assert cache.closed.dtype == bool and np.array_equal(cache.closed, [[False] * 3])

    def test_two_frame_one_head_hand_computation(self):
        model = tiny_model()
        rng = np.random.default_rng(3)
        h_x = rng.normal(size=(2, 2))
        d = rng.normal(size=2)
        got = model.attend_audio(d[None], model.precompute_audio(T.constant(h_x), [2]))[0]

        wq = model.params["audio_attn.0.wq"].data
        wk = model.params["audio_attn.0.wk"].data
        wv = model.params["audio_attn.0.wv"].data
        wo = model.params["audio_attn.wo"].data
        q = wq @ d
        scores = (h_x @ wk.T) @ q / np.sqrt(2)
        e = np.exp(scores - scores.max())
        alpha = e / e.sum()
        expected = wo @ (alpha @ (h_x @ wv.T))
        assert np.abs(got - expected).max() < 1e-12


class TestAudioCacheTake:
    """`AudioCache.take` gives the cache of some utterances: their frames in
    the order asked, and one own-frame mask row each."""

    LENGTHS = [3, 1, 4, 2]

    def cache(self):
        model = tiny_model(attention_dim=4, attention_heads=2)
        h_x = T.constant(np.random.default_rng(18).normal(size=(sum(self.LENGTHS), 2)))
        return model.precompute_audio(h_x, self.LENGTHS)

    def test_every_utterance_keeps_the_bytes(self):
        cache = self.cache()
        taken = cache.take(range(len(self.LENGTHS)))
        for got, want in zip(taken.keys + taken.values, cache.keys + cache.values):
            assert got.tobytes() == want.tobytes()
        assert taken.closed.tobytes() == cache.closed.tobytes()

    @pytest.mark.parametrize("members", [[2], [3, 0], [1, 3, 2], [2, 0, 2]], ids=str)
    def test_members_frames_and_own_frame_mask(self, members):
        # A repeated member gets its frames, and its own mask row, twice.
        cache = self.cache()
        first = np.cumsum(self.LENGTHS) - self.LENGTHS
        frames = np.concatenate([np.arange(first[u], first[u] + self.LENGTHS[u]) for u in members])
        taken = cache.take(members)
        for got, want in zip(taken.keys + taken.values, cache.keys + cache.values):
            assert got.tobytes() == want[frames].tobytes()
        lengths = [self.LENGTHS[u] for u in members]
        assert np.array_equal(taken.closed, np.repeat(np.arange(len(members)), lengths) != np.arange(len(members))[:, None])


class TestPrecompute:
    """A decode's keys and values are arrays with the bytes of the oracle
    ops' forwards, the expressions `attention_decoder` evaluates."""

    def test_audio_cache_is_the_matmul_t_forwards(self):
        model = tiny_model(attention_dim=4, attention_heads=2)
        h_x = T.constant(np.random.default_rng(20).normal(size=(7, 2)))
        cache = model.precompute_audio(h_x, [3, 4])
        for h in range(2):
            assert cache.keys[h].tobytes() == matmul_t(h_x, model.params[f"audio_attn.{h}.wk"]).data.tobytes()
            assert cache.values[h].tobytes() == matmul_t(h_x, model.params[f"audio_attn.{h}.wv"]).data.tobytes()
        assert all(type(a) is np.ndarray for a in cache.keys + cache.values)

    def test_bias_arrays_are_the_matmul_and_gather_forwards(self):
        model = tiny_model(seed=3)
        phrases, index = embed_phrases(model, ["ab", "b", "AB", "a b", "b"])
        values, (key_rows, key_of) = model.precompute_bias((phrases, index))
        assert index.tolist() == [0, 1, 2, 1, 3, 2]
        assert values.tobytes() == T.gather(phrases, index).data.tobytes()
        assert key_rows.tobytes() == matmul(phrases, model.params["bias_attn.wh"]).data.tobytes()
        assert key_of is index
        assert type(values) is type(key_rows) is np.ndarray and values.flags.c_contiguous


class TestAttendBias:
    def test_empty_bias_list(self):
        model = tiny_model()
        h_z, keys = model.precompute_bias(embed_phrases(model, []))
        c, (alpha, rows) = model.attend_bias(np.zeros((1, 2)), h_z, np.zeros((1, 1), dtype=bool), keys)
        assert np.array_equal(alpha, [[1.0]]) and np.array_equal(rows, [0])
        assert np.array_equal(c[0], model.params["no_bias"].data)

    def test_full_mask_keeps_only_no_bias(self):
        model = tiny_model()
        h_z, keys = model.precompute_bias(embed_phrases(model, ["a", "b", "ab"]))
        closed = np.array([[False, True, True, True]])
        c, attention = model.attend_bias(np.ones((1, 2)), h_z, closed, keys)
        assert np.array_equal(attention[1], [0])
        assert np.array_equal(full_alpha(attention, 4), [[1.0, 0.0, 0.0, 0.0]])
        assert np.abs(c[0] - model.params["no_bias"].data).max() < 1e-15

    def test_alpha_matches_direct_softmax(self):
        model = tiny_model()
        rng = np.random.default_rng(4)
        h_z, keys = model.precompute_bias(embed_phrases(model, ["a", "b"]))
        d = rng.normal(size=2)
        _, (alpha, _) = model.attend_bias(d[None], h_z, np.zeros((1, 3), dtype=bool), keys)
        wh = model.params["bias_attn.wh"].data
        wd = model.params["bias_attn.wd"].data
        b = model.params["bias_attn.b"].data
        v = model.params["bias_attn.v"].data
        u = np.tanh(h_z @ wh + wd @ d + b) @ v
        e = np.exp(u - u.max())
        assert np.abs(alpha[0] - e / e.sum()).max() < 1e-12

    def test_mask_validation(self):
        model = tiny_model()
        h_z, keys = model.precompute_bias(embed_phrases(model, ["a"]))
        with pytest.raises(ValueError, match="mask length"):
            model.attend_bias(np.zeros((1, 2)), h_z, np.zeros((1, 3), dtype=bool), keys)
        with pytest.raises(ValueError, match="no-bias"):
            model.attend_bias(np.zeros((1, 2)), h_z, np.array([[True, False]]), keys)
        with pytest.raises(ValueError, match="boolean"):  # a {0, inf} float mask
            model.attend_bias(np.zeros((1, 2)), h_z, np.array([[0.0, np.inf]]), keys)

    def test_permutation_invariance_of_context(self):
        model = tiny_model()
        rng = np.random.default_rng(5)
        d = rng.normal(size=(1, 2))
        phrases = ["a", "ab", "b a"]
        closed = np.array([[False, False, True, False]])
        h_z1, keys1 = model.precompute_bias(embed_phrases(model, phrases))
        c1, attention1 = model.attend_bias(d, h_z1, closed, keys1)
        perm_phrases = ["b a", "a", "ab"]
        perm_closed = np.array([[False, False, False, True]])
        h_z2, keys2 = model.precompute_bias(embed_phrases(model, perm_phrases))
        c2, attention2 = model.attend_bias(d, h_z2, perm_closed, keys2)
        a1, a2 = full_alpha(attention1, 4), full_alpha(attention2, 4)
        assert np.abs(c1 - c2).max() < 1e-12
        assert np.abs(a1[0, [0, 1, 2, 3]] - a2[0, [0, 2, 3, 1]]).max() < 1e-12

    def test_masked_entries_exactly_zero(self):
        model = tiny_model()
        rng = np.random.default_rng(6)
        h_z, keys = model.precompute_bias(embed_phrases(model, ["a", "b", "ab", "ba"]))
        for _ in range(50):
            closed = np.zeros((1, 5), dtype=bool)
            closed[0, 1 + rng.integers(0, 4)] = True
            _, attention = model.attend_bias(rng.normal(size=(1, 2)), h_z, closed, keys)
            alpha = full_alpha(attention, 5)
            assert abs(alpha.sum() - 1.0) <= 1e-12
            assert alpha[closed].max(initial=0.0) == 0.0


class TestSharedBiasKeys:
    """`attend_bias` scores each distinct key among the open rows once, only
    against the query rows it is open for, and gathers the scores back to
    rows; the reference scores every key against every query row, one key
    per row."""

    @given(seed=st.integers(0, 200))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_row_reference(self, seed):
        rng = np.random.default_rng(seed)
        model = tiny_model(seed=seed % 7)
        n_rows, n_keys, batch = int(rng.integers(2, 9)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        # Row 0 (no-bias) has its own key; the others share a few keys.
        key_of = np.concatenate([[0], rng.integers(1, n_keys + 1, size=n_rows - 1)])
        closed = rng.random((batch, n_rows)) < 0.4
        closed[:, rng.random(n_rows) < 0.2] = True  # rows closed for every query
        closed[:, 0] = False
        d_t = rng.normal(size=(batch, 2))
        h_z = rng.normal(size=(n_rows, 2))
        key_rows = rng.normal(size=(n_keys + 1, 2))
        c, attention = model.attend_bias(d_t, h_z, closed, (key_rows, key_of))
        alpha = full_alpha(attention, n_rows)
        want_c, want_alpha = reference_attend_bias(model, d_t, T.constant(h_z), closed, T.constant(key_rows[key_of]))
        assert np.abs(c - want_c).max() <= 1e-12
        assert np.abs(alpha - want_alpha).max() <= 1e-12
        assert np.all(alpha[closed] == 0.0)


class TestDecoderStep:
    def test_determinism(self):
        model = tiny_model()
        s = model.initial_state(1)
        d1, _ = model.decoder_step([model.vocab.index("a")], s)
        d2, _ = model.decoder_step([model.vocab.index("a")], s)
        assert d1.tobytes() == d2.tobytes()

    def test_zero_weights(self):
        model = tiny_model()
        zero_all(model)
        d, _ = model.decoder_step([model.vocab.sos], model.initial_state(1))
        assert np.array_equal(d, np.zeros((1, 2)))

    def test_hand_case(self):
        model = tiny_model()
        s = model.initial_state(1)
        tok = model.vocab.index("b")
        d, _ = model.decoder_step([tok], s)
        x = np.concatenate([model.params["embedding"].data[tok], np.zeros(4)])
        h, _ = T.lstm_cell(x[None], np.zeros((1, 2)), np.zeros((1, 2)), model.decoder[0])
        assert np.abs(d - h).max() < 1e-12

    def test_unknown_token(self):
        model = tiny_model()
        with pytest.raises(KeyError, match=r"unknown token ids \[99\]"):
            model.decoder_step([model.vocab.sos, 99], model.initial_state(2))


def output_distribution(model, c_t, d_t):
    return np.exp(reference_output_log_probs([c_t, d_t], model.params["output.w"], model.params["output.b"]).data)


class TestOutputDistribution:
    def test_zero_weights_uniform(self):
        model = tiny_model()
        model.params["output.w"].data[...] = 0.0
        model.params["output.b"].data[...] = 0.0
        p = output_distribution(model, T.constant(np.ones((1, 4))), T.constant(np.ones((1, 2))))
        assert np.abs(p - 1.0 / len(model.vocab)).max() < 1e-12

    def test_sums_to_one(self):
        model = tiny_model()
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = output_distribution(
                model, T.constant(rng.normal(size=(1, 4))), T.constant(rng.normal(size=(1, 2)))
            )
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_hand_case(self):
        model = tiny_model()
        c = np.array([0.1, -0.2, 0.3, 0.4])
        d = np.array([0.5, -0.6])
        got = output_distribution(model, T.constant([c]), T.constant([d]))[0]
        logits = model.params["output.w"].data @ np.concatenate([c, d]) + model.params["output.b"].data
        e = np.exp(logits - logits.max())
        assert np.abs(got - e / e.sum()).max() < 1e-12


class TestForwardLoss:
    def target(self, model, text_tokens):
        return [model.vocab.index(t) for t in text_tokens] + [model.vocab.eos]

    def test_uniform_model_loss(self):
        model = tiny_model()
        model.params["output.w"].data[...] = 0.0
        model.params["output.b"].data[...] = 0.0
        target = self.target(model, graphemize("ab a"))
        loss = model.forward_loss([np.zeros((3, 3))], embed_phrases(model, []), [target])
        assert abs(float(loss.data) - len(target) * np.log(len(model.vocab))) < 1e-9

    def test_memorizes_one_utterance(self):
        model = tiny_model(encoder_units=8, decoder_units=8, attention_dim=8,
                           bias_encoder_units=8, embedding_dim=4)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 3))
        target = self.target(model, graphemize("ab"))
        opt = T.Adam(model.params, lr=5e-2)
        losses = []
        for _ in range(50):
            with Tape() as tape:
                loss = model.forward_loss([x], embed_phrases(model, []), [target])
                opt.zero_grad()
                tape.backward(loss)
            opt.step()
            losses.append(float(loss.data))
        assert losses[-1] < 0.5 * losses[0]
        assert losses[-1] < losses[0]

    def test_empty_bias_list_equals_pinned_no_bias_forward(self):
        model = tiny_model(seed=3)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 3))
        target = self.target(model, graphemize("ba"))
        loss = float(model.forward_loss([x], embed_phrases(model, []), [target]).data)

        # reference: identical computation with the bias context pinned to the
        # no-bias vector instead of going through bias attention
        audio = model.precompute_audio(model.encode_audio([x]), [len(x)])
        state = model.initial_state(1)
        y_prev = model.vocab.sos
        total = 0.0
        for y in target:
            d_t, state = model.decoder_step([y_prev], state)
            c_x = model.attend_audio(d_t, audio)
            c_t = np.concatenate([c_x, model.params["no_bias"].data[None]], axis=-1)
            log_probs = reference_output_log_probs(
                [T.constant(c_t), T.constant(d_t)], model.params["output.w"], model.params["output.b"]
            )
            total -= float(log_probs.data[0, y])
            state.context = c_t
            y_prev = y
        assert loss == total

    def test_target_must_end_with_eos(self):
        model = tiny_model()
        with pytest.raises(ValueError, match="end-of-sequence"):
            model.forward_loss([np.zeros((2, 3))], embed_phrases(model, []), [[model.vocab.index("a")]])

    def test_token_outside_vocab(self):
        model = tiny_model()
        with pytest.raises(KeyError):
            model.forward_loss([np.zeros((2, 3))], embed_phrases(model, []), [[77, model.vocab.eos]])

    def test_bias_token_in_target_trains(self):
        model = tiny_model()
        target = self.target(model, graphemize("a") + [BIAS_END])
        loss = model.forward_loss([np.zeros((2, 3))], embed_phrases(model, ["a"]), [target])
        assert np.isfinite(loss.data)


TOKENS = st.sampled_from(["a", "b", SPACE, BIAS_END])
DEEP = dict(decoder_layers=2, attention_heads=2, encoder_layers=2)


class TestBatchedForwardLoss:
    """`forward_loss` runs a batch as one (B, ·) step per target position;
    the reference runs each utterance alone, sums the losses and scales
    the sum by 1 / B, the batch mean."""

    @staticmethod
    def loss_and_grads(model, loss_fn):
        for t in model.params.values():
            t.grad[...] = 0.0
        with Tape() as tape:
            loss = loss_fn()
            tape.backward(loss)
        return float(loss.data), {k: t.grad.copy() for k, t in model.params.items()}

    @given(
        seed=st.integers(0, 20),
        batch=st.lists(
            st.tuples(st.integers(1, 4), st.lists(TOKENS, max_size=4)), min_size=1, max_size=3
        ),
        phrases=phrase_lists,
        deep=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    @example(seed=0, batch=[(3, ["a", "b"])], phrases=[], deep=False)
    @example(seed=1, batch=[(1, ["a", SPACE, "b"]), (4, []), (2, ["b", BIAS_END])], phrases=["a b", "b"], deep=False)
    @example(seed=6, batch=[(4, ["a", "b", SPACE, "a"])], phrases=["a"], deep=False)
    @example(seed=2, batch=[(2, ["b", "a", BIAS_END]), (5, ["a"]), (1, [])], phrases=["ab", "a", "ab"], deep=True)
    @example(seed=9, batch=[(3, ["a", SPACE, "b", "b"])], phrases=[], deep=True)
    def test_equals_summed_reference(self, seed, batch, phrases, deep):
        # deep: a second decoder and encoder layer and a second audio head.
        model = tiny_model(seed=seed, **(DEEP if deep else {}))
        rng = np.random.default_rng(seed)
        xs = [rng.normal(size=(k, 3)) for k, _ in batch]
        targets = [[model.vocab.index(t) for t in tokens] + [model.vocab.eos] for _, tokens in batch]

        def reference():
            bias = embed_phrases(model, phrases)
            losses = [reference_forward_loss(model, x, bias, y) for x, y in zip(xs, targets)]
            total = losses[0]
            for loss in losses[1:]:
                total = add(total, loss)
            return scale(total, 1.0 / len(losses))

        got, got_grads = self.loss_and_grads(
            model, lambda: model.forward_loss(xs, embed_phrases(model, phrases), targets)
        )
        want, want_grads = self.loss_and_grads(model, reference)
        assert abs(got - want) < 1e-12
        for name, g in got_grads.items():
            assert np.abs(g - want_grads[name]).max() < 1e-12, name

    def test_padded_positions_get_zero_gradient(self):
        # End-of-sequence is the input of no real position, only of the
        # padded ones, so its embedding row gets no gradient.
        model = tiny_model(seed=7)
        rng = np.random.default_rng(17)
        xs = [rng.normal(size=(2, 3)), rng.normal(size=(4, 3))]
        tokens = (["a"], ["b", SPACE, "a", "a"])
        targets = [[model.vocab.index(t) for t in toks] + [model.vocab.eos] for toks in tokens]
        with Tape() as tape:
            tape.backward(model.forward_loss(xs, embed_phrases(model, []), targets))
        emb = model.params["embedding"].grad
        assert np.all(emb[model.vocab.eos] == 0.0)
        assert np.all(emb[model.vocab.index("a")] != 0.0)

    def test_frames_get_gradient_only_from_their_own_rows(self):
        # Utterance 0's frames, the encoder outputs (a leaf here), get
        # their gradient from utterance 0's rows alone: utterance 1's rows
        # add exactly 0 to it, so other frames and another target of the
        # same sizes for utterance 1 leave it bit for bit.
        model = tiny_model(seed=11, attention_dim=4, attention_heads=2)
        rng = np.random.default_rng(19)
        first = rng.normal(size=(3, 2))
        targets = [[model.vocab.index(t) for t in graphemize(text)] + [model.vocab.eos] for text in ("ab", "b a", "a b")]

        def frame_grad(second, target):
            h_x = T.parameter(np.vstack([first, second]))
            model.encode_audio = lambda xs: h_x
            with Tape() as tape:
                xs = [np.zeros((3, 3)), np.zeros((2, 3))]
                tape.backward(model.forward_loss(xs, embed_phrases(model, ["a"]), [targets[0], target]))
            return h_x.grad

        got = frame_grad(rng.normal(size=(2, 2)), targets[1])
        other = frame_grad(rng.normal(size=(2, 2)), targets[2])
        assert got[:3].tobytes() == other[:3].tobytes()
        assert np.all(got[:3] != 0.0) and np.all(got[3:] != other[3:])

    def test_batch_size_must_match(self):
        model = tiny_model()
        with pytest.raises(ValueError, match="2 utterances for 1 targets"):
            model.forward_loss([np.zeros((2, 3))] * 2, embed_phrases(model, []), [[model.vocab.eos]])


class TestFullModelGradients:
    def test_gradient_check_under_500_params(self):
        model = tiny_model(seed=1)
        assert model.param_count() <= 500
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 3))
        phrases = ["a"]
        target = [model.vocab.index(t) for t in graphemize("ab") + [BIAS_END]] + [model.vocab.eos]

        def forward():
            return model.forward_loss([x], embed_phrases(model, phrases), [target])

        with Tape() as tape:
            tape.backward(forward())
        fd = finite_difference(lambda: float(forward().data), model.params)
        # floor absorbs finite-difference noise on near-zero entries; a real
        # gradient bug surfaces at the scale of the gradient itself
        worst = {
            name: max_rel_err(t.grad, fd[name], floor=1e-4)
            for name, t in model.params.items()
        }
        offender = max(worst, key=worst.get)
        assert worst[offender] < 1e-4, f"{offender}: {worst[offender]}"

    def test_gradient_check_on_a_padded_batch_of_three(self):
        model = tiny_model(seed=8)
        rng = np.random.default_rng(18)
        xs = [rng.normal(size=(k, 3)) for k in (3, 1, 2)]
        tokens = (graphemize("ab"), graphemize("b") + [BIAS_END], graphemize("a b"))
        targets = [[model.vocab.index(t) for t in toks] + [model.vocab.eos] for toks in tokens]

        def forward():
            return model.forward_loss(xs, embed_phrases(model, ["b", "ab"]), targets)

        with Tape() as tape:
            tape.backward(forward())
        fd = finite_difference(lambda: float(forward().data), model.params)
        worst = {name: max_rel_err(t.grad, fd[name], floor=1e-4) for name, t in model.params.items()}
        offender = max(worst, key=worst.get)
        assert worst[offender] < 1e-4, f"{offender}: {worst[offender]}"


    @staticmethod
    def check_at_unit_scale(model, rng):
        for t in model.params.values():
            t.data[...] = rng.normal(size=t.data.shape)
        xs = [rng.normal(size=(k, 3)) for k in (3, 2)]
        tokens = (graphemize("ab") + [BIAS_END], graphemize("b a"))
        targets = [[model.vocab.index(t) for t in toks] + [model.vocab.eos] for toks in tokens]

        def forward():
            return model.forward_loss(xs, embed_phrases(model, ["ab", "b"]), targets)

        with Tape() as tape:
            tape.backward(forward())
        fd = finite_difference(lambda: float(forward().data), model.params)
        for name, t in model.params.items():
            assert np.abs(fd[name]).max() > 1e-3, name
            assert max_rel_err(t.grad, fd[name], floor=1e-4) < 1e-4, name

    def test_gradient_check_at_unit_scale_sees_every_path(self):
        # At the U(-0.05, 0.05) init the audio-attention query and key
        # gradients are about 1e-19, under the floor of max_rel_err, so the
        # checks above would pass with those paths dropped. With every
        # parameter drawn from N(0, 1) each one has entries well above it.
        self.check_at_unit_scale(tiny_model(seed=5), np.random.default_rng(15))

    def test_gradient_check_at_unit_scale_with_two_layers_and_heads(self):
        # The second decoder layer's recurrence and the second audio head;
        # heads of width 2, as with width 1 some head's gradients stay
        # under the floor.
        self.check_at_unit_scale(tiny_model(seed=3, attention_dim=4, **DEEP), np.random.default_rng(13))


class TestPersistence:
    def test_fresh_model_bytes_are_pinned(self, tmp_path):
        # Parameter names, their order and the draws from the seeded
        # generator fix these bytes.
        path = tmp_path / "params.bin"
        Recognizer(ModelConfig(feature_dim=3), Vocabulary.from_alphabet("ab"), seed=7).save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_PARAMS_SHA256

    def test_save_restore_round_trip(self, tmp_path):
        model = tiny_model(seed=5)
        path = tmp_path / "params.bin"
        model.save(path)
        clone = Recognizer(tiny_config(), model.vocab, seed=99)
        clone.load_arrays(T.load_tensors(path))
        for name in model.params:
            assert model.params[name].data.tobytes() == clone.params[name].data.tobytes()

    def test_shape_mismatch_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "params.bin"
        model.save(path)
        wrong = Recognizer(tiny_config(encoder_units=4), model.vocab)
        with pytest.raises(ValueError, match="shape mismatch"):
            wrong.load_arrays(T.load_tensors(path))

    def test_unknown_parameters_rejected(self, tmp_path):
        deeper = tiny_model(encoder_layers=2)
        path = tmp_path / "params.bin"
        deeper.save(path)
        with pytest.raises(ValueError, match=r"unknown parameters: \['audio_encoder.1.b', 'audio_encoder.1.w'\]"):
            tiny_model().load_arrays(T.load_tensors(path))

    def test_missing_parameter_rejected(self):
        model = tiny_model()
        arrays = {name: t.data for name, t in model.params.items() if name != "output.w"}
        with pytest.raises(ValueError, match=r"checkpoint missing parameters: \['output.w'\]"):
            model.load_arrays(arrays)
