import numpy as np
import pytest

from ctxseq import tensor as T
from ctxseq.model import ModelConfig, Recognizer
from ctxseq.tensor import Tape
from ctxseq.vocab import BIAS_END, Vocabulary, graphemize

from oracles import finite_difference, max_rel_err


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

    def test_production_scale_preset(self):
        cfg = ModelConfig.production_scale(feature_dim=240)
        assert (cfg.encoder_layers, cfg.encoder_units) == (10, 256)
        assert (cfg.decoder_layers, cfg.decoder_units) == (4, 256)
        assert (cfg.attention_dim, cfg.attention_heads) == (512, 4)
        assert cfg.bias_encoder_units == 512


class TestEncodeAudio:
    def test_shape_contract(self):
        model = tiny_model()
        out = model.encode_audio(np.random.default_rng(0).normal(size=(5, 3)))
        assert out.data.shape == (5, 2)

    def test_zero_weights_zero_outputs(self):
        model = tiny_model()
        zero_all(model)
        out = model.encode_audio(np.ones((4, 3)))
        assert np.array_equal(out.data, np.zeros((4, 2)))

    def test_two_frame_hand_unrolled(self):
        model = tiny_model()
        x = np.array([[0.2, -0.1, 0.4], [0.0, 0.3, -0.2]])
        out = model.encode_audio(x)
        p = model.encoder[0]
        h = T.constant(np.zeros(2))
        c = T.constant(np.zeros(2))
        for frame in x:
            h, c = T.lstm_cell(T.constant(frame), h, c, p)
        assert np.abs(out.data[1] - h.data).max() < 1e-12

    def test_errors(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            model.encode_audio(np.zeros((0, 3)))
        with pytest.raises(ValueError, match="feature dim"):
            model.encode_audio(np.zeros((2, 5)))


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
        h, _ = T.lstm_cell(
            T.constant(emb), T.constant(np.zeros(2)), T.constant(np.zeros(2)), model.bias_encoder
        )
        assert np.abs(h_z.data[1] - h.data).max() < 1e-12

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


class TestAttendAudio:
    def test_single_frame_ignores_scores(self):
        model = tiny_model()
        rng = np.random.default_rng(1)
        h_x = T.constant(rng.normal(size=(1, 2)))
        c1 = model.attend_audio(T.constant(rng.normal(size=2)), h_x)
        c2 = model.attend_audio(T.constant(rng.normal(size=2)), h_x)
        assert np.abs(c1.data - c2.data).max() < 1e-12
        wv = model.params["audio_attn.0.wv"].data
        wo = model.params["audio_attn.wo"].data
        assert np.abs(c1.data - wo @ (wv @ h_x.data[0])).max() < 1e-12

    def test_head_weights_sum_to_one(self):
        model = tiny_model(attention_dim=4, attention_heads=2)
        rng = np.random.default_rng(2)
        h_x = T.constant(rng.normal(size=(5, 2)))
        d = T.constant(rng.normal(size=2))
        cache = model.precompute_audio(h_x)
        for h in range(2):
            q = model.params[f"audio_attn.{h}.wq"].data @ d.data
            scores = cache.keys[h].data @ q / np.sqrt(2)
            alpha = T.softmax(T.constant(scores)).data
            assert abs(alpha.sum() - 1.0) <= 1e-12

    def test_two_frame_one_head_hand_computation(self):
        model = tiny_model()
        rng = np.random.default_rng(3)
        h_x = rng.normal(size=(2, 2))
        d = rng.normal(size=2)
        got = model.attend_audio(T.constant(d), T.constant(h_x)).data

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


class TestAttendBias:
    def test_empty_bias_list(self):
        model = tiny_model()
        h_z = model.encode_bias([])
        c, alpha = model.attend_bias(T.constant(np.zeros(2)), h_z, np.zeros(1))
        assert np.array_equal(alpha.data, [1.0])
        assert np.array_equal(c.data, model.params["no_bias"].data)

    def test_full_mask_keeps_only_no_bias(self):
        model = tiny_model()
        h_z = model.encode_bias(["a", "b", "ab"])
        mask = np.array([0.0, np.inf, np.inf, np.inf])
        c, alpha = model.attend_bias(T.constant(np.ones(2)), h_z, mask)
        assert np.array_equal(alpha.data, [1.0, 0.0, 0.0, 0.0])
        assert np.abs(c.data - model.params["no_bias"].data).max() < 1e-15

    def test_alpha_matches_direct_softmax(self):
        model = tiny_model()
        rng = np.random.default_rng(4)
        h_z = model.encode_bias(["a", "b"])
        d = rng.normal(size=2)
        _, alpha = model.attend_bias(T.constant(d), h_z, np.zeros(3))
        wh = model.params["bias_attn.wh"].data
        wd = model.params["bias_attn.wd"].data
        b = model.params["bias_attn.b"].data
        v = model.params["bias_attn.v"].data
        u = np.tanh(h_z.data @ wh + wd @ d + b) @ v
        e = np.exp(u - u.max())
        assert np.abs(alpha.data - e / e.sum()).max() < 1e-12

    def test_mask_validation(self):
        model = tiny_model()
        h_z = model.encode_bias(["a"])
        with pytest.raises(ValueError, match="mask length"):
            model.attend_bias(T.constant(np.zeros(2)), h_z, np.zeros(3))
        with pytest.raises(ValueError, match="no-bias"):
            model.attend_bias(T.constant(np.zeros(2)), h_z, np.array([np.inf, 0.0]))

    def test_permutation_invariance_of_context(self):
        model = tiny_model()
        rng = np.random.default_rng(5)
        d = T.constant(rng.normal(size=2))
        phrases = ["a", "ab", "b a"]
        mask = np.array([0.0, 0.0, np.inf, 0.0])
        c1, a1 = model.attend_bias(d, model.encode_bias(phrases), mask)
        perm_phrases = ["b a", "a", "ab"]
        perm_mask = np.array([0.0, 0.0, 0.0, np.inf])
        c2, a2 = model.attend_bias(d, model.encode_bias(perm_phrases), perm_mask)
        assert np.abs(c1.data - c2.data).max() < 1e-12
        assert np.abs(a1.data[[0, 1, 2, 3]] - a2.data[[0, 2, 3, 1]]).max() < 1e-12

    def test_masked_entries_exactly_zero(self):
        model = tiny_model()
        rng = np.random.default_rng(6)
        h_z = model.encode_bias(["a", "b", "ab", "ba"])
        for _ in range(50):
            mask = np.zeros(5)
            mask[1 + rng.integers(0, 4)] = np.inf
            _, alpha = model.attend_bias(T.constant(rng.normal(size=2)), h_z, mask)
            assert abs(alpha.data.sum() - 1.0) <= 1e-12
            assert alpha.data[mask == np.inf].max(initial=0.0) == 0.0

    @pytest.mark.parametrize(
        "mask",
        [np.zeros(5), np.array([0.0, np.inf, 0.0, np.inf, 0.0])],
        ids=["all-open", "partly-closed"],
    )
    def test_gradient_check_under_mask(self, mask):
        # Covers both sides of attend_bias: every row scored, and only the
        # open rows gathered, scored and scattered back.
        model = tiny_model(seed=2)
        rng = np.random.default_rng(11)
        params = {
            "d_t": T.parameter(rng.normal(size=2)),
            "h_z": T.parameter(rng.normal(size=(5, 2))),
            "keys": T.parameter(rng.normal(size=(5, 2))),
            **{k: model.params[k] for k in ("bias_attn.wd", "bias_attn.b", "bias_attn.v")},
        }
        w_context, w_alpha = rng.normal(size=2), rng.normal(size=5)

        def forward():
            c, alpha = model.attend_bias(params["d_t"], params["h_z"], mask, keys=params["keys"])
            return T.add(
                T.matmul(c, T.constant(w_context)), T.matmul(alpha, T.constant(w_alpha))
            )

        with Tape() as tape:
            tape.backward(forward())
        fd = finite_difference(lambda: float(forward().data), params)
        for name, t in params.items():
            assert max_rel_err(t.grad, fd[name]) < 1e-6, name
        closed = mask == np.inf
        assert np.all(params["h_z"].grad[closed] == 0.0)
        assert np.all(params["keys"].grad[closed] == 0.0)
        assert np.all(params["h_z"].grad[~closed] != 0.0)


class TestDecoderStep:
    def test_determinism(self):
        model = tiny_model()
        s = model.initial_state()
        d1, _ = model.decoder_step(model.vocab.index("a"), s)
        d2, _ = model.decoder_step(model.vocab.index("a"), s)
        assert d1.data.tobytes() == d2.data.tobytes()

    def test_zero_weights(self):
        model = tiny_model()
        zero_all(model)
        d, _ = model.decoder_step(model.vocab.sos, model.initial_state())
        assert np.array_equal(d.data, np.zeros(2))

    def test_hand_case(self):
        model = tiny_model()
        s = model.initial_state()
        tok = model.vocab.index("b")
        d, _ = model.decoder_step(tok, s)
        x = np.concatenate([model.params["embedding"].data[tok], np.zeros(4)])
        h, _ = T.lstm_cell(
            T.constant(x), T.constant(np.zeros(2)), T.constant(np.zeros(2)), model.decoder[0]
        )
        assert np.abs(d.data - h.data).max() < 1e-12

    def test_unknown_token(self):
        with pytest.raises(KeyError):
            tiny_model().decoder_step(99, tiny_model().initial_state())


class TestOutputDistribution:
    def test_zero_weights_uniform(self):
        model = tiny_model()
        model.params["output.w"].data[...] = 0.0
        model.params["output.b"].data[...] = 0.0
        p = model.output_distribution(T.constant(np.ones(4)), T.constant(np.ones(2)))
        assert np.abs(p.data - 1.0 / len(model.vocab)).max() < 1e-12

    def test_sums_to_one(self):
        model = tiny_model()
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = model.output_distribution(
                T.constant(rng.normal(size=4)), T.constant(rng.normal(size=2))
            )
            assert abs(p.data.sum() - 1.0) <= 1e-12

    def test_hand_case(self):
        model = tiny_model()
        c = np.array([0.1, -0.2, 0.3, 0.4])
        d = np.array([0.5, -0.6])
        got = model.output_distribution(T.constant(c), T.constant(d)).data
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
        loss = model.forward_loss(np.zeros((3, 3)), [], target)
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
                loss = model.forward_loss(x, [], target)
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
        loss = float(model.forward_loss(x, [], target).data)

        # reference: identical computation with the bias context pinned to the
        # no-bias vector instead of going through bias attention
        audio = model.precompute_audio(model.encode_audio(x))
        state = model.initial_state()
        y_prev = model.vocab.sos
        total = 0.0
        for y in target:
            d_t, state = model.decoder_step(y_prev, state)
            c_x = model.attend_audio(d_t, audio)
            c_t = T.concat([c_x, model.params["no_bias"]])
            log_probs = T.log_softmax(model.output_logits(c_t, d_t))
            total -= float(log_probs.data[y])
            state.context = c_t
            y_prev = y
        assert loss == total

    def test_target_must_end_with_eos(self):
        model = tiny_model()
        with pytest.raises(ValueError, match="end-of-sequence"):
            model.forward_loss(np.zeros((2, 3)), [], [model.vocab.index("a")])

    def test_token_outside_vocab(self):
        model = tiny_model()
        with pytest.raises(KeyError):
            model.forward_loss(np.zeros((2, 3)), [], [77, model.vocab.eos])

    def test_bias_token_in_target_trains(self):
        model = tiny_model()
        target = self.target(model, graphemize("a") + [BIAS_END])
        loss = model.forward_loss(np.zeros((2, 3)), ["a"], target)
        assert np.isfinite(loss.data)


class TestFullModelGradients:
    def test_gradient_check_under_500_params(self):
        model = tiny_model(seed=1)
        assert model.param_count() <= 500
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 3))
        phrases = ["a"]
        target = [model.vocab.index(t) for t in graphemize("ab") + [BIAS_END]] + [model.vocab.eos]

        def forward():
            return model.forward_loss(x, phrases, target)

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


class TestPersistence:
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
