import numpy as np
import pytest

from ctxseq import tensor as T
from ctxseq.corpus import SyntheticTaskConfig, generate_corpus, read_manifest
from ctxseq.model import ModelConfig, Recognizer
from ctxseq.sampler import SamplerConfig
from ctxseq.train import TrainConfig, train_model


@pytest.fixture(scope="module")
def small_setup(tmp_path_factory):
    task = SyntheticTaskConfig(
        alphabet_size=8,
        lexicon_size=12,
        oov_lexicon_size=8,
        n_train=50,
        n_dev=2,
        n_test=2,
        talkto_names=6,
        talkto_utterances=2,
        noise_std=0.2,
        seed=2,
    )
    corpus = generate_corpus(task, tmp_path_factory.mktemp("train_corpus"))
    utts = read_manifest(corpus.manifests["train"])
    return task, utts


def small_model(task, seed=0):
    cfg = ModelConfig(
        feature_dim=task.feature_dim,
        encoder_layers=1,
        encoder_units=16,
        decoder_layers=1,
        decoder_units=16,
        attention_dim=8,
        attention_heads=1,
        bias_encoder_units=8,
        embedding_dim=8,
    )
    return Recognizer(cfg, task.vocabulary(), seed=seed)


class TestTrainModel:
    def test_loss_halves_in_200_steps(self, small_setup):
        task, utts = small_setup
        model = small_model(task)
        log = train_model(
            model, utts, SamplerConfig(), TrainConfig(steps=200, batch_size=6, lr=1e-2, seed=1)
        )
        first = np.mean([v for _, v in log[:10]])
        last = np.mean([v for _, v in log[-10:]])
        assert last < 0.5 * first

    def test_p_keep_zero_never_touches_bias_encoder(self, small_setup):
        task, utts = small_setup
        model = small_model(task)
        before = model.params["bias_encoder.w"].data.copy()
        nb_before = model.params["no_bias"].data.copy()
        train_model(
            model,
            utts,
            SamplerConfig(p_keep=0.0),
            TrainConfig(steps=5, batch_size=4, lr=6e-3, seed=2),
        )
        assert np.array_equal(model.params["bias_encoder.w"].data, before)
        assert not np.array_equal(model.params["no_bias"].data, nb_before)

    def test_nan_loss_aborts_with_diagnostic(self, small_setup):
        task, utts = small_setup
        model = small_model(task)
        model.params["output.w"].data[0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite"):
            train_model(model, utts, SamplerConfig(), TrainConfig(steps=2, batch_size=2, seed=3))

    def test_non_finite_loss_aborts(self, small_setup, monkeypatch):
        # Finite logits can still give an infinite loss; the loop's own check stops it.
        task, utts = small_setup
        model = small_model(task)
        monkeypatch.setattr(model, "forward_loss", lambda *args: T.Tensor(np.array(np.inf)))
        with pytest.raises(FloatingPointError, match=r"loss became non-finite \(inf\) at step 0"):
            train_model(model, utts, SamplerConfig(), TrainConfig(steps=2, batch_size=2, seed=3))

    def test_reproducible_log(self, small_setup):
        task, utts = small_setup
        cfg = TrainConfig(steps=6, batch_size=4, lr=6e-3, seed=4)
        log1 = train_model(small_model(task, seed=9), utts, SamplerConfig(), cfg)
        log2 = train_model(small_model(task, seed=9), utts, SamplerConfig(), cfg)
        assert log1 == log2


    def test_adam_storage_is_the_models(self, small_setup, tmp_path):
        # Adam moves the parameters into flat buffers; the model's layers
        # and its parameter table still read the one updated array.
        task, utts = small_setup
        model = small_model(task, seed=5)
        before = model.params["decoder.0.w"].data.copy()
        train_model(model, utts, SamplerConfig(), TrainConfig(steps=1, batch_size=2, seed=5))
        w = model.params["decoder.0.w"]
        assert model.decoder[0].w is w
        assert not np.array_equal(w.data, before)
        assert model.encoder[0].w.data.base is w.data.base is model.params["output.b"].data.base
        model.save(tmp_path / "params.bin")
        loaded = small_model(task, seed=6)
        loaded.load_arrays(T.load_tensors(tmp_path / "params.bin"))
        for name, t in model.params.items():
            assert loaded.params[name].data.tobytes() == t.data.tobytes(), name


def test_default_batch_tape_size(tmp_path, monkeypatch):
    # One tape node per encoder layer, each reading its inputs from the rows
    # of a table, and one for the whole teacher-forced decoder with its
    # output layer and loss: the first seed-1 batch at the default config
    # records 13 nodes (15 with the bias encoder's embedding rows and the
    # audio encoder's output order as gathers of their own, 19 with the
    # output layer and the loss as four nodes of their own, 209 with a
    # node per decoder cell and attention at each position, 377 with a node
    # per encoder cell too, 944 when the attentions and the output layer
    # were chains of primitive ops). A change that splits a fused op or an
    # encoder into several nodes again fails here.
    task = SyntheticTaskConfig(seed=1)
    utts = read_manifest(generate_corpus(task, tmp_path).manifests["train"])
    model = Recognizer(ModelConfig(feature_dim=task.feature_dim), task.vocabulary(), seed=1)
    sizes, backward = [], T.Tape.backward

    def counting(tape, loss):
        sizes.append(len(tape))
        return backward(tape, loss)

    monkeypatch.setattr(T.Tape, "backward", counting)
    train_model(model, utts, SamplerConfig(), TrainConfig(steps=1, seed=1))
    assert len(sizes) == 1 and sizes[0] <= 13
