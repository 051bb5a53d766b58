"""Attention-based encoder-decoder with an auxiliary context-phrase path.

The audio encoder and decoder are stacked unidirectional LSTMs. At each output
step the decoder state queries two attentions: multi-head content attention
over encoder frames, and a single additive attention over embedded context
phrases (index 0 of which is a learnable "no-bias" vector). The two context
vectors are concatenated and fed both to the output softmax and to the next
decoder step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .vocab import Vocabulary, graphemize


@dataclass
class ModelConfig:
    feature_dim: int
    encoder_layers: int = 2
    encoder_units: int = 64
    decoder_layers: int = 2
    decoder_units: int = 64
    attention_dim: int = 64
    attention_heads: int = 2
    bias_encoder_units: int = 64
    embedding_dim: int = 32

    def __post_init__(self):
        if self.attention_dim % self.attention_heads != 0:
            raise ValueError(
                f"attention_dim {self.attention_dim} not divisible by "
                f"attention_heads {self.attention_heads}"
            )

    @classmethod
    def production_scale(cls, feature_dim: int) -> "ModelConfig":
        """Production-scale preset; far too slow for desk experiments."""
        return cls(
            feature_dim=feature_dim,
            encoder_layers=10,
            encoder_units=256,
            decoder_layers=4,
            decoder_units=256,
            attention_dim=512,
            attention_heads=4,
            bias_encoder_units=512,
            embedding_dim=64,
        )

    @property
    def context_width(self) -> int:
        return self.attention_dim + self.bias_encoder_units

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class DecoderStepState:
    """Per-layer (h, c) LSTM states plus the previous concatenated context."""

    layers: list[tuple[Tensor, Tensor]]
    context: Tensor  # (attention_dim + bias_encoder_units,)


@dataclass
class AudioCache:
    """Per-head key/value projections of the encoder outputs, reusable across steps."""

    keys: list[Tensor]  # each (K, head_dim)
    values: list[Tensor]  # each (K, head_dim)
    frames: int


class Recognizer:
    """The full model: parameters, forward ops, and the training loss."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary, seed: int = 0):
        self.config = config
        self.vocab = vocab
        self.params: dict[str, Tensor] = {}
        rng = T.substream(seed, "init")
        self._build(rng)

    # -- construction -------------------------------------------------------

    def _build(self, rng: np.random.Generator) -> None:
        cfg = self.config
        uni = lambda *shape: T.parameter(rng.uniform(-0.05, 0.05, size=shape))
        self.params["embedding"] = uni(len(self.vocab), cfg.embedding_dim)

        self.encoder: list[T.LstmParams] = []
        for l in range(cfg.encoder_layers):
            in_dim = cfg.feature_dim if l == 0 else cfg.encoder_units
            p = T.init_lstm_params(rng, in_dim, cfg.encoder_units)
            self.params[f"audio_encoder.{l}.w"] = p.w
            self.params[f"audio_encoder.{l}.b"] = p.b
            self.encoder.append(p)

        self.decoder: list[T.LstmParams] = []
        dec_in = cfg.embedding_dim + cfg.context_width
        for l in range(cfg.decoder_layers):
            in_dim = dec_in if l == 0 else cfg.decoder_units
            p = T.init_lstm_params(rng, in_dim, cfg.decoder_units)
            self.params[f"decoder.{l}.w"] = p.w
            self.params[f"decoder.{l}.b"] = p.b
            self.decoder.append(p)

        dh = cfg.attention_dim // cfg.attention_heads
        for h in range(cfg.attention_heads):
            self.params[f"audio_attn.{h}.wq"] = uni(dh, cfg.decoder_units)
            self.params[f"audio_attn.{h}.wk"] = uni(dh, cfg.encoder_units)
            self.params[f"audio_attn.{h}.wv"] = uni(dh, cfg.encoder_units)
        self.params["audio_attn.wo"] = uni(cfg.attention_dim, cfg.attention_dim)

        bias_lstm = T.init_lstm_params(rng, cfg.embedding_dim, cfg.bias_encoder_units)
        self.params["bias_encoder.w"] = bias_lstm.w
        self.params["bias_encoder.b"] = bias_lstm.b
        self.bias_encoder = bias_lstm
        self.params["no_bias"] = uni(cfg.bias_encoder_units)

        self.params["bias_attn.wh"] = uni(cfg.bias_encoder_units, cfg.attention_dim)
        self.params["bias_attn.wd"] = uni(cfg.attention_dim, cfg.decoder_units)
        self.params["bias_attn.b"] = uni(cfg.attention_dim)
        self.params["bias_attn.v"] = uni(cfg.attention_dim)

        self.params["output.w"] = uni(len(self.vocab), cfg.context_width + cfg.decoder_units)
        self.params["output.b"] = T.parameter(np.zeros(len(self.vocab)))

    def param_count(self) -> int:
        return sum(t.data.size for t in self.params.values())

    # -- audio path ----------------------------------------------------------

    def encode_audio(self, x: np.ndarray) -> Tensor:
        """Run the stacked encoder over feature frames; returns (K, units)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError(f"encode_audio needs a non-empty (K, {self.config.feature_dim}) matrix, got {x.shape}")
        if x.shape[1] != self.config.feature_dim:
            raise ValueError(f"feature dim {x.shape[1]} does not match config {self.config.feature_dim}")
        seq = [T.constant(frame) for frame in x]
        for p in self.encoder:
            h = T.constant(np.zeros(p.hidden))
            c = T.constant(np.zeros(p.hidden))
            out = []
            for frame in seq:
                h, c = T.lstm_cell(frame, h, c, p)
                out.append(h)
            seq = out
        return T.stack(seq)

    def precompute_audio(self, h_x: Tensor) -> AudioCache:
        cfg = self.config
        keys, values = [], []
        for h in range(cfg.attention_heads):
            keys.append(T.matmul(h_x, _transposed(self.params[f"audio_attn.{h}.wk"])))
            values.append(T.matmul(h_x, _transposed(self.params[f"audio_attn.{h}.wv"])))
        return AudioCache(keys=keys, values=values, frames=h_x.data.shape[0])

    def attend_audio(self, d_t: Tensor, h_x: Tensor | AudioCache) -> Tensor:
        """Multi-head scaled-dot attention of the decoder state over frames."""
        cache = h_x if isinstance(h_x, AudioCache) else self.precompute_audio(h_x)
        cfg = self.config
        dh = cfg.attention_dim // cfg.attention_heads
        heads = []
        for h in range(cfg.attention_heads):
            q = T.matmul(self.params[f"audio_attn.{h}.wq"], d_t)
            scores = T.scale(T.matmul(cache.keys[h], q), 1.0 / np.sqrt(dh))
            alpha = T.softmax(scores)
            heads.append(T.matmul(alpha, cache.values[h]))
        return T.matmul(self.params["audio_attn.wo"], T.concat(heads))

    # -- context-phrase path ---------------------------------------------------

    def encode_bias(self, phrases: Sequence[str]) -> Tensor:
        """Embed each phrase; row 0 is the learnable no-bias vector."""
        rows = [self.params["no_bias"]]
        emb = self.params["embedding"]
        p = self.bias_encoder
        for phrase in phrases:
            tokens = graphemize(phrase)
            if not tokens:
                raise ValueError("empty phrase in bias list")
            h = T.constant(np.zeros(p.hidden))
            c = T.constant(np.zeros(p.hidden))
            for tok in tokens:
                h, c = T.lstm_cell(T.row(emb, self.vocab.index(tok)), h, c, p)
            rows.append(h)
        return T.stack(rows)

    def bias_key_cache(self, h_z: Tensor) -> Tensor:
        return T.matmul(h_z, self.params["bias_attn.wh"])

    def attend_bias(
        self,
        d_t: Tensor,
        h_z: Tensor,
        mask: np.ndarray,
        keys: Tensor | None = None,
    ) -> tuple[Tensor, Tensor]:
        """Additive attention over phrase embeddings under a {0, inf} mask.

        Returns the bias context vector and the attention probabilities
        (one weight per row of h_z, index 0 being no-bias). Only the open
        rows are scored: closed rows get exactly zero weight and gradient.
        """
        n_rows = h_z.data.shape[0]
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != (n_rows,):
            raise ValueError(f"mask length {mask.shape} does not match {n_rows} bias rows")
        if mask[0] != 0.0:
            raise ValueError("the no-bias slot (index 0) must never be masked")
        if keys is None:
            keys = self.bias_key_cache(h_z)
        rows = np.flatnonzero(mask != np.inf)
        partial = len(rows) < n_rows
        if partial:
            h_z, keys = T.gather(h_z, rows), T.gather(keys, rows)
        query = T.add(T.matmul(self.params["bias_attn.wd"], d_t), self.params["bias_attn.b"])
        scores = T.matmul(T.tanh(T.add(keys, query)), self.params["bias_attn.v"])
        alpha = T.softmax(scores)
        context = T.matmul(alpha, h_z)
        if partial:
            # Back to full length: open row i reads slot i of alpha, every
            # closed row reads the appended zero.
            slot = np.full(n_rows, len(rows))
            slot[rows] = np.arange(len(rows))
            alpha = T.gather(T.concat([alpha, T.constant(np.zeros(1))]), slot)
        return context, alpha

    # -- decoder -------------------------------------------------------------

    def initial_state(self) -> DecoderStepState:
        layers = [
            (T.constant(np.zeros(p.hidden)), T.constant(np.zeros(p.hidden)))
            for p in self.decoder
        ]
        return DecoderStepState(layers=layers, context=T.constant(np.zeros(self.config.context_width)))

    def decoder_step(self, y_prev: int, state: DecoderStepState) -> tuple[Tensor, DecoderStepState]:
        """Advance the decoder LSTM on the previous token and previous context."""
        if not 0 <= y_prev < len(self.vocab):
            raise KeyError(f"unknown token id {y_prev}")
        x = T.concat([T.row(self.params["embedding"], y_prev), state.context])
        new_layers = []
        for p, (h, c) in zip(self.decoder, state.layers):
            h, c = T.lstm_cell(x, h, c, p)
            new_layers.append((h, c))
            x = h
        return x, replace(state, layers=new_layers)

    def output_logits(self, c_t: Tensor, d_t: Tensor) -> Tensor:
        return T.add(
            T.matmul(self.params["output.w"], T.concat([c_t, d_t])),
            self.params["output.b"],
        )

    def output_distribution(self, c_t: Tensor, d_t: Tensor) -> Tensor:
        return T.softmax(self.output_logits(c_t, d_t))

    def step(
        self,
        y_prev: int,
        state: DecoderStepState,
        audio: AudioCache,
        h_z: Tensor,
        mask: np.ndarray,
        bias_keys: Tensor | None = None,
    ) -> tuple[Tensor, Tensor, DecoderStepState]:
        """One full decode step: returns (log-probs, bias attention, new state)."""
        d_t, state = self.decoder_step(y_prev, state)
        c_x = self.attend_audio(d_t, audio)
        c_z, alpha = self.attend_bias(d_t, h_z, mask, keys=bias_keys)
        c_t = T.concat([c_x, c_z])
        log_probs = T.log_softmax(self.output_logits(c_t, d_t))
        return log_probs, alpha, replace(state, context=c_t)

    # -- training loss ---------------------------------------------------------

    def forward_loss(
        self,
        x: np.ndarray,
        phrases: Sequence[str],
        target: Sequence[int],
        h_z: Tensor | None = None,
    ) -> Tensor:
        """Teacher-forced negative log-likelihood of the augmented target."""
        if not target or target[-1] != self.vocab.eos:
            raise ValueError("target must end with the end-of-sequence token")
        for t in target:
            if not 0 <= t < len(self.vocab):
                raise KeyError(f"target token id {t} outside vocabulary")
        audio = self.precompute_audio(self.encode_audio(x))
        if h_z is None:
            h_z = self.encode_bias(phrases)
        bias_keys = self.bias_key_cache(h_z)
        mask = np.zeros(h_z.data.shape[0])
        state = self.initial_state()
        y_prev = self.vocab.sos
        loss: Tensor | None = None
        for y in target:
            log_probs, _, state = self.step(y_prev, state, audio, h_z, mask, bias_keys)
            nll = T.neg(T.pick(log_probs, y))
            loss = nll if loss is None else T.add(loss, nll)
            y_prev = y
        return loss

    # -- persistence -----------------------------------------------------------

    def save(self, path) -> None:
        T.save_tensors(path, {k: v.data for k, v in self.params.items()})

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        missing = set(self.params) - set(arrays)
        if missing:
            raise ValueError(f"checkpoint missing parameters: {sorted(missing)}")
        for name, t in self.params.items():
            if arrays[name].shape != t.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: checkpoint {arrays[name].shape} vs model {t.data.shape}"
                )
            t.data[...] = arrays[name]

    @classmethod
    def restore(cls, config: ModelConfig, vocab: Vocabulary, path) -> "Recognizer":
        model = cls(config, vocab, seed=0)
        model.load_arrays(T.load_tensors(path))
        return model


def _transposed(t: Tensor) -> Tensor:
    """View a parameter matrix transposed, with gradient routed back."""
    out = Tensor(t.data.T.copy())

    def backward():
        if t.grad is not None:
            t.grad += out.grad.T

    return T._record(out, backward)
