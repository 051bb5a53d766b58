"""Attention-based encoder-decoder with an auxiliary context-phrase path.

The audio encoder and decoder are stacked unidirectional LSTMs. At each output
step the decoder state queries two attentions: multi-head content attention
over encoder frames, and a single additive attention over embedded context
phrases (index 0 of which is a learnable "no-bias" vector). The two context
vectors are concatenated and fed both to the output softmax and to the next
decoder step. A decode step runs forward only, on arrays: the decoder's
LSTM cells (`tensor.lstm_cell`), the audio attention
(`tensor.multi_head_attention`), the phrase attention
(`tensor.additive_attention`, over only the rows open for some query, whose
weights it returns with their indices) and the output layer with its
log-softmax (`tensor.output_layer`).

Every step runs on rows: B token ids, (B, ·) state arrays and a boolean
(B, N+1) `closed` mask. The beam search advances all of its live hypotheses
in one call. The training loss knows every position's input token, so it
runs the whole teacher-forced decoder of a minibatch, one row per
utterance, and its loss as one `tensor.attention_decoder` tape node with
the step's arithmetic; its output layer runs once over every position. Each
encoder layer is one `tensor.lstm_layer` node: the audio encoder's reads the
stacked frames of all utterances of a batch, and the phrase encoder's reads
the embedding row of each grapheme of the whole phrase list; the decoder
node projects the attentions' keys and values from them itself. A decode
projects them once into arrays: `precompute_bias` a list's, and
`precompute_audio` an `AudioCache` of U stacked utterances with one boolean
frame-mask row each, so that a query row reads only its own utterance's
frames (`AudioCache.take` gives the cache of some of the utterances).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from . import tensor as T
from .corpus import Utterance
from .tensor import Tensor
from .vocab import Vocabulary, graphemize, normalize


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
        for f in fields(self):  # every field is a layer count or a size
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1, got {getattr(self, f.name)}")
        if self.attention_dim % self.attention_heads != 0:
            raise ValueError(
                f"attention_dim {self.attention_dim} not divisible by "
                f"attention_heads {self.attention_heads}"
            )

    @property
    def context_width(self) -> int:
        return self.attention_dim + self.bias_encoder_units


@dataclass
class DecoderStepState:
    """Per-layer (h, c) LSTM states plus the previous concatenated context,
    each a (B, ·) array of B rows."""

    layers: list[tuple[np.ndarray, np.ndarray]]
    context: np.ndarray  # (B, attention_dim + bias_encoder_units)

    def take(self, index) -> "DecoderStepState":
        """Rows `index` of the state, in that order; repeats allowed."""
        return DecoderStepState(
            layers=[(h[index], c[index]) for h, c in self.layers], context=self.context[index]
        )


@dataclass
class AudioCache:
    """Per-head key/value projections of the encoder outputs of U stacked
    utterances, reusable across steps. The boolean `closed` has one row per
    utterance, true on every frame but that utterance's; a beam takes the
    rows by the utterance of each query row."""

    keys: list[np.ndarray]  # each (K, head_dim)
    values: list[np.ndarray]  # each (K, head_dim)
    closed: np.ndarray  # (U, K), or (B, K) once taken by query row

    def take(self, utts) -> "AudioCache":
        """The cache of utterances `utts`, their frames stacked in that
        order; repeats allowed."""
        mine = ~self.closed[utts]
        owner, at = np.nonzero(mine)
        return AudioCache(
            keys=[k[at] for k in self.keys],
            values=[v[at] for v in self.values],
            closed=np.arange(len(mine))[:, None] != owner,
        )


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

        def lstm(name: str, in_dim: int, hidden: int) -> T.LstmParams:
            p = T.init_lstm_params(rng, in_dim, hidden)
            self.params[f"{name}.w"], self.params[f"{name}.b"] = p.w, p.b
            return p

        self.encoder = [
            lstm(f"audio_encoder.{l}", cfg.feature_dim if l == 0 else cfg.encoder_units, cfg.encoder_units)
            for l in range(cfg.encoder_layers)
        ]
        dec_in = cfg.embedding_dim + cfg.context_width
        self.decoder = [
            lstm(f"decoder.{l}", dec_in if l == 0 else cfg.decoder_units, cfg.decoder_units)
            for l in range(cfg.decoder_layers)
        ]

        dh = cfg.attention_dim // cfg.attention_heads
        for h in range(cfg.attention_heads):
            self.params[f"audio_attn.{h}.wq"] = uni(dh, cfg.decoder_units)
            self.params[f"audio_attn.{h}.wk"] = uni(dh, cfg.encoder_units)
            self.params[f"audio_attn.{h}.wv"] = uni(dh, cfg.encoder_units)
        self.params["audio_attn.wo"] = uni(cfg.attention_dim, cfg.attention_dim)

        self.bias_encoder = lstm("bias_encoder", cfg.embedding_dim, cfg.bias_encoder_units)
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

    def check_features(self, x) -> np.ndarray:
        """`x` as a float64 array, or ValueError unless it is a non-empty
        (K, feature_dim) matrix."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError(f"encode_audio needs a non-empty (K, {self.config.feature_dim}) matrix, got {x.shape}")
        if x.shape[1] != self.config.feature_dim:
            raise ValueError(f"feature dim {x.shape[1]} does not match config {self.config.feature_dim}")
        return x

    def read_features(self, utt: Utterance) -> np.ndarray:
        """The checked feature frames of `utt`; a file that does not load, or
        that `check_features` rejects, raises ValueError naming the
        utterance and its file."""
        try:
            return self.check_features(utt.load_features())
        except ValueError as exc:
            raise ValueError(f"utterance {utt.id} ({utt.features_path}): {exc}") from None

    def encode_audio(self, xs: Sequence[np.ndarray]) -> Tensor:
        """Run the stacked encoder over the feature frames of each utterance;
        returns their (K, units) outputs stacked in the order of `xs`."""
        if not xs:
            raise ValueError("encode_audio needs at least one utterance")
        xs = [self.check_features(x) for x in xs]
        h = T.constant(np.concatenate(xs))
        every, lengths = np.arange(len(h.data)), [len(x) for x in xs]
        for p in self.encoder:
            h = T.lstm_layer(h, every, lengths, p)
        return h

    def _heads(self, name: str) -> list[Tensor]:
        """Every audio-attention head's weight `name` (wq, wk or wv)."""
        return [self.params[f"audio_attn.{h}.{name}"] for h in range(self.config.attention_heads)]

    def precompute_audio(self, h_x: Tensor, lengths: Sequence[int]) -> AudioCache:
        """Key/value projections of the frames `h_x`, which stack utterances
        of `lengths` frames in order, as `tensor.attention_decoder` makes
        them; query row b of the cache reads only utterance b's frames."""
        keys = [h_x.data @ w.data.T for w in self._heads("wk")]
        values = [h_x.data @ w.data.T for w in self._heads("wv")]
        return AudioCache(keys=keys, values=values, closed=_own_frames(lengths))

    def attend_audio(self, d_t: np.ndarray, cache: AudioCache) -> np.ndarray:
        """Multi-head scaled-dot attention of B decoder-state rows over the
        frames of `cache`; row b reads only the frames that row b of
        `cache.closed` leaves open."""
        wo = self.params["audio_attn.wo"]
        return T.multi_head_attention(d_t, self._heads("wq"), cache.keys, cache.values, cache.closed, wo)

    # -- context-phrase path ---------------------------------------------------

    def encode_bias(self, phrases: Sequence[str]) -> Tensor:
        """Embed each phrase; row 0 is the learnable no-bias vector.

        One LSTM pass covers the whole list, and a phrase's embedding is its
        state after its last grapheme.
        """
        ids = []
        for phrase in phrases:
            tokens = graphemize(phrase)
            if not tokens:
                raise ValueError(f"bias phrase {phrase!r}: empty phrase")
            try:
                ids.append([self.vocab.index(tok) for tok in tokens])
            except KeyError as exc:
                raise ValueError(f"bias phrase {phrase!r}: {exc.args[0]}") from None
        if not ids:
            return T.stack([self.params["no_bias"]])
        lengths = [len(p) for p in ids]
        h = T.lstm_layer(self.params["embedding"], np.concatenate(ids), lengths, self.bias_encoder)
        return T.stack([self.params["no_bias"], T.gather(h, np.cumsum(lengths) - 1)])

    def precompute_bias(self, embedded: tuple[Tensor, np.ndarray]) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """The beam's `(values, (key_rows, index))` arrays of an embedded list
        `(phrases, index)`, as `tensor.attention_decoder` makes them: the
        values `phrases[index]` and the key rows `phrases @ bias_attn.wh`."""
        phrases, index = embedded
        return phrases.data[index], (phrases.data @ self.params["bias_attn.wh"].data, index)

    def attend_bias(
        self,
        d_t: np.ndarray,
        h_z: np.ndarray,
        closed: np.ndarray,
        keys: tuple[np.ndarray, np.ndarray],
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Additive attention over phrase embeddings; the boolean `closed` is
        true on the entries a query row may not read.

        `d_t` is B decoder-state rows, `closed` is (B, N+1), and the values
        `h_z` and `keys` = (key rows, key index) are as `precompute_bias`
        gives them: row i of `h_z` reads key row `index[i]`. Returns the
        bias context and `(alpha, rows)`: `rows` indexes the rows of h_z
        (index 0 being no-bias) that are open for some query, and alpha has
        one weight per query and such row; every other row's weight is
        exactly zero. Only those rows, and each distinct key among them
        once, are read by `tensor.additive_attention`; a row closed for
        query b is -inf in b's scores, so it gets exactly zero weight.
        """
        n_rows = len(h_z)
        closed = np.asarray(closed)
        if closed.shape != (d_t.shape[0], n_rows):
            raise ValueError(f"mask length {closed.shape} does not match {n_rows} bias rows for query {d_t.shape}")
        if closed.dtype != bool:
            raise ValueError(f"the mask must be boolean, got {closed.dtype}")
        if closed[:, 0].any():
            raise ValueError("the no-bias slot (index 0) must never be masked")
        rows = np.flatnonzero(~closed.all(axis=0))
        values = h_z
        if len(rows) < n_rows:
            values, closed = values[rows], closed[:, rows]
        # Open row i reads the score of key row scored[score_of[i]].
        key_rows, key_of = keys
        scored, score_of = np.unique(key_of[rows], return_inverse=True)
        if len(scored) < len(key_rows):
            key_rows = key_rows[scored]
        p = self.params
        context, alpha = T.additive_attention(
            d_t, p["bias_attn.wd"], p["bias_attn.b"], key_rows, p["bias_attn.v"], score_of, closed, values
        )
        return context, (alpha, rows)

    # -- decoder -------------------------------------------------------------

    def initial_state(self, rows: int) -> DecoderStepState:
        """Zero states of `rows` rows."""
        layers = [(np.zeros((rows, p.hidden)), np.zeros((rows, p.hidden))) for p in self.decoder]
        return DecoderStepState(layers=layers, context=np.zeros((rows, self.config.context_width)))

    def decoder_step(self, y_prev, state: DecoderStepState) -> tuple[np.ndarray, DecoderStepState]:
        """Advance the decoder LSTM on the previous tokens and previous context:
        `y_prev` holds B token ids for a state of B rows."""
        ids = np.asarray(y_prev)
        if ids.ndim != 1:
            raise ValueError(f"decoder_step needs a 1-D array of token ids, got shape {ids.shape}")
        unknown = (ids < 0) | (ids >= len(self.vocab))
        if unknown.any():
            raise KeyError(f"unknown token ids {ids[unknown].tolist()}")
        x = np.concatenate([self.params["embedding"].data[ids], state.context], axis=-1)
        new_layers = []
        for p, (h, c) in zip(self.decoder, state.layers):
            h, c = T.lstm_cell(x, h, c, p)
            new_layers.append((h, c))
            x = h
        return x, replace(state, layers=new_layers)

    def step(
        self,
        y_prev,
        state: DecoderStepState,
        audio: AudioCache,
        h_z: np.ndarray,
        closed: np.ndarray,
        bias_keys: tuple[np.ndarray, np.ndarray],
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], DecoderStepState]:
        """One full decode step: returns (log-probs, bias attention, new state).

        B token ids with a state of B rows and a boolean (B, N+1) `closed`;
        the outputs have B rows, and the bias attention is the
        `(alpha, rows)` of `attend_bias`.
        """
        d_t, state = self.decoder_step(y_prev, state)
        c_x = self.attend_audio(d_t, audio)
        c_z, attention = self.attend_bias(d_t, h_z, closed, bias_keys)
        c_t = np.concatenate([c_x, c_z], axis=-1)
        p = self.params
        log_probs = T.output_layer(np.concatenate([c_t, d_t], axis=-1), p["output.w"], p["output.b"])
        return log_probs, attention, replace(state, context=c_t)

    # -- training loss ---------------------------------------------------------

    def forward_loss(
        self, xs: Sequence[np.ndarray], bias: tuple[Tensor, np.ndarray], targets: Sequence[Sequence[int]]
    ) -> Tensor:
        """Teacher-forced negative log-likelihood of the augmented targets,
        the mean over the batch of each utterance's sum; `bias` is the
        embedded list `embed_phrases` gives, shared by every utterance.

        Utterance b is row b of every target position. The targets are
        padded to the longest, a padded position reading end-of-sequence; it
        adds nothing to the loss, so its row gets zero gradient. The decoder
        cells, the two attentions, the output layer and the loss of every
        position run as one `tensor.attention_decoder` node, which does the
        arithmetic of a `step` per position on the frames and the embedded
        list as they are. Training closes no list entry, so the bias
        attention reads the list's index without `attend_bias`'s gathers.
        """
        if len(xs) != len(targets):
            raise ValueError(f"{len(xs)} utterances for {len(targets)} targets")
        for target in targets:
            if not target or target[-1] != self.vocab.eos:
                raise ValueError("target must end with the end-of-sequence token")
            for t in target:
                if not 0 <= t < len(self.vocab):
                    raise KeyError(f"target token id {t} outside vocabulary")
        rows = len(targets)
        emit = np.full((rows, max(len(t) for t in targets)), -1)  # a padded position emits nothing
        for b, target in enumerate(targets):
            emit[b, : len(target)] = target
        ids = np.where(emit < 0, self.vocab.eos, emit)  # and reads end-of-sequence
        y_prev = np.column_stack([np.full(rows, self.vocab.sos), ids[:, :-1]])
        p = self.params
        heads = [self._heads(w) for w in ("wq", "wk", "wv")]
        audio = (*heads, self.encode_audio(xs), _own_frames([len(x) for x in xs]), p["audio_attn.wo"])
        phrases, index = bias
        return T.attention_decoder(
            y_prev.T,
            emit.T,
            p["embedding"],
            self.decoder,
            audio,
            (p["bias_attn.wd"], p["bias_attn.b"], p["bias_attn.wh"], p["bias_attn.v"], index, phrases),
            (p["output.w"], p["output.b"]),
        )

    # -- persistence -----------------------------------------------------------

    def save(self, path) -> None:
        T.save_tensors(path, {k: v.data for k, v in self.params.items()})

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        missing = set(self.params) - set(arrays)
        if missing:
            raise ValueError(f"checkpoint missing parameters: {sorted(missing)}")
        unknown = set(arrays) - set(self.params)
        if unknown:
            raise ValueError(f"checkpoint has unknown parameters: {sorted(unknown)}")
        for name, t in self.params.items():
            if arrays[name].shape != t.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: checkpoint {arrays[name].shape} vs model {t.data.shape}"
                )
            t.data[...] = arrays[name]


def _own_frames(lengths: Sequence[int]) -> np.ndarray:
    """Row u is true on every stacked frame but those of utterance u."""
    return np.repeat(np.arange(len(lengths)), lengths) != np.arange(len(lengths))[:, None]


def embed_phrases(model: Recognizer, phrases: Sequence[str]) -> tuple[Tensor, np.ndarray]:
    """Embed a phrase list once for reuse across utterances and steps:
    `(phrases, index)`, the no-bias row and then each distinct phrase (by
    its normalized text, so by its graphemes) encoded once, and each list
    row's row among them, no-bias first; the identity without repeats.
    Training passes them to `forward_loss`, a decode to `precompute_bias`.
    """
    distinct: dict[str, int] = {}  # normalized phrase -> its row among the distinct ones
    index = np.array([0] + [distinct.setdefault(normalize(p), len(distinct) + 1) for p in phrases])
    return model.encode_bias(list(distinct)), index
