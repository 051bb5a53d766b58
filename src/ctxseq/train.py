"""Training loop: per-batch phrase sampling, target augmentation, Adam."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .corpus import Utterance
from .model import Recognizer, embed_phrases
from .sampler import SamplerConfig, insert_bias_tokens, sample_bias_list
from .vocab import normalize


@dataclass
class TrainConfig:
    steps: int = 800
    batch_size: int = 8
    lr: float = 1e-3
    seed: int = 0
    log_every: int = 10

    def __post_init__(self):
        for name in ("steps", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")


def target_ids(model: Recognizer, tokens: list[str]) -> list[int]:
    return [model.vocab.index(t) for t in tokens] + [model.vocab.eos]


def train_model(
    model: Recognizer,
    utts: list[Utterance],
    sampler_cfg: SamplerConfig,
    cfg: TrainConfig,
    on_step=None,
) -> list[tuple[int, float]]:
    """Run Adam over random batches; returns the (step, loss) log.

    Every feature file is read by `Recognizer.read_features` before the
    first step. Each batch draws a fresh phrase list from its own
    transcripts, inserts `</bias>` after matches in every target, and
    minimizes the summed negative log-likelihood (averaged over the batch).
    """
    opt = T.Adam(model.params, lr=cfg.lr)
    batch_rng = T.substream(cfg.seed, "train/batches")
    sampler_rng = T.substream(cfg.seed, "train/sampler")
    features = [model.read_features(u) for u in utts]
    refs = [normalize(u.transcript) for u in utts]
    log: list[tuple[int, float]] = []
    for step in range(cfg.steps):
        idx = batch_rng.choice(len(utts), size=min(cfg.batch_size, len(utts)), replace=False)
        phrases = sample_bias_list([refs[i] for i in idx], sampler_cfg, sampler_rng)
        targets = [target_ids(model, insert_bias_tokens(refs[i], phrases)) for i in idx]
        with T.Tape() as tape:
            bias = embed_phrases(model, phrases)
            nll = model.forward_loss([features[i] for i in idx], bias, targets)
            loss = T.scale(nll, 1.0 / len(idx))
            value = float(loss.data)
            if not np.isfinite(value):
                raise FloatingPointError(f"loss became non-finite ({value}) at step {step}")
            opt.zero_grad()
            tape.backward(loss)
        opt.step()
        log.append((step, value))
        if on_step is not None:
            on_step(step, value)
    return log
