"""The three benchmark workloads, their set-up, and their output checks.

Each workload is a closed loop with one item in flight: one train step or
one utterance. A *pass* is a fixed amount of work (the same items in the same
order on every pass of a run), so every pass of a run must produce identical
outputs. A run makes a fixed number of passes (`pass_count`), with fresh
set-ups between them, and times each segment of a pass (a step, an
utterance) across them.

- `train`: `train_model` at the default model and train config from a fresh
  seeded model, `TRAIN_STEPS` steps per pass. The only workload with a tape.
- `decode_biased`: all of `test_biased`, each utterance with its own 9-phrase
  CLAS list and its own every-subword fusion context compiled in the loop,
  as `ctxseq decode --strategy every-subword --bonus 1 --lam 1` does.
- `decode_talkto`: the shared 520-phrase talk-to list compiled once in
  set-up (the `compile-context` path), then the first `TALKTO_UTTS`
  utterances decoded with that context, `--lam 1` and rule-based prefix
  conditioning over the 940 split entries.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from ctxseq import conditioning, corpus, decoding, experiments, fst, tensor
from ctxseq import train as train_mod
from ctxseq.cli import load_checkpoint
from ctxseq.corpus import SyntheticTaskConfig, read_manifest
from ctxseq.decoding import DecodeConfig, DecodeResult
from ctxseq.model import ModelConfig, Recognizer
from ctxseq.sampler import SamplerConfig
from ctxseq.train import TrainConfig

from tracing import Tracer

WORKLOADS = ("train", "decode_biased", "decode_talkto")

TRAIN_STEPS = 20  # per pass
BIASED_UTTS = 50  # all of test_biased
TALKTO_UTTS = 10  # per pass; the shared list is compiled in set-up
QUICK_ITEMS = 2  # steps or utterances per pass in quick mode

# Seconds one pass takes on a busy 2-vCPU x86-64 machine, its share of the
# run's set-ups included. `--seconds` sets the pass count through these
# constants only, so the statistics over passes rest on the same number of
# samples on every commit, however fast its code is. They are set for the
# machine's slow periods, so that the run-time cap in run.py rarely cuts a
# run short.
NOMINAL_PASS_S = {"train": 5.0, "decode_biased": 6.5, "decode_talkto": 6.4}
# A run makes a fresh set-up before pass k when k % SETUP_EVERY == 0. A
# talk-to set-up compiles the 520-phrase list (about 3 s), so it comes before
# every third pass and leaves most of the run to passes.
SETUP_EVERY = {"train": 1, "decode_biased": 1, "decode_talkto": 3}

STRATEGY = fst.EVERY_SUBWORD
BONUS = 1.0
LAM = 1.0
TRIGGER = "talk to"

CHECKPOINT = Path(__file__).resolve().parent / "checkpoint"
# Regenerate with checkpoint/regenerate.sh; see README.md.
CHECKPOINT_SHA256 = {
    "params.bin": "2d8b283f98dd9ed4add898aa8a227f2f7c16eac5dc869c971e31ff8f332b0996",
    "config.ini": "2e98789aa26c306869b85f4e8b1e43694f094f2f7e7be092ded08c012ad2f264",
    "vocab.txt": "f3277568330b14998fc9dc7173459800c23910fa1aebf8f1c25f09b3cd2e48a3",
}


def pass_count(workload: str, seconds: float, quick: bool) -> int:
    """Passes in a run: one in quick mode, else at least two."""
    return 1 if quick else max(2, round(seconds / NOMINAL_PASS_S[workload]))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def verify_checkpoint() -> None:
    for name, want in CHECKPOINT_SHA256.items():
        got = sha256_file(CHECKPOINT / name)
        if got != want:
            raise ValueError(f"checkpoint file {name} has sha256 {got}, expected {want}")


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Setup:
    workload: str
    seed: int
    utts: list  # decode: the items of one pass, in order; train: the corpus
    steps: int = 0  # train: the items of one pass
    model: Recognizer | None = None  # decode: the fixed checkpoint
    decode_cfg: DecodeConfig | None = None
    task: SyntheticTaskConfig | None = None
    shared: fst.FusionScorer | None = None  # decode_talkto: the compiled list
    compile_s: float | None = None


def setup(workload: str, seed: int, workdir: Path, quick: bool, tracer: Tracer | None = None) -> Setup:
    """Corpus generation plus checkpoint load (decode) or model build (train);
    on `decode_talkto` also the compile of the shared list."""
    task = SyntheticTaskConfig(seed=seed)
    generated = corpus.generate_corpus(task, workdir)
    if workload == "train":
        utts = read_manifest(generated.manifests["train"])
        fresh_model(task, seed)  # model construction is part of set-up
        return Setup(workload, seed, utts, steps=QUICK_ITEMS if quick else TRAIN_STEPS, task=task)
    verify_checkpoint()
    model, cfg = load_checkpoint(CHECKPOINT)
    cfg.override(f"decode.lam={LAM}")
    manifest = "test_biased" if workload == "decode_biased" else "test_talkto"
    count = BIASED_UTTS if workload == "decode_biased" else TALKTO_UTTS
    utts = read_manifest(generated.manifests[manifest])[: QUICK_ITEMS if quick else count]
    s = Setup(workload, seed, utts, model=model, decode_cfg=cfg.decode(), task=task)
    if workload == "decode_talkto":
        t = perf_counter()
        s.shared = make_scorer(utts[0].bias_phrases, model.vocab.graphemes, tracer)
        s.compile_s = perf_counter() - t
    return s


def fresh_model(task: SyntheticTaskConfig, seed: int) -> Recognizer:
    return Recognizer(ModelConfig(feature_dim=task.feature_dim), task.vocabulary(), seed=seed)


def make_scorer(phrases, alphabet, tracer: Tracer | None) -> fst.FusionScorer:
    """`compile_context` + `FusionScorer`, as `ctxseq compile-context` and
    `ctxseq decode --strategy` build them."""
    machine = fst.compile_context(phrases, alphabet, STRATEGY, BONUS)
    if tracer is None:
        return fst.FusionScorer(machine)
    i = tracer.open("fst.fusion_scorer")
    try:
        scorer = fst.FusionScorer(machine)
    finally:
        tracer.close(i)
    patch_scorer(tracer, scorer)
    return scorer


# ---------------------------------------------------------------------------
# one pass


@dataclass
class PassResult:
    items: int  # train steps or utterances
    segments: list[float]  # seconds; same layout on every pass of a run
    outputs: list | None  # loss log or (id, text, total) per utterance
    failed: int = 0
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    wer: float | None = None


def run_pass(s: Setup, tracer: Tracer | None = None) -> PassResult:
    if s.workload == "train":
        return _train_pass(s, tracer)
    return _decode_pass(s, tracer)


def failed_pass(s: Setup, error: str) -> PassResult:
    """A pass that raised: every operation in it counts as failed."""
    items = s.steps if s.workload == "train" else len(s.utts)
    return PassResult(items, [], None, failed=items, attempted=items, problems=[error])


def _train_pass(s: Setup, tracer: Tracer | None) -> PassResult:
    model = fresh_model(s.task, s.seed)
    if tracer is not None:
        patch_model(tracer, model)
    cfg = TrainConfig(steps=s.steps, seed=s.seed)
    marks: list[float] = []

    def on_step(step: int, loss: float) -> None:
        marks.append(perf_counter())
        if tracer is not None:
            tracer.end_request()

    t0 = perf_counter()
    log = train_mod.train_model(model, s.utts, SamplerConfig(), cfg, on_step=on_step)
    bounds = [t0] + marks
    segments = [b - a for a, b in zip(bounds, bounds[1:])]
    result = PassResult(items=s.steps, segments=segments, outputs=log, attempted=s.steps)
    for step, loss in log:
        if not math.isfinite(loss):
            result.failed += 1
            result.problems.append(f"train step {step}: loss {loss}")
    return result


def _decode_pass(s: Setup, tracer: Tracer | None) -> PassResult:
    model = s.model
    alphabet = model.vocab.graphemes
    talkto = s.workload == "decode_talkto"
    result = PassResult(items=len(s.utts), segments=[], outputs=[], attempted=len(s.utts))
    scorers: dict[str, fst.FusionScorer] = {}
    entries_by_utt: dict[str, list] = {}
    marks: list[float] = []
    current = [None]

    def start_utterance(u) -> None:
        if current[0] == u.id:
            return
        current[0] = u.id
        marks.append(perf_counter())
        if tracer is not None:
            tracer.end_request()
            tracer.begin_request("decode.utterance", u.id)

    def phrases_fn(u):
        start_utterance(u)
        return list(u.bias_phrases)

    def entries_fn(u):
        start_utterance(u)
        entries = conditioning.split_rule_based(u.bias_phrases, trigger=TRIGGER)
        entries_by_utt[u.id] = entries
        return entries

    def fusion_per_utt(u):
        scorers[u.id] = s.shared if talkto else make_scorer(u.bias_phrases, alphabet, tracer)
        return scorers[u.id]

    t0 = perf_counter()
    results = experiments.decode_corpus(
        model,
        s.utts,
        s.decode_cfg,
        fusion_per_utt=fusion_per_utt,
        phrases_fn=phrases_fn,
        entries_fn=entries_fn if talkto else None,
    )
    t_end = perf_counter()
    bounds = [t0] + marks + [t_end]
    result.segments = [b - a for a, b in zip(bounds, bounds[1:])]
    for u, r in zip(s.utts, results):
        problems = check_decode(r, scorers[u.id], s.decode_cfg.lam, entries_by_utt.get(u.id))
        if problems:
            result.failed += 1
            result.problems.extend(f"{u.id}: {p}" for p in problems)
        result.outputs.append((u.id, r.text, r.total))
    result.wer = experiments.eval_wer(results, s.utts).wer
    return result


def patch_modules(tracer: Tracer) -> None:
    """Trace the module functions and class methods every workload calls.

    Patched where callers look them up at call time: `decoding` reads its
    module global `compute_mask`, `experiments` its globals `prepare_audio`,
    `embed_phrases` and `beam_search`, the model calls `tensor.lstm_cell`
    through the module, and `train_model` its globals from `sampler`.
    """
    steps = [0]

    def begin_step(traced):
        # The phrase draw is the first traced call of every train step.
        def wrapper(*args, **kwargs):
            tracer.begin_request("train.step", f"step{steps[0]}")
            steps[0] += 1
            return traced(*args, **kwargs)

        return wrapper

    def tape_nodes(counts, args, out):
        counts["tensor.tape_nodes"] += len(args[0])

    def batch_phrases(counts, args, out):
        counts["sampler.phrases"] += len(out)

    def mask_columns(counts, args, out):
        counts["conditioning.entries"] += len(out) - 1
        counts["conditioning.open"] += int(np.count_nonzero(out[1:] == 0.0))

    def machine_size(counts, args, out):
        counts["fst.states"] += out.n_states
        counts["fst.arcs"] += len(out.arcs)

    tracer.patch(tensor, "lstm_cell", "tensor.lstm_cell")
    tracer.patch(tensor.Tape, "backward", "tensor.backward", tape_nodes)
    tracer.patch(tensor.Adam, "step", "tensor.adam")
    tracer.patch(corpus, "generate_corpus", "corpus.generate_corpus")
    tracer.patch(corpus.Utterance, "load_features", "corpus.load_features")
    tracer.patch(train_mod, "train_model", "train.train_model")
    tracer.patch(train_mod, "sample_bias_list", "sampler.sample_bias_list", batch_phrases, begin_step)
    tracer.patch(train_mod, "insert_bias_tokens", "sampler.insert_bias_tokens")
    tracer.patch(conditioning, "split_rule_based", "conditioning.split_rule_based")
    tracer.patch(decoding, "compute_mask", "conditioning.compute_mask", mask_columns)
    tracer.patch(fst, "compile_context", "fst.compile_context", machine_size)
    tracer.patch(fst, "compose_det_min", "fst.compose_det_min")
    tracer.patch(fst, "apply_strategy", "fst.apply_strategy")
    tracer.patch(experiments, "decode_corpus", "experiments.decode_corpus")
    tracer.patch(experiments, "prepare_audio", "experiments.prepare_audio")
    tracer.patch(experiments, "embed_phrases", "decoding.embed_phrases")
    tracer.patch(experiments, "beam_search", "decoding.beam_search")


def patch_scorer(tracer: Tracer, scorer: fst.FusionScorer) -> None:
    tracer.patch(scorer, "score_step", "fst.score_step")
    tracer.patch(scorer, "finish", "fst.finish")


def patch_model(tracer: Tracer, model: Recognizer) -> None:
    """Trace `Recognizer` methods on the instance: the model calls them
    through `self`, so an instance attribute takes precedence."""
    def rows(counts, args, out):
        counts["model.attend_bias.rows"] += args[1].data.shape[0]

    def frames(counts, args, out):
        counts["model.encode_audio.frames"] += out.data.shape[0]

    def phrases(counts, args, out):
        counts["model.encode_bias.phrases"] += out.data.shape[0] - 1

    for attr, count in (
        ("step", None),
        ("decoder_step", None),
        ("attend_audio", None),
        ("attend_bias", rows),
        ("encode_audio", frames),
        ("precompute_audio", None),
        ("encode_bias", phrases),
        ("forward_loss", None),
    ):
        tracer.patch(model, attr, f"model.{attr}", count)


# ---------------------------------------------------------------------------
# output checks


def check_decode(r: DecodeResult, scorer, lam: float, entries) -> list[str]:
    """Invariants of one top-1 result; returns the ones that fail."""
    problems = []
    if r.total != r.log_model + lam * r.log_fusion:
        problems.append(f"total {r.total!r} != log_model + lam*log_fusion")
    # A scorer rebuilt from the compiled machine: independent of the beam's
    # incremental bookkeeping and of any tracing patches on `scorer`.
    rescored, incs = fst.FusionScorer(scorer.machine).score_string(r.tokens)
    expected = rescored if r.finished else sum(incs)
    if not math.isclose(r.log_fusion, expected, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"log_fusion {r.log_fusion!r} != independent re-score {expected!r}")
    if r.alphas.size and np.abs(r.alphas.sum(axis=1) - 1.0).max() > 1e-9:
        problems.append("a bias-attention row does not sum to 1")
    if entries is not None:
        for step, alpha in enumerate(r.alphas):
            masked = np.isinf(conditioning.compute_mask(entries, r.raw_symbols[:step]))
            if np.any(alpha[masked] != 0.0):
                problems.append(f"step {step}: attention on a masked entry")
                break
    return problems


# ---------------------------------------------------------------------------
# robust timing across passes


def robust_seconds(passes: list[PassResult]) -> float:
    """Pass time as the sum, over the pass's segments, of each segment's
    fastest time across the run's passes.

    On a shared machine the same train step runs up to 1.5x slower for
    seconds at a time. A median across passes follows the share of such
    periods in the run; the fastest time follows the cost of the code. The
    pass count is fixed by `pass_count`, so the minimum is over the same
    number of samples on every commit.
    """
    columns = zip(*(p.segments for p in passes))
    return sum(min(c) for c in columns)


def digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode("utf-8")).hexdigest()
