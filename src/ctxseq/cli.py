"""Command-line surface: train, decode, eval, compile-context, sweep, dump-attention.

Every command is a pure function of (inputs, config, seed); generate, train,
decode and dump-attention write the resolved configuration that produced
their outputs next to them as config.ini.
"""

from __future__ import annotations

import argparse
import functools
import sys
from contextlib import contextmanager
from pathlib import Path

from .conditioning import BiasEntry, split_rule_based
from .config import RunConfig, _coerce
from .corpus import Utterance, generate_corpus, read_manifest
from .experiments import (
    attention_hit_rate,
    check_distractor_counts,
    check_strategy_grid,
    conditioning_comparison,
    decode_corpus,
    distractor_sweep,
    per_bias_list,
    strategy_comparison,
)
from .fst import STRATEGIES, FusionScorer, check_bonus, compile_context, load_context, save_context
from .metrics import WerReport, compute_wer
from .model import Recognizer
from .tensor import load_tensors
from .train import train_model
from .vocab import Vocabulary


def _load_config(args) -> RunConfig:
    cfg = RunConfig.load(getattr(args, "config", None))
    for assignment in getattr(args, "set", None) or []:
        cfg.override(assignment)
    return cfg


@contextmanager
def _reading_checkpoint(d: Path):
    """A ValueError raised inside names the checkpoint directory `d`."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"checkpoint {d}: {exc}") from None


def load_checkpoint(path) -> tuple[Recognizer, RunConfig]:
    """The model and run config of a checkpoint directory; a vocabulary,
    model or parameter file that does not load raises ValueError naming
    the directory."""
    d = Path(path)
    cfg = RunConfig.load(d / "config.ini")
    with _reading_checkpoint(d):
        model = Recognizer(cfg.model(), Vocabulary.load(d / "vocab.txt"), seed=cfg.seed)
        model.load_arrays(load_tensors(d / "params.bin"))
    return model, cfg


def _read_utterances(path) -> list[Utterance]:
    """`read_manifest`, raising ValueError for a manifest with no utterances."""
    utts = read_manifest(path)
    if not utts:
        raise ValueError(f"no utterances in manifest {path}")
    return utts


def _write_rows(path, rows) -> None:
    """Write a report: each row's fields as `str` joined by tabs, one row a
    line (a float's `str` is its `repr`, which reads back to the same bits)."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines("\t".join(map(str, row)) + "\n" for row in rows)


def _outdir(path, cfg: RunConfig | None = None) -> Path:
    """Create the output directory. With `cfg`, the run config is resolved
    first, so that one that does not resolve leaves no directory behind, and
    is written into it as config.ini."""
    text = cfg.resolved_text() if cfg is not None else None
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    if text is not None:
        (out / "config.ini").write_text(text, encoding="utf-8")
    return out


# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args.out, cfg)
    corpus = generate_corpus(cfg.task(), out)
    for name, path in corpus.manifests.items():
        print(f"{name}\t{path}")
    return 0


def cmd_train(args) -> int:
    every = args.checkpoint_every
    if every < 0:
        raise ValueError(f"--checkpoint-every must be >= 0, got {every}")
    cfg = _load_config(args)
    cfg.resolved_text()  # a config that does not resolve fails before step 0
    utts = _read_utterances(args.data)
    vocab = cfg.task().vocabulary()
    model = Recognizer(cfg.model(), vocab, seed=cfg.seed)

    @functools.cache
    def outdir() -> Path:  # made by the first save: a run that fails before it leaves nothing
        out = _outdir(args.out, cfg)
        vocab.save(out / "vocab.txt")
        return out

    def on_step(step: int, loss: float) -> None:
        if every and (step + 1) % every == 0:
            model.save(outdir() / f"params_step{step + 1:06d}.bin")

    log = train_model(model, utts, cfg.sampler(), cfg.train(), on_step=on_step)
    out = outdir()
    model.save(out / "params.bin")
    _write_rows(out / "loss_log.tsv", log)
    print(f"trained {cfg.train().steps} steps; final loss {log[-1][1]:.4f}; checkpoint in {out}")
    return 0


def cmd_decode(args) -> int:
    check_bonus(args.bonus)
    if args.empty_bias and args.conditioning != "off":
        raise ValueError(f"--empty-bias leaves no phrase list to condition; drop --conditioning {args.conditioning}")
    model, cfg = load_checkpoint(args.checkpoint)
    for flag in ("lam", "beam_width", "max_len"):
        value = getattr(args, flag)
        if value is not None:
            cfg.override(f"decode.{flag}={value}")
    dcfg = cfg.decode()
    utts = _read_utterances(args.data)
    alphabet = model.vocab.graphemes

    shared_fusion = None
    if args.context:
        context = load_context(args.context)
        foreign = sorted(set(context.meta["alphabet"]) - set(alphabet))
        if foreign:
            raise ValueError(f"context {args.context} has graphemes the model cannot emit: {' '.join(foreign)}")
        shared_fusion = FusionScorer(context)
    compiled = per_bias_list(
        lambda phrases: FusionScorer(compile_context(phrases, alphabet, args.strategy, args.bonus))
    )

    def fusion_per_utt(u):
        if args.strategy and u.bias_phrases:
            return compiled(u)
        return shared_fusion

    def phrases_fn(u):
        return [] if args.empty_bias else list(u.bias_phrases)

    def manifest_entries(u):
        if u.bias_prefixes is None:
            raise ValueError(f"utterance {u.id} has no bias_prefixes in the manifest")
        return [BiasEntry(p, z) for p, z in zip(u.bias_prefixes, u.bias_phrases)]

    entries_fn = {"off": None, "manifest": manifest_entries, "rule-based": per_bias_list(split_rule_based)}
    results = decode_corpus(
        model,
        utts,
        dcfg,
        fusion_per_utt=fusion_per_utt,
        phrases_fn=phrases_fn,
        entries_fn=entries_fn[args.conditioning],
    )
    out = _outdir(args.out, cfg)
    _write_rows(out / "hypotheses.tsv", [(u.id, r.text, r.total) for u, r in zip(utts, results)])
    print(f"decoded {len(utts)} utterances into {out / 'hypotheses.tsv'}")
    return 0


def cmd_eval(args) -> int:
    def row(name: str, r: WerReport) -> tuple:
        return name, r.substitutions, r.insertions, r.deletions, r.ref_words, f"{r.wer:.4f}"

    utts = {u.id: u for u in _read_utterances(args.data)}
    total = WerReport(0, 0, 0, 0)
    rows = [("id", "sub", "ins", "del", "ref_words", "wer")]
    scored: set[str] = set()
    with open(args.hyp, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 3:
                raise ValueError(f"{args.hyp} line {lineno}: expected `id text total`, got {len(fields)} fields")
            utt_id, text, _ = fields
            if utt_id not in utts:
                raise ValueError(f"hypothesis for unknown utterance {utt_id}")
            if utt_id in scored:
                raise ValueError(f"{args.hyp} line {lineno}: second hypothesis for utterance {utt_id}")
            scored.add(utt_id)
            report = compute_wer(text, utts[utt_id].transcript)
            total = total + report
            rows.append(row(utt_id, report))
    missing = [u for u in utts if u not in scored]
    if missing:
        raise ValueError(
            f"{args.hyp} has no hypothesis for {len(missing)} of the {len(utts)} utterances "
            f"in {args.data}, the first being {missing[0]}"
        )
    _write_rows(_outdir(args.out) / "wer_report.tsv", [*rows, row("TOTAL", total)])
    print(f"WER {100 * total.wer:.2f}% over {total.ref_words} reference words")
    return 0


def cmd_compile_context(args) -> int:
    with open(args.phrases, "r", encoding="utf-8") as f:
        phrases = [line.strip() for line in f if line.strip()]
    with _reading_checkpoint(Path(args.checkpoint)):
        alphabet = Vocabulary.load(Path(args.checkpoint) / "vocab.txt").graphemes
    machine = compile_context(phrases, alphabet, args.strategy, args.bonus)
    save_context(args.out, machine)
    print(f"compiled {len(phrases)} phrases -> {args.out} ({machine.n_states} states)")
    return 0


def cmd_dump_attention(args) -> int:
    model, cfg = load_checkpoint(args.checkpoint)
    utts = _read_utterances(args.data)
    if args.utt_id:
        utts = [u for u in utts if u.id == args.utt_id]
        if not utts:
            raise ValueError(f"utterance {args.utt_id} not in manifest")
    utt = utts[0]
    result = decode_corpus(model, [utt], cfg.decode())[0]
    labels = ["<no-bias>"] + list(utt.bias_phrases)
    out = _outdir(args.out, cfg)
    rows = [(i, sym, *(f"{a:.6f}" for a in alpha)) for i, (sym, alpha) in enumerate(zip(result.raw_symbols, result.alphas))]
    _write_rows(out / f"attention_{utt.id}.tsv", [("step", "symbol", *labels), *rows])
    print(f"dumped {len(result.raw_symbols)} steps x {len(labels)} columns for {utt.id}")
    return 0


# Each sweep section, the keys it reads and their types; every key must be given.
SWEEP_SECTIONS = {
    "distractors": {"checkpoint": str, "manifest": str, "counts": tuple[int, ...]},
    "strategies": {"checkpoint": str, "manifest": str, "strategies": tuple[str, ...], "lams": tuple[float, ...]},
    "conditioning": {"checkpoint": str, "manifest": str},
    "attention": {"checkpoint": str, "manifest": str},
}


def _sweep_values(spec: RunConfig) -> dict[str, dict]:
    """Every section's keys, read and coerced, and each grid checked as its
    experiment checks it: section -> {key: value}, in SWEEP_SECTIONS order."""
    spec.check_known(SWEEP_SECTIONS)
    values = {}
    for section, keys in SWEEP_SECTIONS.items():
        raw = spec.sections.get(section)
        if raw is None:
            continue
        values[section] = {key: _coerce(raw[key], typ, section, key) for key, typ in keys.items() if key in raw}
        missing = [key for key in keys if key not in raw]
        if missing:
            raise ValueError(f"[{section}] lacks the key {missing[0]!r}")
    if "distractors" in values:
        check_distractor_counts(values["distractors"]["counts"])
    if "strategies" in values:
        check_strategy_grid(values["strategies"]["strategies"], values["strategies"]["lams"])
    return values


def cmd_sweep(args) -> int:
    spec = RunConfig.load(args.spec)
    try:
        values = _sweep_values(spec)
    except ValueError as exc:
        raise ValueError(f"{args.spec}: {exc}") from None
    runs = []  # every checkpoint and manifest is read before the first decode
    for section, kwargs in values.items():
        model, cfg = load_checkpoint(kwargs.pop("checkpoint"))
        runs.append((section, model, cfg, _read_utterances(kwargs.pop("manifest")), kwargs))
    reports = {}  # report file -> rows; nothing is written until every section has run
    for section, model, cfg, utts, kwargs in runs:
        if section == "distractors":
            pool = sorted({p for u in utts for p in u.bias_phrases})
            curve = distractor_sweep(model, utts, pool, cfg=cfg.decode(), seed=cfg.seed, **kwargs)
            reports["distractor_curve.tsv"] = [(n, f"{wer:.4f}") for n, wer in curve]
        elif section == "strategies":
            table = strategy_comparison(model, utts, cfg=cfg.decode(), **kwargs)
            reports["strategy_table.tsv"] = [(strat, lam, f"{wer:.4f}") for strat, (lam, wer) in table.items()]
        elif section == "conditioning":
            table = conditioning_comparison(model, utts, cfg.decode(), **kwargs)
            reports["conditioning.tsv"] = [(k, f"{v:.4f}") for k, v in table.items()]
        else:
            rate = attention_hit_rate(model, utts, cfg.decode(), **kwargs)
            reports["attention.tsv"] = [("hit_rate", f"{rate:.4f}")]
    out = _outdir(args.out)
    for name, rows in reports.items():
        _write_rows(out / name, rows)

    print(f"sweep complete: {', '.join(values) if values else 'nothing to do'}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ctxseq", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="run config file")
        sp.add_argument("--set", action="append", help="override: section.key=value")

    g = sub.add_parser("generate", help="generate a synthetic corpus")
    common(g)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_generate)

    t = sub.add_parser("train", help="train a model")
    common(t)
    t.add_argument("--data", required=True, help="training manifest (jsonl)")
    t.add_argument("--out", required=True, help="checkpoint directory")
    t.add_argument("--checkpoint-every", type=int, default=0)
    t.set_defaults(fn=cmd_train)

    d = sub.add_parser("decode", help="beam-search decode a manifest")
    d.add_argument("--checkpoint", required=True)
    d.add_argument("--data", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--lam", type=float, default=None)
    d.add_argument("--beam-width", type=int, default=None)
    d.add_argument("--max-len", type=int, default=None)
    d.add_argument("--empty-bias", action="store_true", help="decode with an empty CLAS phrase list")
    fusion = d.add_mutually_exclusive_group()
    fusion.add_argument("--context", help="compiled context file for shallow fusion")
    fusion.add_argument("--strategy", choices=STRATEGIES, help="compile per-utterance contexts with this strategy")
    d.add_argument("--bonus", type=float, default=1.0)
    d.add_argument("--conditioning", choices=["off", "manifest", "rule-based"], default="off")
    d.set_defaults(fn=cmd_decode)

    e = sub.add_parser("eval", help="score hypotheses against references")
    e.add_argument("--hyp", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_eval)

    c = sub.add_parser("compile-context", help="compile phrases into a context file")
    c.add_argument("--phrases", required=True, help="text file, one phrase per line")
    c.add_argument("--checkpoint", required=True, help="take the alphabet from this checkpoint")
    c.add_argument("--strategy", required=True, choices=STRATEGIES)
    c.add_argument("--bonus", type=float, default=1.0)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_compile_context)

    s = sub.add_parser("sweep", help="run the experiment battery from a spec file")
    s.add_argument("--spec", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_sweep)

    a = sub.add_parser("dump-attention", help="write per-step bias attention")
    a.add_argument("--checkpoint", required=True)
    a.add_argument("--data", required=True)
    a.add_argument("--utt-id", default=None)
    a.add_argument("--out", required=True)
    a.set_defaults(fn=cmd_dump_attention)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError, FloatingPointError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all.
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
