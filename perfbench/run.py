"""ctxseq benchmark: one workload per process, single-threaded.

    python3 perfbench/run.py --workload train|decode_biased|decode_talkto \
        --seed N --seconds S --trace 0|1 [--quick]

With `--trace 0` the run measures the end-to-end metrics with tracing off.
With `--trace 1` it makes half its passes untraced and half traced, and
reports the per-layer metrics from the traced half. The last line of stdout
is the result object; the line before it is the run record, which is also
written to `.perfbench-work/record-<workload>.json` under the checkout.
Inputs come from `--seed` (corpus, model initialisation, batch order).
"""

from __future__ import annotations

import os

# One BLAS thread: each workload is a single-threaded closed loop. Must be set
# before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"
# The traced run's root spans may leave at most this share of request time
# outside every layer span; above it the per-layer metrics do not account for
# where the time went.
ROOT_SELF_MAX = 0.25
# No new pass starts once a run has lasted this many times `--seconds`, so
# that the runs of a slow period of the machine, or of much slower code, still
# end in time; the record's pass count shows when that happened.
MAX_RUN_FACTOR = 1.15


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="train, decode_biased or decode_talkto")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--quick", action="store_true", help="one set-up and one pass of 2 items per phase")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ctxseq" / "__init__.py").is_file():
        print(f"error: no ctxseq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ctxseq

    if Path(ctxseq.__file__).resolve().parent != SRC / "ctxseq":
        print(f"error: imported ctxseq from {ctxseq.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads as W
    from tracing import Tracer

    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {W.WORKLOADS}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    try:
        return measure(args, W, Tracer, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, W, Tracer, tmp: Path) -> int:
    tracer = Tracer() if args.trace else None
    setup_times: list[float] = []
    compile_times: list[float] = []
    made: list[Path] = []

    def timed_setup(traced: bool = False):
        # Single set-ups are noisy (file writes, slow periods of the machine
        # lasting seconds); samples spread over the run cancel that out.
        path = tmp / f"setup{len(made)}"
        if made:
            shutil.rmtree(made[-1])
        made.append(path)
        gc.collect()
        t = perf_counter()
        fresh = W.setup(args.workload, args.seed, path, args.quick, tracer if traced else None)
        setup_times.append(perf_counter() - t)
        if fresh.compile_s is not None:
            compile_times.append(fresh.compile_s)
        return fresh

    count = W.pass_count(args.workload, args.seconds, args.quick)
    t0 = perf_counter()
    if tracer is None:
        passes, traced = [], []
        for k in range(count):
            if k >= 2 and perf_counter() - t0 > MAX_RUN_FACTOR * args.seconds:
                break
            if k % W.SETUP_EVERY[args.workload] == 0:
                s = timed_setup()
            passes.append(one_pass(W, s))
    else:
        W.patch_modules(tracer)
        try:
            s = timed_setup(traced=True)
        finally:
            tracer.unpatch_all()
        half = max(1, count // 2)
        passes = [one_pass(W, s) for _ in range(half)]
        W.patch_modules(tracer)
        if s.model is not None:
            W.patch_model(tracer, s.model)
        if s.shared is not None:
            W.patch_scorer(tracer, s.shared)
        try:
            traced = [one_pass(W, s, tracer) for _ in range(half)]
        finally:
            tracer.unpatch_all()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    everything = passes + traced
    failed = sum(p.failed for p in everything)
    attempted = sum(p.attempted for p in everything) + len(compile_times)
    problems = [x for p in everything for x in p.problems]
    passes = [p for p in passes if p.outputs is not None]
    traced = [p for p in traced if p.outputs is not None]
    if not passes or (tracer is not None and not traced):
        print("error: every pass of a phase raised", file=sys.stderr)
        return 1
    reference = passes[0].outputs
    for k, p in enumerate(passes[1:] + traced, start=1):
        if p.outputs != reference:
            mismatched = sum(a != b for a, b in zip(p.outputs, reference)) or p.items
            failed += mismatched
            problems.append(f"pass {k}: {mismatched} outputs differ from the first")

    items = passes[0].items
    items_per_s = items / W.robust_seconds(passes)
    per_workload = {}
    if args.workload == "train":
        per_workload["train.steps_per_s"] = items_per_s
        per_workload["train.loss_mean"] = sum(loss for _, loss in reference) / len(reference) if reference else None
    else:
        per_workload["decode.utt_per_s"] = items_per_s
        per_workload["decode.wer"] = passes[0].wer
    if compile_times:
        per_workload["compile_s"] = median(compile_times)

    if tracer is None:
        metrics = {
            "setup_s": (median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "items_per_s": (items_per_s, "1/s"),
        }
        samples = {"setup_s": len(setup_times), "peak_rss_mb": 1, "items_per_s": len(passes) * items}
    else:
        summary = tracer.summary()
        overhead = W.robust_seconds(traced) / W.robust_seconds(passes) - 1.0
        metrics, samples = layer_metrics(summary, args.workload, len(s.model.vocab) if s.model else 0, overhead)
        if summary.accounting_error_s > 1e-6:
            failed += 1
            problems.append(f"span self times miss a request root by {summary.accounting_error_s:.3g} s")
        if summary.root_self_frac > ROOT_SELF_MAX:
            failed += 1
            problems.append(f"{summary.root_self_frac:.0%} of request time is outside every layer span")
        tracer.write(WORKDIR / f"trace-{args.workload}.tsv")
        per_workload["trace.requests"] = summary.requests
        per_workload["trace.accounting_error_s"] = summary.accounting_error_s
        per_workload["trace.root_self_frac"] = summary.root_self_frac
    per_workload["failed_frac"] = failed / attempted

    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    record = run_record(args, W, passes, traced, samples, per_workload)
    (WORKDIR / f"record-{args.workload}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def one_pass(W, s, tracer=None):
    """A pass that raises counts all its items as failed; the run goes on."""
    gc.collect()
    try:
        return W.run_pass(s, tracer)
    except Exception:
        traceback.print_exc()
        return W.failed_pass(s, traceback.format_exc(limit=1))


# ---------------------------------------------------------------------------
# per-layer metrics from the traced half


def layer_metrics(S, workload: str, vocab_size: int, overhead: float):
    """Every per-layer metric; 0 where the workload does not reach the layer.

    Bases: "per item" is per train step on `train` and per utterance on the
    decode workloads (the request roots of the trace); "per call" divides by
    the calls of the named span; counts are taken at the same spans.
    """
    c = S.counts
    items = S.requests
    steps_root = "train.step" if workload == "train" else "decode.utterance"

    def ratio(num, den):
        return num / den if den else 0.0

    table = {
        "tensor.backward.ms": (S.per_call("tensor.backward", 1e3), "ms", "tensor.backward"),
        "tensor.adam.ms": (S.per_call("tensor.adam", 1e3), "ms", "tensor.adam"),
        "tensor.tape_nodes": (ratio(c.get("tensor.tape_nodes", 0), S.n("tensor.backward")), "count", "tensor.backward"),
        "tensor.lstm_cell.calls": (ratio(S.n("tensor.lstm_cell"), items), "count", steps_root),
        "tensor.lstm_cell.us": (S.per_call("tensor.lstm_cell", 1e6), "us", "tensor.lstm_cell"),
        "model.forward_loss.ms": (S.per_call("model.forward_loss", 1e3, self_only=True), "ms", "model.forward_loss"),
        "model.step.calls": (ratio(S.n("model.step"), items), "count", steps_root),
        "model.step.us": (S.per_call("model.step", 1e6), "us", "model.step"),
        "model.decoder_step.us": (S.per_call("model.decoder_step", 1e6), "us", "model.decoder_step"),
        "model.attend_audio.us": (S.per_call("model.attend_audio", 1e6), "us", "model.attend_audio"),
        "model.attend_bias.us": (S.per_call("model.attend_bias", 1e6), "us", "model.attend_bias"),
        "model.attend_bias.n": (ratio(c.get("model.attend_bias.rows", 0), S.n("model.attend_bias")), "count", "model.attend_bias"),
        "model.encode_audio.us_per_frame": (
            ratio(1e6 * S.total.get("model.encode_audio", 0.0), c.get("model.encode_audio.frames", 0)), "us", "model.encode_audio"),
        "model.encode_bias.us_per_phrase": (
            ratio(1e6 * S.total.get("model.encode_bias", 0.0), c.get("model.encode_bias.phrases", 0)), "us", "model.encode_bias"),
        "sampler.sample_bias_list.us": (S.per_call("sampler.sample_bias_list", 1e6), "us", "sampler.sample_bias_list"),
        "sampler.insert_bias_tokens.us": (S.per_call("sampler.insert_bias_tokens", 1e6), "us", "sampler.insert_bias_tokens"),
        "sampler.phrases_per_batch": (ratio(c.get("sampler.phrases", 0), S.n("sampler.sample_bias_list")), "count", "sampler.sample_bias_list"),
        "conditioning.compute_mask.calls": (ratio(S.n("conditioning.compute_mask"), items), "count", steps_root),
        "conditioning.compute_mask.us": (S.per_call("conditioning.compute_mask", 1e6), "us", "conditioning.compute_mask"),
        "conditioning.open_frac": (ratio(c.get("conditioning.open", 0), c.get("conditioning.entries", 0)), "ratio", "conditioning.compute_mask"),
        "conditioning.split_rule_based.ms": (S.per_call("conditioning.split_rule_based", 1e3), "ms", "conditioning.split_rule_based"),
        "fst.compile_context.ms": (S.per_call("fst.compile_context", 1e3), "ms", "fst.compile_context"),
        "fst.compose_det_min.ms": (S.per_call("fst.compose_det_min", 1e3), "ms", "fst.compose_det_min"),
        "fst.apply_strategy.ms": (S.per_call("fst.apply_strategy", 1e3), "ms", "fst.apply_strategy"),
        "fst.states": (ratio(c.get("fst.states", 0), S.n("fst.compile_context")), "count", "fst.compile_context"),
        "fst.arcs": (ratio(c.get("fst.arcs", 0), S.n("fst.compile_context")), "count", "fst.compile_context"),
        "fst.score_step.calls": (ratio(S.n("fst.score_step"), items), "count", steps_root),
        "fst.score_step.us": (S.per_call("fst.score_step", 1e6), "us", "fst.score_step"),
        "decoding.beam_search.ms": (S.per_item("decoding.beam_search", items, 1e3), "ms", "decoding.beam_search"),
        "decoding.self_ms": (S.per_item("decoding.beam_search", items, 1e3, self_only=True), "ms", "decoding.beam_search"),
        "decoding.candidates": (
            ratio(S.n("model.step") * vocab_size, items) if S.n("decoding.beam_search") else 0.0, "count", "model.step"),
        "decoding.embed_phrases.ms": (S.per_call("decoding.embed_phrases", 1e3), "ms", "decoding.embed_phrases"),
        "experiments.prepare_audio.ms": (S.per_item("experiments.prepare_audio", items, 1e3) if workload != "train" else 0.0, "ms", "experiments.prepare_audio"),
        "experiments.decode_corpus.self_ms": (
            ratio(1e3 * (S.self_time.get("experiments.decode_corpus", 0.0) + S.self_time.get("decode.utterance", 0.0)), items)
            if workload != "train" else 0.0, "ms", "experiments.decode_corpus"),
        "train.self_ms": (
            ratio(1e3 * (S.self_time.get("train.train_model", 0.0) + S.self_time.get("train.step", 0.0)), items)
            if workload == "train" else 0.0, "ms", "train.step"),
        "corpus.generate_corpus.s": (S.per_call("corpus.generate_corpus", 1.0), "s", "corpus.generate_corpus"),
        "corpus.load_features.us": (S.per_call("corpus.load_features", 1e6), "us", "corpus.load_features"),
        "trace.overhead_frac": (overhead, "ratio", steps_root),
    }
    metrics = {k: (v, u) for k, (v, u, _) in table.items()}
    samples = {k: S.n(base) for k, (_, _, base) in table.items()}
    return metrics, samples


# ---------------------------------------------------------------------------
# run record


def run_record(args, W, passes, traced, samples, per_workload) -> dict:
    import numpy as np

    return {
        "record": "ctxseq-bench",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "git_commit": git_commit(),
        "passes": {"untraced": len(passes), "traced": len(traced), "items_per_pass": passes[0].items},
        "samples": samples,
        "workload_metrics": per_workload,
        "digests": {
            "hypotheses" if args.workload != "train" else "loss_log": W.digest(passes[0].outputs),
        },
    }


def blas_info(np) -> dict:
    info = {"name": None, "version": None, "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = deps.get("name"), deps.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    info["threads"] = openblas_threads()
    return info


def openblas_threads():
    """Thread count reported by the OpenBLAS library this process loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


if __name__ == "__main__":
    sys.exit(main())
