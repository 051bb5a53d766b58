"""Checks on the benchmark itself; no timing bounds.

Run from the repository root:

    python3 -m pytest perfbench/test_schema.py -q

- every workload in BENCHMARK.json is one the harness runs;
- every name in BENCHMARK.json is emitted, with its unit, by a quick run of
  every harness workload (`decode_biased` too, which BENCHMARK.json leaves
  out), untraced (end-to-end metrics) and traced (per-layer);
- every rate (unit `1/s` or `…/s`) in BENCHMARK.json is higher-is-better;
- the decode workloads produce the same top-1 hypotheses as `ctxseq decode`
  on the same checkpoint and manifest.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402


def quick_run(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_benchmark_workloads_are_harness_workloads():
    listed = [w["name"] for w in SPEC["workloads"]]
    assert listed and set(listed) <= set(WORKLOADS)


def test_rates_are_higher_is_better():
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        if m["unit"].startswith("1/") or m["unit"].endswith("/s"):
            assert m["better"] == "higher", m["name"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    record, result = quick_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    assert record["workload"] == workload and record["seed"] == 1
    assert set(record["samples"]) == set(emitted)
    assert all(len(d) == 64 for d in record["digests"].values())


def _harness_hypotheses(workload: str, workdir: Path):
    import workloads

    s = workloads.setup(workload, 0, workdir, quick=True)
    result = workloads.run_pass(s)
    assert result.failed == 0, result.problems
    return s.utts, result.outputs


def _cli_hypotheses(args: list[str], out: Path):
    from ctxseq.cli import main

    assert main(["decode", *args, "--out", str(out)]) == 0
    rows = []
    for line in (out / "hypotheses.tsv").read_text(encoding="utf-8").splitlines():
        utt_id, text, total = line.split("\t")
        rows.append((utt_id, text, float(total)))
    return rows


def test_decode_biased_matches_cli(tmp_path):
    from ctxseq.corpus import write_manifest
    from workloads import CHECKPOINT

    utts, ours = _harness_hypotheses("decode_biased", tmp_path / "corpus")
    write_manifest(tmp_path / "m.jsonl", utts)
    theirs = _cli_hypotheses(
        ["--checkpoint", str(CHECKPOINT), "--data", str(tmp_path / "m.jsonl"),
         "--strategy", "every-subword", "--bonus", "1", "--lam", "1"],
        tmp_path / "out",
    )
    assert ours == theirs


def test_decode_talkto_matches_cli(tmp_path):
    from ctxseq.cli import main
    from ctxseq.corpus import write_manifest
    from workloads import CHECKPOINT

    utts, ours = _harness_hypotheses("decode_talkto", tmp_path / "corpus")
    write_manifest(tmp_path / "m.jsonl", utts)
    (tmp_path / "phrases.txt").write_text("\n".join(utts[0].bias_phrases) + "\n")
    assert main(["compile-context", "--phrases", str(tmp_path / "phrases.txt"),
                 "--checkpoint", str(CHECKPOINT), "--strategy", "every-subword",
                 "--bonus", "1", "--out", str(tmp_path / "ctx.txt")]) == 0
    theirs = _cli_hypotheses(
        ["--checkpoint", str(CHECKPOINT), "--data", str(tmp_path / "m.jsonl"),
         "--context", str(tmp_path / "ctx.txt"), "--lam", "1", "--conditioning", "rule-based"],
        tmp_path / "out",
    )
    assert ours == theirs
