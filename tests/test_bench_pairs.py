"""`tools/bench_pairs.py` against two stub checkouts whose `perfbench/run.py`
prints a fixed result line and logs how it was called."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

STUB = """import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent.parent
log = here.parent / "calls.log"
runs = sum(line.split()[0] == here.name for line in log.read_text().splitlines()) if log.exists() else 0
with open(log, "a") as f:
    f.write(here.name + " " + " ".join(sys.argv[1:]) + "\\n")
rates = {rates}
print({record!r})
print(json.dumps({{"correct": {failed} == 0, "attempted": 10, "failed": {failed}, "metrics": {{
    "setup_s": {{"value": 0.3, "unit": "s"}},
    "peak_rss_mb": {{"value": {rss}, "unit": "MB"}},
    "items_per_s": {{"value": rates[runs % len(rates)], "unit": "1/s"}}}}}}))
"""


def checkout(
    root: Path,
    name: str,
    rate: float | list[float],
    rss: float = 60.0,
    failed: int = 0,
    digest: str | None = "d1",
    wer: float | None = None,
) -> Path:
    """A checkout whose runs report `rate`, or the rates of a list in turn,
    and whose run records carry the output digest `digest`, or none, and
    the workload metric `decode.wer` when `wer` is given."""
    rates = rate if isinstance(rate, list) else [rate]
    record = json.dumps({
        "record": "stub",
        **({"digests": {"hypotheses": digest}} if digest else {}),
        **({"workload_metrics": {"decode.wer": wer, "failed_frac": 0.0}} if wer is not None else {}),
    })
    (root / name / "perfbench").mkdir(parents=True)
    (root / name / "perfbench" / "run.py").write_text(
        STUB.format(rates=rates, rss=rss, failed=failed, record=record)
    )
    return root / name


def run_tool(parent: Path, change: Path):
    cmd = [sys.executable, str(TOOL), "--workload", "decode_talkto", "--seed", "2", "--pairs", "4"]
    return subprocess.run(cmd + [str(parent), str(change)], capture_output=True, text=True, timeout=60)


def test_alternates_and_reports_a_claim_that_holds(tmp_path):
    done = run_tool(checkout(tmp_path, "parent", 10.0), checkout(tmp_path, "change", 12.5, rss=55.0))
    assert done.returncode == 0, done.stderr
    calls = (tmp_path / "calls.log").read_text().splitlines()
    assert [c.split()[0] for c in calls] == ["parent", "change", "change", "parent"] * 2
    assert all(c.split()[1:] == ["--workload", "decode_talkto", "--seed", "2", "--trace", "0"] for c in calls)
    out = done.stdout.splitlines()
    assert out[0] == "pair 1 (parent first): parent setup_s=0.3 peak_rss_mb=60 items_per_s=10 failed=0  " \
        "change setup_s=0.3 peak_rss_mb=55 items_per_s=12.5 failed=0"
    assert out[1] == "pair 1 outputs: parent hypotheses=d1  change hypotheses=d1: outputs identical"
    assert out[2].startswith("pair 2 (change first): change ")
    assert out[3] == "pair 2 outputs: change hypotheses=d1  parent hypotheses=d1: outputs identical"
    assert "items_per_s\tchange\t12.5\t12.5\t12.5" in out
    assert "peak_rss_mb\tparent\t60\t60\t60" in out
    assert out[-1] == (
        "claim on items_per_s: change won 4 of 4 pairs; median 10 -> 12.5, parent IQR 0; "
        "failed share 0 -> 0, incorrect change runs 0: holds"
    )


@pytest.mark.parametrize("change_rate", [10.0, 9.0], ids=["tied", "worse"])
def test_claim_not_met_without_wins(tmp_path, change_rate):
    # Ties count for neither side.
    done = run_tool(checkout(tmp_path, "parent", 10.0), checkout(tmp_path, "change", change_rate))
    assert done.returncode == 1, done.stderr
    assert "change won 0 of 4 pairs" in done.stdout.splitlines()[-1] and done.stdout.endswith("not met\n")


def test_claim_not_met_when_the_change_fails_more_operations(tmp_path):
    # Every pair is a win on rate, but a change run that fails an operation
    # is incorrect and fails a larger share than the parent.
    done = run_tool(checkout(tmp_path, "parent", 10.0), checkout(tmp_path, "change", 12.5, failed=1))
    assert done.returncode == 1, done.stderr
    last = done.stdout.splitlines()[-1]
    assert "change won 4 of 4 pairs" in last and "INCORRECT" in done.stdout
    assert last.endswith("failed share 0 -> 0.1, incorrect change runs 4: not met")


def test_claim_not_met_when_a_change_run_is_incorrect(tmp_path):
    # Both sides fail the same share, so only the change's incorrect runs
    # stand between its wins and the claim.
    done = run_tool(checkout(tmp_path, "parent", 10.0, failed=1), checkout(tmp_path, "change", 12.5, failed=1))
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines()[-1].endswith("failed share 0.1 -> 0.1, incorrect change runs 4: not met")


@pytest.mark.parametrize(
    "parent_digest, change_digest, line",
    [
        ("d1", "d2", "pair 1 outputs: parent hypotheses=d1  change hypotheses=d2: outputs differ"),
        (None, "d1", "pair 1 outputs: parent no digest  change hypotheses=d1"),
    ],
    ids=["differ", "no-digest"],
)
def test_outputs_line_informs_only(tmp_path, parent_digest, change_digest, line):
    parent = checkout(tmp_path, "parent", 10.0, digest=parent_digest)
    done = run_tool(parent, checkout(tmp_path, "change", 12.5, digest=change_digest))
    assert done.returncode == 0, done.stderr
    out = done.stdout.splitlines()
    assert out[1] == line
    assert out[-1].endswith("holds")


def test_outputs_line_shows_each_sides_wer(tmp_path):
    # Digests that differ while the texts score the same; a side without the
    # metric shows its digest alone.
    parent = checkout(tmp_path, "parent", 10.0, digest="d1", wer=0.8)
    done = run_tool(parent, checkout(tmp_path, "change", 12.5, digest="d2", wer=0.8))
    assert done.returncode == 0, done.stderr
    out = done.stdout.splitlines()
    assert out[1] == "pair 1 outputs: parent hypotheses=d1 decode.wer=0.8  change hypotheses=d2 decode.wer=0.8: outputs differ"
    assert out[3] == "pair 2 outputs: change hypotheses=d2 decode.wer=0.8  parent hypotheses=d1 decode.wer=0.8: outputs differ"
    done = run_tool(checkout(tmp_path / "b", "parent", 10.0), checkout(tmp_path / "b", "change", 12.5, wer=0.75))
    assert done.stdout.splitlines()[1] == "pair 1 outputs: parent hypotheses=d1  change hypotheses=d1 decode.wer=0.75: outputs identical"


def test_run_without_result_line_fails(tmp_path):
    parent = checkout(tmp_path, "parent", 10.0)
    change = checkout(tmp_path, "change", 12.0)
    (change / "perfbench" / "run.py").write_text("import sys; print('boom', file=sys.stderr); sys.exit(1)\n")
    done = run_tool(parent, change)
    assert done.returncode == 2
    assert "run.py exited 1 without a result line" in done.stderr and "boom" in done.stderr


@pytest.mark.parametrize(
    "parent_rate, change_rate, change_rss, line",
    [
        (10.0, 12.5, 55.0, "no-regression on items_per_s (higher is better, bound 0.25): "
                           "median 10 -> 12.5, parent IQR 0: no worse"),
        (10.0, 10.0, 80.0, "no-regression on peak_rss_mb (lower is better, bound 0.25): "
                           "median 60 -> 80, parent IQR 0: worse"),
        # The parent's runs spread wider than the bound, and a change run falls inside them.
        ([4.0, 16.0, 10.0, 10.0], 9.0, 60.0, "no-regression on items_per_s (higher is better, bound 0.25): "
                                             "median 10 -> 9, parent IQR 3: unresolved"),
        # As wide a spread, but every change run beats every parent run.
        ([4.0, 16.0, 10.0, 10.0], 17.0, 60.0, "no-regression on items_per_s (higher is better, bound 0.25): "
                                              "median 10 -> 17, parent IQR 3: no worse"),
    ],
    ids=["no-worse", "worse", "unresolved", "wide-but-beaten"],
)
def test_no_regression_verdict(tmp_path, parent_rate, change_rate, change_rss, line):
    done = run_tool(checkout(tmp_path, "parent", parent_rate), checkout(tmp_path, "change", change_rate, rss=change_rss))
    assert done.returncode in (0, 1), done.stderr
    out = done.stdout.splitlines()
    verdicts = [v for v in out if v.startswith("no-regression on ")]
    assert [v.split()[2] for v in verdicts] == ["setup_s", "peak_rss_mb", "items_per_s"]
    assert line in verdicts and out[-1].startswith("claim on items_per_s:")
