"""Paired benchmark runs of two checkouts, for a performance claim.

    python3 tools/bench_pairs.py --workload W --seed S --pairs N PARENT CHANGE

Runs `perfbench/run.py --trace 0` at its own run length in the checkouts
PARENT and CHANGE in turn, N times each; the parent goes first in odd pairs
and the change in even ones, so that a drift of the machine weighs on both
sides alike. Prints each pair's end-to-end metrics, each side's median and
quartiles, and how many pairs the change won on `items_per_s` (higher is
better; ties count for neither side). The claim holds when the change wins
at least nine tenths of the pairs, its median is higher by more than the
parent's interquartile range, every change run is correct, and the change's
runs fail no larger share of their operations than the parent's.

After each pair it also prints both sides' output digests, from the run
record that run.py prints before its result line, and `outputs identical`
or `outputs differ`; a side whose record has none shows `no digest`, and
the pair then gets no such verdict. Next to a side's digests it prints the
`decode.wer` of the record's `workload_metrics` when the record has one, so
that a change whose totals move in the last bits shows whether its texts
score the same. Digests and WER inform only: they take no part in the claim
or the exit status.

For each end-to-end metric of the repository's `BENCHMARK.json` it also
prints a no-regression verdict, by the metric's `better` and `bound`:
`worse` when the change's median is worse than the parent's by more than
bound x the parent's median; otherwise `unresolved` when the parent's
interquartile range exceeds bound x its median and not every change run
beats every parent run; otherwise `no worse`.

Exit status: 0 when the claim holds, 1 when it does not, 2 when a run gave
no result line.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

METRIC = "items_per_s"  # the end-to-end metric the claim is about; higher is better
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error(f"--pairs must be >= 1, got {args.pairs}")
    return args


def run_once(checkout: Path, args) -> dict:
    """One run's result object, the last line run.py prints, with the
    `digests` and the `decode.wer` of the run record printed before it
    (None without them)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["metrics"], result["correct"], result["attempted"], result["failed"]
    except (IndexError, ValueError, KeyError, TypeError):
        raise RuntimeError(
            f"{checkout}: run.py exited {done.returncode} without a result line\n{done.stderr[-2000:]}"
        ) from None
    try:
        record = json.loads(lines[-2])
        result["digests"] = record.get("digests") or None
        result["wer"] = (record.get("workload_metrics") or {}).get("decode.wer")
    except (IndexError, ValueError, AttributeError):
        result["digests"] = result["wer"] = None
    return result


def outputs_line(pair: dict, order: tuple[str, str]) -> str:
    """Both sides' output digests, each with its WER if it has one, and
    whether the digests agree."""
    def shown(side):
        digests, wer = pair[side]["digests"], pair[side]["wer"]
        text = " ".join(f"{k}={v}" for k, v in digests.items()) if digests else "no digest"
        return text if wer is None else f"{text} decode.wer={wer:.6g}"

    line = "  ".join(f"{side} {shown(side)}" for side in order)
    if pair["parent"]["digests"] and pair["change"]["digests"]:
        line += ": outputs " + ("identical" if pair["parent"]["digests"] == pair["change"]["digests"] else "differ")
    return line


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolating linearly."""
    s = sorted(values)

    def at(q: float) -> float:
        pos = q * (len(s) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The no-regression verdict on one metric's runs: `worse`,
    `unresolved` or `no worse`."""
    sign = 1 if better == "higher" else -1  # sign * value grows as the metric gets better
    q1, median, q3 = quartiles(parent)
    if sign * (median - quartiles(change)[1]) > bound * abs(median):
        return "worse"
    if q3 - q1 > bound * abs(median) and min(sign * v for v in change) <= max(sign * v for v in parent):
        return "unresolved"
    return "no worse"


def main(argv=None) -> int:
    args = parse_args(argv)
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    wins = 0
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        try:
            pair = {side: run_once(getattr(args, side), args) for side in order}
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for side in order:
            runs[side].append(pair[side])
        values = {side: pair[side]["metrics"][METRIC]["value"] for side in order}
        if values["change"] > values["parent"]:
            wins += 1
        shown = "  ".join(
            f"{side} " + " ".join(f"{name}={m['value']:.4g}" for name, m in pair[side]["metrics"].items())
            + f" failed={pair[side]['failed']}" + ("" if pair[side]["correct"] else " INCORRECT")
            for side in order
        )
        print(f"pair {k + 1} ({order[0]} first): {shown}")
        print(f"pair {k + 1} outputs: {outputs_line(pair, order)}", flush=True)

    print("metric\tside\tq1\tmedian\tq3")
    spread = {}
    for name in runs["parent"][0]["metrics"]:
        for side in ("parent", "change"):
            spread[name, side] = quartiles([r["metrics"][name]["value"] for r in runs[side]])
            print(f"{name}\t{side}\t" + "\t".join(f"{v:.4g}" for v in spread[name, side]))
    for m in json.loads(BENCHMARK.read_text())["end_to_end"]:
        name, better, bound = m["name"], m["better"], m["bound"]
        by_side = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        q1, median, q3 = spread[name, "parent"]
        print(
            f"no-regression on {name} ({better} is better, bound {bound:g}): "
            f"median {median:.4g} -> {spread[name, 'change'][1]:.4g}, parent IQR {q3 - q1:.4g}: "
            + verdict(by_side["parent"], by_side["change"], better, bound)
        )
    q1, parent_median, q3 = spread[METRIC, "parent"]
    change_median = spread[METRIC, "change"][1]
    failed = {side: sum(r["failed"] for r in runs[side]) / sum(r["attempted"] for r in runs[side]) for side in runs}
    incorrect = sum(not r["correct"] for r in runs["change"])
    holds = (
        wins >= 0.9 * args.pairs
        and change_median - parent_median > q3 - q1
        and not incorrect
        and failed["change"] <= failed["parent"]
    )
    print(
        f"claim on {METRIC}: change won {wins} of {args.pairs} pairs; "
        f"median {parent_median:.4g} -> {change_median:.4g}, parent IQR {q3 - q1:.4g}; "
        f"failed share {failed['parent']:.4g} -> {failed['change']:.4g}, incorrect change runs {incorrect}: "
        + ("holds" if holds else "not met")
    )
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
