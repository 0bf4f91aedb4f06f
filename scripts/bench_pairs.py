#!/usr/bin/env python
"""Alternating parent/change pairs of one ``perfbench`` workload.

    python scripts/bench_pairs.py PARENT_REF --workload W
        [--pairs 10] [--seed N] [--seconds S] [--scale X]

The protocol every change that claims a gain has to show (ROADMAP, "Two
measurement systems"): the parent's committed files are unpacked into a
temporary directory (``git archive`` — nothing is written into ``.git``),
and ``python3 perfbench/run.py --workload W --seconds S`` is run there and
in this working tree, ``--pairs`` times, the side that goes first flipping
every pair.  Metric names, directions, bounds and the default ``S``
(``run_seconds``) come from the working tree's ``BENCHMARK.json``.

Per end-to-end metric it prints each side's median and quartiles over the
runs, how many pairs the change won (ties count for neither), whether the
medians differ by more than the distance between the parent's quartiles,
and whether the change is worse than the parent by more than the metric's
bound.  A gain may be claimed on a metric the change wins in at least nine
pairs of ten with the medians further apart than that spread.  Exits 1 if
any run on either side failed its verify pass.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent


def unpack(ref: str, into: Path) -> None:
    """The committed files of ``ref``, unpacked under ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref],
                             cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout,
                   check=True)


def run_once(checkout: Path, flags: Sequence[str]) -> dict:
    """One run's result line: ``{"correct", "failed", "metrics", ...}``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *flags], cwd=checkout,
        capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"bench_pairs: no result line from {checkout}:\n"
                         f"{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def judge(metric: dict, parent: List[float], change: List[float]
          ) -> Dict[str, object]:
    """The row of one metric: both sides' quartiles and the verdicts."""
    higher = metric["better"] == "higher"
    won = sum((c > p) if higher else (c < p)
              for p, c in zip(parent, change))
    lost = sum((c < p) if higher else (c > p)
               for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    gain = (c_median - p_median) if higher else (p_median - c_median)
    worse_by = (0.0 - gain) / abs(p_median) if p_median else 0.0
    beyond_spread = gain > p_q3 - p_q1
    return {
        "parent": (p_q1, p_median, p_q3), "change": (c_q1, c_median, c_q3),
        "won": won, "lost": lost,
        "beyond_spread": beyond_spread,
        "claimable": won >= 0.9 * len(parent) and beyond_spread,
        "worse_by": worse_by,
        "regressed": worse_by > metric["bound"],
    }


def report(bench: dict, parent: List[dict], change: List[dict]) -> List[str]:
    lines = [f"{'metric':<22} {'parent q1/median/q3':>38} "
             f"{'change q1/median/q3':>38} {'won':>5} {'worse by':>9}  verdict"]
    for metric in bench["end_to_end"]:
        name = metric["name"]
        row = judge(metric,
                    [run["metrics"][name]["value"] for run in parent],
                    [run["metrics"][name]["value"] for run in change])
        verdict = "REGRESSION" if row["regressed"] else \
            "gain" if row["claimable"] else \
            "beyond parent spread" if row["beyond_spread"] else "level"
        lines.append(
            f"{name:<22} "
            + "/".join(f"{v:>12.6g}" for v in row["parent"]) + " "
            + "/".join(f"{v:>12.6g}" for v in row["change"])
            + f" {row['won']:>2}/{len(parent):<2} {row['worse_by']:>+9.4f}"
            f"  {verdict}")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_REF")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    flags = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--scale", str(args.scale)]
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs.") as scratch:
        unpack(args.parent, Path(scratch))
        where = {"parent": Path(scratch), "change": ROOT}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 \
                else ("change", "parent")
            for side in order:
                runs[side].append(run_once(where[side], flags))
            print(f"pair {pair + 1}/{args.pairs}: " + "  ".join(
                f"{side} {runs[side][-1]['metrics']['throughput_per_s']['value']:,.0f}/s"
                for side in order), flush=True)
    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s a run, "
          f"{args.pairs} pairs against {args.parent}")
    print("\n".join(report(bench, runs["parent"], runs["change"])))
    failed = {side: sum(run["failed"] for run in side_runs)
              for side, side_runs in runs.items()}
    print(f"failed: parent {failed['parent']}, change {failed['change']}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
