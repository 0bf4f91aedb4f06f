#!/usr/bin/env python
"""Alternating parent/change pairs of one ``perfbench`` workload.

    python scripts/bench_pairs.py PARENT_REF --workload W
        [--pairs 10] [--seed N] [--seconds S] [--scale X] [--json OUT]

The protocol every change that claims a gain has to show (ROADMAP, "Two
measurement systems").  Both sides run from sibling directories under one
temporary directory, so neither has a warm ``__pycache__``, a shorter path
or the working tree's own directory: the parent's committed files are
unpacked into one (``git archive`` — nothing is written into ``.git``),
and this working tree's files as they stand — tracked and untracked, not
ignored — are copied into the other.  ``python3 perfbench/run.py
--workload W --seconds S`` is run in each, ``--pairs`` times, the side
that goes first flipping every pair.  Metric names, directions, bounds and
the default ``S`` (``run_seconds``) come from the working tree's
``BENCHMARK.json``.

Per end-to-end metric it prints each side's median and quartiles over the
runs, how many pairs the change won (ties count for neither), whether the
medians differ by more than the distance between the parent's quartiles,
and whether the change is worse than the parent by more than the metric's
bound.  A gain may be claimed on a metric the change wins in at least nine
pairs of ten with the medians further apart than that spread.  Exits 1 if
any run on either side failed its verify pass.

``--json OUT`` also writes the comparison as a versioned record (format
:data:`RECORD_VERSION`): both sides' commits, the flags, the metric
definitions judged, every run's result line on both sides, and the row and
verdict of each metric.  The rows are a pure function of the runs and the
metric definitions, so a reader can recompute them from the record alone
(:func:`recompute`); records of claimed gains live under
``benchmarks/trajectory/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
#: Version of the ``--json`` record's layout.
RECORD_VERSION = 1


def unpack(ref: str, into: Path) -> None:
    """The committed files of ``ref``, unpacked under ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref],
                             cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout,
                   check=True)


def copy_tree(into: Path) -> None:
    """This working tree's files as they stand (``git ls-files -co
    --exclude-standard``: tracked and untracked, not ignored), copied
    under ``into``."""
    listed = subprocess.run(
        ["git", "ls-files", "-co", "--exclude-standard", "-z"], cwd=ROOT,
        check=True, capture_output=True).stdout.decode().split("\0")
    for name in filter(None, listed):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted from the tree is listed
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


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


def verdict(row: Dict[str, object]) -> str:
    """The one word a metric's row comes to."""
    return "REGRESSION" if row["regressed"] else \
        "gain" if row["claimable"] else \
        "beyond parent spread" if row["beyond_spread"] else "level"


def rows(metrics: Sequence[dict], parent: List[dict], change: List[dict]
         ) -> Dict[str, Dict[str, object]]:
    """:func:`judge`'s row, plus its verdict, for every metric of
    ``metrics`` over the two sides' result lines."""
    judged = {}
    for metric in metrics:
        name = metric["name"]
        row = judge(metric,
                    [run["metrics"][name]["value"] for run in parent],
                    [run["metrics"][name]["value"] for run in change])
        judged[name] = {**row, "verdict": verdict(row)}
    return judged


def report(bench: dict, parent: List[dict], change: List[dict]) -> List[str]:
    lines = [f"{'metric':<22} {'parent q1/median/q3':>38} "
             f"{'change q1/median/q3':>38} {'won':>5} {'worse by':>9}  verdict"]
    for name, row in rows(bench["end_to_end"], parent, change).items():
        lines.append(
            f"{name:<22} "
            + "/".join(f"{v:>12.6g}" for v in row["parent"]) + " "
            + "/".join(f"{v:>12.6g}" for v in row["change"])
            + f" {row['won']:>2}/{len(parent):<2} {row['worse_by']:>+9.4f}"
            f"  {row['verdict']}")
    return lines


def commit_of(ref: str) -> str:
    """The full SHA ``ref`` names in this repository."""
    return subprocess.run(["git", "rev-parse", f"{ref}^{{commit}}"],
                          cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def record(bench: dict, args: argparse.Namespace,
           runs: Dict[str, List[dict]]) -> dict:
    """The ``--json`` record of one comparison.

    The change side is a copy of this working tree: its ``HEAD`` and
    whether the files the benchmark reads (``src/`` and the benchmark's
    own paths) differed from it when the runs were made.
    """
    paths = ["src", *bench["paths"]]
    dirty = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", *paths],
                           cwd=ROOT).returncode != 0
    return {
        "version": RECORD_VERSION,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "pairs": args.pairs,
        "parent": {"ref": args.parent, "sha": commit_of(args.parent)},
        "change": {"sha": commit_of("HEAD"), "dirty": dirty},
        "metrics": bench["end_to_end"],
        "runs": runs,
        "rows": rows(bench["end_to_end"], runs["parent"], runs["change"]),
    }


def recompute(saved: dict) -> Dict[str, Dict[str, object]]:
    """A record's rows, recomputed from its own runs and metric definitions
    and put through JSON as the record's were: equal to ``saved["rows"]``
    for any record this script wrote."""
    if saved.get("version") != RECORD_VERSION:
        raise ValueError(f"record version {saved.get('version')!r}, this "
                         f"script reads {RECORD_VERSION}")
    return json.loads(json.dumps(rows(saved["metrics"],
                                      saved["runs"]["parent"],
                                      saved["runs"]["change"])))


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
    parser.add_argument("--json", metavar="OUT", type=Path,
                        help="also write the comparison as a JSON record")
    args = parser.parse_args(argv)
    flags = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--scale", str(args.scale)]
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs.") as scratch:
        where = {side: Path(scratch) / side for side in ("parent", "change")}
        for checkout in where.values():
            checkout.mkdir()
        unpack(args.parent, where["parent"])
        copy_tree(where["change"])
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
    if args.json is not None:
        args.json.write_text(
            json.dumps(record(bench, args, runs), indent=1, sort_keys=True)
            + "\n")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
