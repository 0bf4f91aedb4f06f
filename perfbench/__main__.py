"""Run every workload and print every metric by name.

    PYTHONPATH=src python -m perfbench --seed N [--workload W] [--out DIR]

Each workload runs in fresh interpreters launched one after another (clean
``peak_rss_mb``, no cache warmth carried between workloads): once untraced
for the end-to-end metrics, once traced for the per-layer metrics.  With
``--runs K`` the untraced run is repeated on seeds ``N .. N+K-1`` and each
metric is reported as the median of the K runs with their quartiles, which
is how the steadiness of the benchmark itself is checked (see README).

Writes ``DIR/results.json`` (what ``compare.py`` reads), one detailed
record per run, and the span JSONL of each traced run.  Exits non-zero if
any output was wrong or any invariant broke.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.run import load_benchmark, quartiles  # noqa: E402


def launch(workload: str, seed: int, trace: int, args: argparse.Namespace,
           out: Path) -> dict:
    """One run in a fresh interpreter; returns its detailed record."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--scale", str(args.scale),
               "--out", str(out)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    record_path = out / f"{workload}.trace{trace}.seed{seed}.json"
    if done.returncode not in (0, 1) or not record_path.exists():
        raise SystemExit(f"perfbench: {' '.join(command)} exited with "
                         f"{done.returncode} and no result")
    return json.loads(record_path.read_text())


def across_runs(records: Sequence[dict]) -> Dict[str, dict]:
    """Per metric: the median over runs, with the runs' quartiles.

    A single run keeps the quartiles of its own repeats instead.
    """
    if len(records) == 1:
        return records[0]["metrics"]
    merged = {}
    for name in records[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in records]
        merged[name] = quartiles(values)
    return merged


def show(title: str, metrics: Dict[str, dict], units: Dict[str, str]) -> None:
    print(f"  {title}")
    for name, m in metrics.items():
        spread = (m["q3"] - m["q1"]) / abs(m["value"]) if m["value"] else 0.0
        print(f"    {name:<30} {m['value']:>16.6g} {units[name]:<9}"
              f" q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g}"
              f" n {m['n']:<3} spread {spread:.3f}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (may be repeated)")
    parser.add_argument("--out", default=str(HERE / "out"))
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload, on successive seeds")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced run (no per-layer metrics)")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}

    results: Dict[str, dict] = {}
    wrong: List[str] = []
    fingerprint = None
    for workload in args.workload or names:
        runs = [launch(workload, args.seed + i, 0, args, out)
                for i in range(args.runs)]
        fingerprint = fingerprint or runs[0]["fingerprint"]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = results[workload] = {
            "end_to_end": across_runs(runs),
            "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted,
            "verify": [r["verify"] for r in runs],
            "repeats": [r["fingerprint"]["repeats"] for r in runs],
        }
        print(f"{workload}: attempted {attempted}  succeeded "
              f"{attempted - failed}  failed {failed}  "
              f"failed_share {entry['failed_share']:.6f}")
        show("end to end", entry["end_to_end"], units)
        checked = runs
        if not args.no_trace:
            traced = launch(workload, args.seed, 1, args, out)
            entry["per_layer"] = traced["metrics"]
            entry["traced"] = {k: traced[k] for k in
                               ("traced_wall_s", "self_sum_s", "root_self_s",
                                "spans")}
            show("per layer (traced run)", traced["metrics"], units)
            print("    sum of self times {self_sum_s:.6f} s + root self "
                  "{root_self_s:.6f} s = traced wall {traced_wall_s:.6f} s"
                  .format(**traced))
            checked = runs + [traced]
        if not all(r["correct"] for r in checked):
            wrong.append(workload)
    fingerprint = dict(fingerprint, runs=args.runs)
    (out / "results.json").write_text(json.dumps(
        {"fingerprint": fingerprint, "workloads": results}, indent=1))
    print(f"results: {out / 'results.json'}")
    if wrong:
        print(f"FAILED verify pass: {', '.join(wrong)}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
