"""Compare two ``results.json`` files row by row.

    python perfbench/compare.py A.json B.json

A is the reference (the parent commit, or the first of an A/A pair), B the
candidate.  One row per (end-to-end metric, workload): both medians with
their quartiles, how much worse B is as a share of A's median, and a
verdict from the metric's bound in ``BENCHMARK.json``:

* ``ok``          B is no worse than A by more than the bound;
* ``REGRESSION``  B is worse by more than the bound and by more than
                  either side's own quartile spread;
* ``unresolved``  a side's quartile spread exceeds the bound, so the
                  runs cannot tell "unchanged" from "moved" — add
                  repeats or runs, do not widen the bound.

A workload whose failed share rose is a regression too.  Exits 1 on any
regression, 0 otherwise; no gain is ever claimed here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


def spread(metric: dict) -> float:
    """Distance between the quartiles as a share of the median."""
    if not metric["value"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def judge(a: dict, b: dict, better: str, bound: float) -> Tuple[float, str]:
    """How much worse B's median is (share of A's), and the verdict."""
    delta = (b["value"] - a["value"]) / abs(a["value"]) if a["value"] else 0.0
    worse = -delta if better == "higher" else delta
    noise = max(spread(a), spread(b))
    if worse > bound and worse > noise:
        return worse, "REGRESSION"
    if noise > bound:
        return worse, "unresolved"
    return worse, "ok"


def compare(a: dict, b: dict, bench: dict) -> Tuple[List[str], int]:
    """The report lines and the number of regressions."""
    lines = [f"{'workload':<12} {'metric':<22} {'A median':>13} "
             f"{'B median':>13} {'worse by':>9} {'bound':>6} "
             f"{'spread A':>8} {'spread B':>8}  verdict"]
    regressions = 0
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            lines.append(f"{workload:<12} missing from B")
            regressions += 1
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            m_a, m_b = entry_a["end_to_end"][name], entry_b["end_to_end"][name]
            worse, verdict = judge(m_a, m_b, metric["better"],
                                   metric["bound"])
            regressions += verdict == "REGRESSION"
            lines.append(
                f"{workload:<12} {name:<22} {m_a['value']:>13.6g} "
                f"{m_b['value']:>13.6g} {worse:>+9.4f} "
                f"{metric['bound']:>6.3f} {spread(m_a):>8.4f} "
                f"{spread(m_b):>8.4f}  {verdict}")
        rose = entry_b["failed_share"] > entry_a["failed_share"]
        regressions += rose
        lines.append(
            f"{workload:<12} {'failed_share':<22} "
            f"{entry_a['failed_share']:>13.6g} "
            f"{entry_b['failed_share']:>13.6g} "
            f"(failed {entry_a['failed']}/{entry_a['attempted']} vs "
            f"{entry_b['failed']}/{entry_b['attempted']})  "
            f"{'REGRESSION' if rose else 'ok'}")
    return lines, regressions


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key in ("git_sha", "seed", "scale", "seconds", "runs", "nproc"):
        print(f"{key:<8} A {a['fingerprint'].get(key)!s:<42} "
              f"B {b['fingerprint'].get(key)!s}")
    lines, regressions = compare(a, b, bench)
    print("\n".join(lines))
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
