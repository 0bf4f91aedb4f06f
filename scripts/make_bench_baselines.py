#!/usr/bin/env python
"""Regenerate the checked-in bench-scorecard baselines.

Runs the canonical scorecard (``repro.harness.scorecard``) and writes
``benchmarks/baselines/BENCH_engine.json`` and ``BENCH_serve.json``.  Run
this — and commit the result — whenever a deterministic counter changes
*intentionally* (a batching-policy change, a cache accounting fix, a new
exactness tally); the CI ``bench-scorecard`` job gates every push against
these files with ``repro bench compare``.

Timing metrics in the baselines record the machine that generated them and
are never judged, so there is no need to regenerate on a "faster" machine.

Usage::

    PYTHONPATH=src python scripts/make_bench_baselines.py [--out-dir DIR]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.harness.scorecard import run_scorecard  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path,
                        default=REPO_ROOT / "benchmarks" / "baselines",
                        help="where to write the baseline records")
    args = parser.parse_args(argv)
    paths = run_scorecard(args.out_dir)
    for area, path in sorted(paths.items()):
        print(f"wrote {area} baseline: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
