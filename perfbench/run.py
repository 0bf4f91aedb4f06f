"""One run of one workload in this interpreter: the ``BENCHMARK.json`` command.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` measures the per-layer metrics from traced repeats and never
feeds an end-to-end number.  Either way the outputs are checked against
linear search, and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Protocol of a run: set-up (timed; several times when untraced) -> timed
repeats for ``--seconds`` with ``gc.collect()`` between them -> verify
pass.  Every timing metric is computed from the run's :class:`Floor`: each
timed call of the workload at the fastest it ran in any repeat.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    # Never fall back to an installed copy: the checkout is the subject.
    raise SystemExit("perfbench: src/repro is missing beside perfbench/")
for _entry in (ROOT / "src", ROOT):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))
# One BLAS thread, set before numpy loads: the policy's 64-wide layers gain
# nothing from a second one, and OpenBLAS's spinning workers make the same
# call take 6 ms or 600 ms on a 2-vCPU machine depending on who else runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from perfbench.layers import layer_metrics  # noqa: E402
from perfbench.tracing import SETUP, Tracer, durations_by_repeat, \
    totals_by_repeat  # noqa: E402
from perfbench.workloads import WORKLOADS, Repeat, Workload, \
    recording  # noqa: E402

#: Share of an untraced run spent setting up again (``setup_s`` is the
#: fastest set-up): one more between two repeats whenever the set-ups so
#: far have taken less than this share of the time since the first.
SETUP_SHARE = 1 / 6
#: Fewest timed repeats behind any reported number.
MIN_REPEATS = 3
#: Most traced repeats (each holds ~10 spans per packet in memory).
MAX_TRACED = 3


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of one metric's per-repeat values."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


class Floor:
    """Each timed call of a workload at the fastest it ran in any repeat.

    The machine is shared: its other tenants slow the program down in
    bursts of milliseconds to seconds, most of the time, and never speed
    it up.  A repeat of 0.5-2 s is hit somewhere almost every time, so the
    median repeat (and its quartiles) follows the neighbours, not the
    code: the same loop measured for 10 s windows moved 25% at the median
    and under 1% at the minimum of its 20 ms pieces.  Every repeat of a
    run does the same work call by call, so the run keeps, for each call
    (a ``serve()`` segment, a ``match_indices`` batch, a training
    iteration, one request's latency, one engine build), the least time it
    took in any repeat.  The metrics are computed from that pass: the
    program as it runs when it has the processor to itself.
    """

    def __init__(self) -> None:
        self.repeats = 0
        self.items = 0
        self.fastest: List[np.ndarray] = []
        #: Per repeat, the same metrics without the floor: what a reader
        #: needs to see how much the machine disturbed the run.
        self.per_repeat: Dict[str, List[float]] = {}

    def add(self, repeat: Repeat) -> None:
        arrays = [np.asarray(a, dtype=float) for a in
                  (repeat.pieces, repeat.latencies_ms, repeat.builds_ms)]
        if not self.repeats:
            self.items, self.fastest = repeat.items, arrays
        elif repeat.items != self.items or any(
                a.shape != b.shape for a, b in zip(arrays, self.fastest)):
            raise SystemExit("perfbench: two repeats of one run did "
                             "different work; their calls cannot be paired")
        else:
            self.fastest = [np.minimum(a, b)
                            for a, b in zip(arrays, self.fastest)]
        self.repeats += 1
        for name, value in self._metrics(repeat.items, *arrays).items():
            self.per_repeat.setdefault(name, []).append(value)

    @staticmethod
    def _metrics(items: int, pieces: np.ndarray, latencies_ms: np.ndarray,
                 builds_ms: np.ndarray) -> Dict[str, float]:
        return {
            "throughput_per_s": items / float(pieces.sum()),
            "latency_mean_ms": float(latencies_ms.mean()),
            "latency_p99_ms": float(np.percentile(latencies_ms, 99)),
            "engine_build_ms": float(np.median(builds_ms)),
        }

    def metrics(self) -> Dict[str, Dict[str, float]]:
        """The floor's value of each metric, beside the repeats' quartiles."""
        return {name: {**quartiles(self.per_repeat[name]), "value": value}
                for name, value in
                self._metrics(self.items, *self.fastest).items()}


def repeats_for(workload: Workload, tracer: Optional[Tracer],
                seconds: float, at_least: int,
                at_most: Optional[int] = None,
                first_id: int = 0) -> Iterator[Repeat]:
    """Repeat the timed section until ``seconds`` have passed."""
    done = 0
    begin = time.perf_counter()
    while done < at_least or (
            time.perf_counter() - begin < seconds
            and (at_most is None or done < at_most)):
        gc.collect()
        yield workload.repeat(tracer, first_id + done)
        done += 1


def end_to_end(workload: Workload, setup_seconds: Sequence[float],
               floor: Floor) -> Dict[str, Dict[str, float]]:
    """Every end-to-end metric of an untraced run.

    ``value`` is what the run reports; ``q1``/``q3``/``n``/``samples``
    describe the repeats (or set-ups) it was taken from.
    """
    metrics = floor.metrics()
    metrics["setup_s"] = {**quartiles(setup_seconds),
                          "value": min(setup_seconds)}
    once = {"peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **workload.constants()}
    metrics.update((name, quartiles([value])) for name, value in once.items())
    metrics["latency_p99_ms"]["samples_per_repeat"] = \
        int(floor.fastest[1].size)
    return metrics


def per_layer(workload: Workload, tracer: Tracer, totals: dict,
              untraced_wall: float, traced: Sequence[Repeat],
              first_id: int) -> Dict[str, Dict[str, float]]:
    """Every per-layer metric: the median over the traced repeats."""
    lookups = durations_by_repeat(tracer.spans, "engine.lookup_batch")
    rows = [
        layer_metrics(totals.get(SETUP, {}), totals[first_id + i],
                      lookups.get(first_id + i, ()), repeat, workload.root,
                      workload.num_requests(), untraced_wall)
        for i, repeat in enumerate(traced)
    ]
    return {name: quartiles([row[name] for row in rows]) for name in rows[0]}


def fingerprint(args: argparse.Namespace, repeats: int) -> dict:
    """Where and how the numbers were taken."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "git_sha": sha, "seed": args.seed,
            "scale": args.scale, "seconds": args.seconds,
            "trace": args.trace, "repeats": repeats}


def set_up(args: argparse.Namespace, tracer: Optional[Tracer]):
    """A fresh instance of the workload, set up; and the seconds it took."""
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    gc.collect()
    start = time.perf_counter()
    with recording(tracer, SETUP):
        workload.setup(tracer)
    return workload, time.perf_counter() - start


def run(args: argparse.Namespace) -> dict:
    """Set up, repeat, verify; returns the detailed record of the run."""
    tracer = Tracer(args.workload) if args.trace else None
    workload, spent = set_up(args, tracer)
    setup_seconds = [spent]

    if tracer is None:
        # No warm-up repeat: the first one (lazy imports, cold allocator)
        # is slower call by call and so leaves no mark on the floor.
        # The other set-ups are spread over the run, not bunched at its
        # start: a disturbance of a few seconds then spoils one, not all.
        floor = Floor()
        begin = time.perf_counter()
        for repeat in repeats_for(workload, None, args.seconds, MIN_REPEATS):
            floor.add(repeat)
            if sum(setup_seconds) < \
                    SETUP_SHARE * (time.perf_counter() - begin):
                setup_seconds.append(set_up(args, None)[1])
        repeats = floor.repeats
        metrics = end_to_end(workload, setup_seconds, floor)
        extra = {}
    else:
        workload.repeat(None, 0)  # warm-up: lazy imports finish
        plain = [r.wall for r in
                 repeats_for(workload, None, args.seconds / 2, 2)]
        traced = list(repeats_for(workload, tracer, args.seconds / 2, 1,
                                  MAX_TRACED, first_id=len(plain)))
        repeats = len(traced)
        totals = totals_by_repeat(tracer.spans)
        metrics = per_layer(workload, tracer, totals,
                            statistics.median(plain), traced, len(plain))
        first = totals[len(plain)]
        extra = {
            # Sum(self) over the first traced repeat against its wall.
            "traced_wall_s": first[workload.root].total,
            "self_sum_s": sum(t.own for name, t in first.items()
                              if name != workload.root),
            "root_self_s": first[workload.root].own,
            "spans": len(tracer.spans),
        }
        if args.out:
            tracer.write_jsonl(
                Path(args.out) / f"{args.workload}.spans.jsonl")
    verdict = workload.verify()
    return {
        "workload": args.workload,
        "fingerprint": fingerprint(args, repeats),
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "verify": verdict.detail,
        "metrics": metrics,
        **extra,
    }


def contract_line(record: dict, bench: dict) -> str:
    """The result line: exactly the metrics ``BENCHMARK.json`` lists."""
    listed = bench["per_layer" if record["fingerprint"]["trace"]
                   else "end_to_end"]
    missing = {m["name"] for m in listed} ^ set(record["metrics"])
    if missing:
        raise SystemExit(f"perfbench: metrics out of step with "
                         f"BENCHMARK.json: {sorted(missing)}")
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]]["value"],
                                "unit": m["unit"]} for m in listed},
    })


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to measure (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input size (tests use 0.02)")
    parser.add_argument("--out", default=None,
                        help="directory for the detailed record and spans")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    record = run(args)
    if args.out:
        name = f"{args.workload}.trace{args.trace}.seed{args.seed}.json"
        (Path(args.out) / name).write_text(json.dumps(record, indent=1))
    print(contract_line(record, bench), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
