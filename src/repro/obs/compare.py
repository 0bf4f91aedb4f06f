"""The regression gate: compare a bench run against a checked-in baseline.

:func:`compare_records` implements the comparison semantics the scorecard
schema (:mod:`repro.obs.bench`) was split for:

* **Config** — the knobs must match (comparing runs of different scenarios
  is user error, not a perf verdict); ``ignore_config=True`` opts out when
  a scale change is intentional.
* **Counters** — strict: a deterministic counter that moved *at all* is a
  regression (or an unflagged behaviour change, which the gate exists to
  surface).  A counter present in the baseline but missing from the run is
  a regression too; counters new in the run are reported informationally.
* **Timings** — informational: each baseline timing is printed beside the
  run's, and neither a worse value, a timing absent from the run, nor a new
  one can fail the gate.  Wall-clock numbers from two machines (or two
  moments on one shared machine) are not a verdict; timing claims are
  paired ``perfbench`` runs (see perfbench/README.md).

Environment fingerprints never fail a comparison either; they exist so a
surprising result can be traced to the machine that produced each side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.obs.bench import BenchRecord


@dataclass(frozen=True)
class CheckResult:
    """One metric's verdict in a comparison."""

    metric: str
    kind: str  #: "config" | "counter" | "timing"
    status: str  #: "ok" | "regression" | "missing" | "new" | "info"
    run_value: Optional[object] = None
    baseline_value: Optional[object] = None
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status in ("regression", "missing")


@dataclass
class CompareReport:
    """Outcome of gating one run against one baseline."""

    run_name: str
    baseline_name: str
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def failures(self) -> List[CheckResult]:
        return [c for c in self.checks if c.failed]

    @property
    def ok(self) -> bool:
        """True when the run passes the gate (no counter/config fails)."""
        return not self.failures

    def rows(self) -> List[List[object]]:
        """Table rows for :func:`repro.harness.tables.format_table`."""
        def fmt(value: object) -> str:
            if isinstance(value, float):
                return f"{value:,.6g}"
            return str(value)

        rows: List[List[object]] = []
        for check in self.checks:
            rows.append([
                check.kind,
                check.metric,
                fmt(check.baseline_value) if check.baseline_value is not None
                else "-",
                fmt(check.run_value) if check.run_value is not None else "-",
                check.status + (f" ({check.detail})" if check.detail else ""),
            ])
        return rows


def _check_config(run: BenchRecord, baseline: BenchRecord,
                  checks: List[CheckResult]) -> None:
    keys = sorted(set(run.config) | set(baseline.config))
    for key in keys:
        in_run = key in run.config
        in_base = key in baseline.config
        if in_run and in_base and run.config[key] == baseline.config[key]:
            continue
        checks.append(CheckResult(
            metric=key, kind="config", status="regression",
            run_value=run.config.get(key), baseline_value=baseline.config.get(key),
            detail="config drift; rerun with the baseline's config or pass "
                   "--ignore-config",
        ))


def _check_counters(run: BenchRecord, baseline: BenchRecord,
                    checks: List[CheckResult]) -> None:
    for metric in sorted(baseline.counters):
        base_value = baseline.counters[metric]
        if metric not in run.counters:
            checks.append(CheckResult(
                metric=metric, kind="counter", status="missing",
                baseline_value=base_value,
                detail="counter present in baseline but absent from the run",
            ))
            continue
        run_value = run.counters[metric]
        if run_value == base_value:
            checks.append(CheckResult(metric=metric, kind="counter",
                                      status="ok", run_value=run_value,
                                      baseline_value=base_value))
        else:
            checks.append(CheckResult(
                metric=metric, kind="counter", status="regression",
                run_value=run_value, baseline_value=base_value,
                detail="deterministic counter changed",
            ))
    for metric in sorted(set(run.counters) - set(baseline.counters)):
        checks.append(CheckResult(metric=metric, kind="counter", status="new",
                                  run_value=run.counters[metric],
                                  detail="not in baseline"))


def _report_timings(run: BenchRecord, baseline: BenchRecord,
                    checks: List[CheckResult]) -> None:
    """Baseline timings beside the run's; no row here can fail the gate."""
    for metric in sorted(baseline.timings):
        base_value = baseline.timings[metric]
        if metric not in run.timings:
            checks.append(CheckResult(
                metric=metric, kind="timing", status="info",
                baseline_value=base_value, detail="absent from the run",
            ))
            continue
        run_value = run.timings[metric]
        detail = f"{(run_value - base_value) / abs(base_value):+.1%}" \
            if base_value else ""
        checks.append(CheckResult(metric=metric, kind="timing",
                                  status="info", run_value=run_value,
                                  baseline_value=base_value, detail=detail))
    for metric in sorted(set(run.timings) - set(baseline.timings)):
        checks.append(CheckResult(metric=metric, kind="timing", status="new",
                                  run_value=run.timings[metric],
                                  detail="not in baseline"))


def compare_records(
    run: BenchRecord,
    baseline: BenchRecord,
    ignore_config: bool = False,
) -> CompareReport:
    """Gate a bench run against a baseline record.

    Returns a :class:`CompareReport`; ``report.ok`` is the gate verdict
    (``repro bench compare`` exits non-zero when it is False).  Area,
    config and counters decide it; timings are reported, never judged.
    """
    checks: List[CheckResult] = []
    if run.area != baseline.area:
        checks.append(CheckResult(
            metric="area", kind="config", status="regression",
            run_value=run.area, baseline_value=baseline.area,
            detail="records benchmark different areas",
        ))
    if not ignore_config:
        _check_config(run, baseline, checks)
    _check_counters(run, baseline, checks)
    _report_timings(run, baseline, checks)
    return CompareReport(
        run_name=run.name,
        baseline_name=baseline.name,
        checks=checks,
    )
