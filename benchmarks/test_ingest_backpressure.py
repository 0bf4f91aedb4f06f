"""Ingestion-frontend benchmark: flash-crowd admission under backpressure.

The acceptance bar for the ingest subsystem (docs/ingest.md): an
adversarial flash-crowd workload — one tenant's offered rate multiplied
mid-trace (``repro.workloads.adversarial``) — is admitted through per-tenant
token buckets and bounded virtual-time queues with

* **no silent drops**: every offered request is accounted for exactly once
  as admitted, throttled, or shed (counted rejection, never tail-drop), and
  every admitted request is served;
* **bounded queueing delay**: admission delay never exceeds
  ``queue_limit / tenant_rate`` — the structural bound a bounded queue
  drained at the tenant's rate guarantees, independent of offered load;
* **determinism**: admission decisions are a pure function of the trace
  clock, so two runs produce identical deterministic counters;
* **exactness**: backpressure changes *when* packets are served, never the
  answers — zero misclassifications against linear search.
"""

from __future__ import annotations

from repro.harness import format_table
from repro.harness.serving import run_serving
from repro.ingest import IngestConfig
from repro.serve import ServingConfig
from repro.workloads import FlashCrowdConfig

INGEST = IngestConfig(tenant_rate=20_000.0, tenant_burst=64, queue_limit=128)
FLASH = FlashCrowdConfig(rate_factor=8.0)


def _run_flash_crowd(ingest: IngestConfig):
    return run_serving(
        ServingConfig(background_swaps=False, record_batches=True,
                      ingest=ingest),
        num_tenants=3,
        num_rules=60,
        num_packets=4_000,
        num_flows=300,
        churn_events=0,
        flash_crowd=FLASH,
        seed=0,
    )


def test_flash_crowd_backpressure(run_once, benchmark):
    result = run_once(_run_flash_crowd, INGEST)
    report = result.report

    print("\n=== Flash crowd through the ingest frontend ===")
    print(result.workload.describe())
    print(format_table(["metric", "value"], report.rows()))
    benchmark.extra_info["pps"] = report.pps
    benchmark.extra_info["admitted"] = report.ingest_admitted
    benchmark.extra_info["throttled"] = report.ingest_throttled
    benchmark.extra_info["shed"] = report.ingest_shed

    # Every offered request is accounted for exactly once — admission is a
    # partition, not a filter with silent losses.
    assert report.ingest_offered == len(result.workload.requests)
    assert report.ingest_offered == (report.ingest_admitted
                                     + report.ingest_throttled
                                     + report.ingest_shed)
    # The flash crowd actually hit the wall: rejections happened, and every
    # admitted request was served.
    assert report.ingest_throttled > 0, \
        "an 8x flash crowd never tripped the token bucket"
    assert report.num_requests == report.ingest_admitted, \
        "admitted requests went missing between admission and serving"

    # The structural delay bound: a bounded queue drained at a fixed rate
    # cannot delay an admitted packet by more than queue_limit/tenant_rate.
    delay = report.metrics.timing("ingest.queue_delay_seconds")
    assert delay.count == report.ingest_admitted
    assert delay.max <= INGEST.max_queue_delay + 1e-9, (
        f"queue delay {delay.max:.6f}s exceeds the structural bound "
        f"{INGEST.max_queue_delay:.6f}s"
    )
    assert delay.percentile(99.0) <= INGEST.max_queue_delay + 1e-9
    print(f"queue delay p50/p99/max: {delay.percentile(50.0) * 1e3:.3f} / "
          f"{delay.percentile(99.0) * 1e3:.3f} / {delay.max * 1e3:.3f} ms "
          f"(bound {INGEST.max_queue_delay * 1e3:.3f} ms)")

    # Backpressure re-times packets but never changes answers.
    exactness = result.verify_exactness()
    assert exactness.num_checked == report.num_requests
    assert exactness.num_mismatches == 0

    # Virtual-clock determinism: an identical second run produces identical
    # deterministic counters (including the ingest tallies).
    repeat = _run_flash_crowd(INGEST)
    assert repeat.report.deterministic_counters() == \
        report.deterministic_counters()


def test_flash_crowd_hard_shed_stays_bounded():
    """A queue shorter than the burst forces HARD sheds, not longer waits.

    SOFT engages at half the queue and re-paces the source behind the
    drain, so only a one-deep queue (SOFT and HARD at the same occupancy)
    is still full when the next wire arrival lands.
    """
    ingest = IngestConfig(tenant_rate=20_000.0, tenant_burst=64,
                          queue_limit=1)
    result = _run_flash_crowd(ingest)
    report = result.report

    assert report.ingest_shed > 0, \
        "a one-deep queue under an 8x flash crowd never shed"
    assert report.ingest_offered == (report.ingest_admitted
                                     + report.ingest_throttled
                                     + report.ingest_shed)
    assert report.num_requests == report.ingest_admitted
    delay = report.metrics.timing("ingest.queue_delay_seconds")
    assert delay.max <= ingest.max_queue_delay + 1e-9, \
        "shedding must cap delay at the shorter queue's bound"
