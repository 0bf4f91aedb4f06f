"""The ingestion frontend: admission control between sources and serving.

This package sits between request sources and the serving stack
(:mod:`repro.serve`).  Its synchronous core is the
:class:`~repro.ingest.admission.AdmissionController` — per-tenant
:class:`~repro.ingest.bucket.TokenBucket` rate limits, a bounded virtual
admission queue, and a two-level congestion signal
(:class:`~repro.ingest.admission.CongestionLevel`) that slows sources
*before* queues overflow and sheds when they do — every refusal counted,
with an :class:`~repro.ingest.admission.AdmissionDecision` carrying its
``retry_after``.  ``run_serving`` drives the controller inline whenever the
serving config carries an :class:`~repro.ingest.admission.IngestConfig`.

Every decision runs on the trace clock (request timestamps), never the
wall clock, so admission outcomes are deterministic and replayable — see
docs/ingest.md for the full contract, including why trace replay bypasses
admission timing.
"""

from repro.ingest.admission import (
    ADMITTED,
    SHED,
    THROTTLED,
    AdmissionController,
    AdmissionDecision,
    CongestionLevel,
    IngestConfig,
)
from repro.ingest.bucket import TokenBucket

__all__ = [
    "ADMITTED",
    "THROTTLED",
    "SHED",
    "AdmissionController",
    "AdmissionDecision",
    "CongestionLevel",
    "IngestConfig",
    "TokenBucket",
]
