"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError`, so callers can catch a
single base class when they do not care about the specific failure mode.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class RuleFormatError(ReproError):
    """A classifier rule could not be parsed or is internally inconsistent."""


class InvalidRangeError(ReproError):
    """A (lo, hi) range is malformed (lo >= hi, out of field bounds, ...)."""


class TreeError(ReproError):
    """An illegal operation was attempted on a decision tree."""


class InvalidActionError(TreeError):
    """A cut or partition action is not applicable to the given node."""


class BuildError(ReproError):
    """A tree builder (baseline heuristic or NeuroCuts) failed to finish."""


class ConfigError(ReproError):
    """A configuration object contains inconsistent or out-of-range values."""


class CheckpointError(ReproError):
    """A model checkpoint could not be saved or restored."""


class TraceError(ReproError):
    """A serving trace could not be recorded, replayed, or verified."""


class TraceFormatError(TraceError):
    """A trace file is malformed: bad magic, unsupported version, truncated
    payload, or internally inconsistent contents (e.g. a packet record
    referencing a tenant the trace never declared)."""


class IngestError(ReproError):
    """The ingestion frontend could not accept or process a request."""


class ThrottledError(IngestError):
    """A request was rejected at admission — typed, never a silent drop.

    Raised by the asyncio ingestion frontend when a tenant exceeds its
    token-bucket rate (``reason="throttled"``) or its admission queue is
    full (``reason="shed"``, the HARD congestion level).  Carries enough
    context for a well-behaved source to back off: ``retry_after`` is the
    trace-clock delay until the tenant's bucket holds a token again.
    """

    def __init__(self, tenant_id: str, time: float, reason: str,
                 level: int = 0, retry_after: float = 0.0) -> None:
        super().__init__(
            f"tenant {tenant_id!r} {reason} at t={time:.6f}"
            + (f" (retry after {retry_after:.6f}s)" if retry_after > 0 else "")
        )
        self.tenant_id = tenant_id
        self.time = time
        self.reason = reason
        self.level = level
        self.retry_after = retry_after


class BenchError(ReproError):
    """A benchmark scorecard could not be produced or compared."""


class BenchFormatError(BenchError):
    """A ``BENCH_*.json`` record is malformed: not JSON, an unsupported
    schema version, missing fields, or non-numeric metric values."""
