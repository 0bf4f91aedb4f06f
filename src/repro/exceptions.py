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


class BenchError(ReproError):
    """A benchmark scorecard could not be produced or compared."""


class BenchFormatError(BenchError):
    """A ``BENCH_*.json`` record is malformed: not JSON, an unsupported
    schema version, missing fields, or non-numeric metric values."""
