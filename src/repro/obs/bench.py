"""The versioned ``BENCH_<area>.json`` scorecard schema.

A :class:`BenchRecord` is one benchmark run made machine-readable: what ran
(``name``, ``area``), with which knobs (``config``), what it measured, and
where (``environment``).  Metrics are split by comparison semantics:

* ``counters`` — deterministic quantities (packets served, swaps, cache
  invalidations, exactness mismatches, compiled bytes).  Given the same
  config these are a pure function of the workload, so the regression gate
  (:mod:`repro.obs.compare`) holds them to **exact equality**.
* ``timings`` — wall-clock quantities (pps, latency percentiles, compile
  seconds).  They measure the machine as much as the code, so the gate
  applies a relative tolerance band, direction-aware.

Records serialise as sorted-key JSON (``BENCH_<area>.json`` by convention);
the embedded ``schema_version`` gates reads — an unknown version raises
:class:`~repro.exceptions.BenchFormatError` instead of silently
misinterpreting fields.  The environment fingerprint (python/numpy version,
CPU count, platform, git SHA) is recorded for provenance but never
compared: a baseline from one machine must stay comparable on another.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.exceptions import BenchFormatError
from repro.obs.serialize import stable_dict

#: Current scorecard schema version; bump on incompatible field changes.
BENCH_SCHEMA_VERSION = 1

#: Benchmark areas with a conventional ``BENCH_<area>.json`` file name.
BENCH_AREAS = ("engine", "serve", "replay")

_NUMBER_TYPES = (int, float)


def _git(args: list, cwd: Path) -> Optional[str]:
    """Run a git command; stdout on success, None on any failure."""
    try:
        out = subprocess.run(
            ["git", *args], capture_output=True, text=True, timeout=10,
            cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_sha(repo_root: Optional[Union[str, Path]] = None) -> Optional[str]:
    """The HEAD SHA of the checkout this code came from, or None.

    With ``repo_root`` the SHA is resolved there, no questions asked.
    Without it, the SHA is only reported when this very file is *tracked*
    by the repository surrounding it (a dev checkout): a pip-installed
    copy whose site-packages happens to live under some unrelated git
    checkout must record None, not that repository's SHA.
    """
    if repo_root is not None:
        sha = _git(["rev-parse", "HEAD"], Path(repo_root))
        return sha or None
    here = Path(__file__).resolve()
    if _git(["ls-files", "--error-unmatch", here.name],
            here.parent) is None:
        return None
    sha = _git(["rev-parse", "HEAD"], here.parent)
    return sha or None


def environment_fingerprint() -> Dict[str, object]:
    """Where a record was produced: interpreter, numpy, CPUs, git SHA."""
    return stable_dict({
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "git_sha": git_sha(),
    })


def bench_filename(area: str) -> str:
    """The conventional scorecard file name for an area."""
    return f"BENCH_{area}.json"


@dataclass
class BenchRecord:
    """One benchmark run in the versioned scorecard schema."""

    name: str
    area: str
    config: Dict[str, object] = field(default_factory=dict)
    counters: Dict[str, Union[int, float]] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    environment: Dict[str, object] = field(default_factory=dict)
    schema_version: int = BENCH_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not self.environment:
            self.environment = environment_fingerprint()

    def as_dict(self) -> dict:
        return stable_dict({
            "schema_version": self.schema_version,
            "name": self.name,
            "area": self.area,
            "config": self.config,
            "counters": self.counters,
            "timings": self.timings,
            "environment": self.environment,
        })

    def to_json(self) -> str:
        """Sorted-key JSON (deterministic bytes for equal records)."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: dict, source: str = "<dict>") -> "BenchRecord":
        """Validate and build a record from decoded JSON.

        Raises :class:`BenchFormatError` on an unknown schema version,
        missing fields, or wrong field types — never a bare
        ``KeyError``/``TypeError``.
        """
        if not isinstance(data, dict):
            raise BenchFormatError(
                f"{source}: bench record must be a JSON object, "
                f"got {type(data).__name__}"
            )
        version = data.get("schema_version")
        if version != BENCH_SCHEMA_VERSION:
            raise BenchFormatError(
                f"{source}: unsupported bench schema version {version!r} "
                f"(this build reads version {BENCH_SCHEMA_VERSION})"
            )
        for key, kind in (("name", str), ("area", str), ("config", dict),
                          ("counters", dict), ("timings", dict),
                          ("environment", dict)):
            if key not in data:
                raise BenchFormatError(f"{source}: missing field {key!r}")
            if not isinstance(data[key], kind):
                raise BenchFormatError(
                    f"{source}: field {key!r} must be "
                    f"{kind.__name__}, got {type(data[key]).__name__}"
                )
        for section in ("counters", "timings"):
            for metric, value in data[section].items():
                if isinstance(value, bool) or \
                        not isinstance(value, _NUMBER_TYPES):
                    raise BenchFormatError(
                        f"{source}: {section}[{metric!r}] must be a "
                        f"number, got {type(value).__name__}"
                    )
        return cls(
            name=data["name"],
            area=data["area"],
            config=dict(data["config"]),
            counters=dict(data["counters"]),
            timings={k: float(v) for k, v in data["timings"].items()},
            environment=dict(data["environment"]),
            schema_version=version,
        )

    @classmethod
    def from_json(cls, text: str, source: str = "<json>") -> "BenchRecord":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise BenchFormatError(
                f"{source}: not valid JSON ({error})"
            ) from error
        return cls.from_dict(data, source=source)


def write_bench(record: BenchRecord, path: Union[str, Path]) -> Path:
    """Write a record to ``path`` (creating parent directories)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(record.to_json(), encoding="utf-8")
    return path


def read_bench(path: Union[str, Path]) -> BenchRecord:
    """Read and validate a scorecard file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise BenchFormatError(
            f"cannot read bench record {path}: {error}"
        ) from error
    return BenchRecord.from_json(text, source=str(path))
