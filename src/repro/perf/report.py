"""Machine-readable benchmark reports (``BENCH_*.json``).

A benchmark run produces a :class:`BenchReport`: provenance (schema
version, git SHA, python version, peak RSS) plus one :class:`BenchRecord`
per benchmark — its best wall time, the amount of work done, and the
derived throughput.  Reports serialise to a stable JSON schema so CI can
diff them against a committed baseline (see :mod:`repro.perf.baseline`).

>>> record = BenchRecord(name="engine.dispatch", wall_seconds=0.5,
...                      work=1_000_000, unit="events", repeats=3)
>>> record.throughput
2000000.0
>>> report = BenchReport(kind="kernel", records=(record,))
>>> BenchReport.from_json(report.to_json()).records[0].name
'engine.dispatch'
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: Bump when the JSON layout changes incompatibly; readers reject
#: reports with a different major schema.
SCHEMA_VERSION = 1


def git_sha(short: bool = False) -> str:
    """The current git commit hash, or ``"unknown"`` outside a checkout."""
    command = ["git", "rev-parse"] + (["--short"] if short else []) + ["HEAD"]
    try:
        out = subprocess.run(
            command, capture_output=True, text=True, timeout=10, check=False
        )
    except OSError:
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB.

    On Linux this is ``VmHWM``, the high-water mark of the process's own
    address space.  ``ru_maxrss`` is not: Linux carries it across fork
    and exec, so a freshly spawned child would report its parent's peak
    whenever that is the larger.  Elsewhere ``ru_maxrss`` is the best
    there is.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark: best wall time over ``repeats`` runs and the work done.

    ``throughput`` is derived (``work / wall_seconds``) so records can
    never carry an inconsistent rate.

    >>> BenchRecord("x", wall_seconds=2.0, work=10, unit="ops", repeats=1).throughput
    5.0
    """

    name: str
    wall_seconds: float
    work: int
    unit: str
    repeats: int
    #: Peak RSS of the run in KiB, when the benchmark measures it (the
    #: ``scale`` report runs each point in a fresh child process for
    #: exactly this).  ``None`` means "not measured" and the key is omitted from
    #: the JSON — an additive, schema-compatible extension.
    rss_kb: Optional[int] = None

    @property
    def throughput(self) -> float:
        """Work units per second (0 when the timer resolution was hit)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.work / self.wall_seconds

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "work": self.work,
            "unit": self.unit,
            "throughput": self.throughput,
            "repeats": self.repeats,
        }
        if self.rss_kb is not None:
            data["rss_kb"] = self.rss_kb
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchRecord":
        return cls(
            name=str(data["name"]),
            wall_seconds=float(data["wall_seconds"]),
            work=int(data["work"]),
            unit=str(data["unit"]),
            repeats=int(data["repeats"]),
            rss_kb=(
                int(data["rss_kb"]) if data.get("rss_kb") is not None else None
            ),
        )


@dataclass(frozen=True)
class BenchReport:
    """A full benchmark run: provenance plus per-benchmark records."""

    kind: str
    records: Tuple[BenchRecord, ...] = ()
    schema_version: int = SCHEMA_VERSION
    git_sha: str = field(default_factory=git_sha)
    python_version: str = field(default_factory=platform.python_version)
    peak_rss_kb: int = field(default_factory=peak_rss_kb)

    def record(self, name: str) -> Optional[BenchRecord]:
        """The record called ``name``, or ``None``."""
        for entry in self.records:
            if entry.name == name:
                return entry
        return None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "git_sha": self.git_sha,
            "python_version": self.python_version,
            "peak_rss_kb": self.peak_rss_kb,
            "records": [entry.as_dict() for entry in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=False) + "\n"

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchReport":
        version = int(data.get("schema_version", -1))
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported bench schema version {version} "
                f"(this reader understands {SCHEMA_VERSION})"
            )
        return cls(
            kind=str(data["kind"]),
            records=tuple(
                BenchRecord.from_dict(entry) for entry in data["records"]
            ),
            schema_version=version,
            git_sha=str(data.get("git_sha", "unknown")),
            python_version=str(data.get("python_version", "unknown")),
            peak_rss_kb=int(data.get("peak_rss_kb", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "BenchReport":
        return cls.from_dict(json.loads(text))

    def write(self, path: str) -> None:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def read(cls, path: str) -> "BenchReport":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def report_filename(kind: str) -> str:
    """Canonical file name for a report kind (``BENCH_kernel.json``)."""
    return f"BENCH_{kind}.json"


_SUMMARY_ROW = "{name:<28} {wall:>10} {throughput:>16} {unit}"


def render_report(report: BenchReport) -> str:
    """Human-readable table of one report (the JSON stays the API)."""
    lines: List[str] = [
        f"benchmark kind: {report.kind}  "
        f"(git {report.git_sha[:12]}, python {report.python_version}, "
        f"peak RSS {report.peak_rss_kb // 1024} MiB)",
        _SUMMARY_ROW.format(
            name="name", wall="wall [s]", throughput="throughput", unit=""
        ),
    ]
    for entry in report.records:
        row = _SUMMARY_ROW.format(
            name=entry.name,
            wall=f"{entry.wall_seconds:.4f}",
            throughput=f"{entry.throughput:,.0f}",
            unit=entry.unit + "/s",
        )
        if entry.rss_kb is not None:
            row += f"  rss {entry.rss_kb // 1024} MiB"
        lines.append(row)
    return "\n".join(lines)
