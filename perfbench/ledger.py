"""Measurement core of the pipeline ledger: spans, percentiles, metrics.

Everything here is program-independent bookkeeping; the workload modules
call into the program's public functions and record what they saw here.

* :class:`Tracer` keeps spans in memory (single-threaded: only the thread
  that drives the pipeline opens spans) and derives per-layer self times.
* :func:`percentile` applies the reporting rule: a percentile above the
  median is only a number when at least ten samples lie beyond it.
* :class:`Ledger` collects metrics (a value or a ``skipped: <reason>``),
  operations attempted and failed, and the SHA-256 of every output.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import re
import subprocess
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

#: metric names: a letter or digit, then letters, digits, ``_ . -``; <= 64
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: units: <= 16 of letters, digits and ``_ / % . -``
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: a tail percentile is reported only with this many samples beyond it
MIN_BEYOND = 10


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not isinstance(name, str) or not _NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def check_unit(unit: str) -> str:
    if not isinstance(unit, str) or not _UNIT.fullmatch(unit):
        raise ValueError(f"invalid metric unit {unit!r}")
    return unit


@dataclass(frozen=True)
class Skipped:
    """A metric the run could not produce, with the reason why."""

    reason: str

    def __str__(self) -> str:
        return f"skipped: {self.reason}"


def _rank(n: int, p: float) -> int:
    """1-based nearest-rank index of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def percentile(values, p: float) -> float | Skipped:
    """Nearest-rank percentile ``p`` of ``values``.

    The median needs one sample; any higher percentile needs at least
    :data:`MIN_BEYOND` samples above its rank, otherwise the result is
    :class:`Skipped` — a tail read off a handful of samples is noise.
    """
    data = sorted(values)
    n = len(data)
    if n == 0:
        return Skipped("no samples")
    rank = _rank(n, p)
    if p > 50.0 and n - rank < MIN_BEYOND:
        return Skipped(f"p{p:g} of {n} samples has {n - rank} beyond it, "
                       f"needs {MIN_BEYOND}")
    return data[rank - 1]


def median(values) -> float | Skipped:
    return percentile(values, 50.0)


# ---------------------------------------------------------------- tracing

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """In-memory span recorder; a no-op when ``enabled`` is false."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, 0.0, 0.0, parent)
        self.spans.append(record)
        self._stack.append(index)
        record.start = perf_counter()
        try:
            yield
        finally:
            record.end = perf_counter()
            self._stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(max(s.end - s.start - covered, 0.0))
    return out


# ---------------------------------------------------------------- ledger

@dataclass
class Metric:
    unit: str
    value: float | Skipped

    def to_json(self) -> dict:
        if isinstance(self.value, Skipped):
            return {"skipped": self.value.reason, "unit": self.unit}
        return {"value": self.value, "unit": self.unit}


@dataclass
class Ledger:
    """What one benchmark run measured and checked."""

    metrics: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: failed operations whose output was wrong or missing (not refusals)
    wrong: int = 0
    failures: list[str] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)

    def put(self, name: str, value, unit: str) -> None:
        """Record a metric; ``value`` is a number or a :class:`Skipped`."""
        check_name(name)
        check_unit(unit)
        if not isinstance(value, Skipped):
            value = float(value)
            if not math.isfinite(value):
                value = Skipped(f"not finite ({value})")
        self.metrics[name] = Metric(unit, value)

    def skip(self, name: str, unit: str, reason: str) -> None:
        self.put(name, Skipped(reason), unit)

    def op(self, label: str, problems: list[str], *,
           wrong: bool = True) -> None:
        """Count one operation; any problem makes it a failure, and unless
        ``wrong`` is false (a refusal under load) also a correctness one."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += int(wrong)
            self.failures.append(f"{label}: " + "; ".join(problems))

    def output(self, label: str, data: bytes) -> None:
        """Record the SHA-256 of an output (first occurrence per label)."""
        self.output_sha(label, hashlib.sha256(data).hexdigest())

    def output_sha(self, label: str, digest: str) -> None:
        """Record an output by its SHA-256 hex digest."""
        self.outputs.setdefault(label, digest)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.wrong == 0


# ---------------------------------------------------------------- environment

def _cpu_model() -> str | Skipped:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError as exc:
        return Skipped(f"/proc/cpuinfo unreadable: {exc}")
    return Skipped("no 'model name' in /proc/cpuinfo")


def _git_sha(root: Path) -> str | Skipped:
    if not (root / ".git").exists():
        return Skipped("not a git checkout")
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return Skipped(f"git unavailable: {exc}")
    return out.stdout.strip() or Skipped("git rev-parse printed nothing")


def code_hash(bench_dir: Path) -> str:
    """SHA-256 over the benchmark's own source files (path + content)."""
    digest = hashlib.sha256()
    for path in sorted(bench_dir.rglob("*.py")):
        digest.update(str(path.relative_to(bench_dir)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, bench_dir: Path, *, workload: str,
                seed: int) -> dict:
    """Where and with what a result was taken."""
    import numpy

    def plain(v):
        return str(v) if isinstance(v, Skipped) else v

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": plain(_cpu_model()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": plain(_git_sha(root)),
        "workload": workload,
        "seed": seed,
        "bench_sha256": code_hash(bench_dir),
    }


def same_cores(a: dict, b: dict) -> bool:
    """Whether two environment stamps were taken on equal core counts."""
    return (a.get("nproc") == b.get("nproc")
            and len(a.get("affinity") or ()) == len(b.get("affinity") or ()))
