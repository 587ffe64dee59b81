"""Per-run context shared by the workloads: timed jobs, cycles, layers."""

from __future__ import annotations

import resource
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from hostspeed import REF_S, Sampler, probe_median
from ledger import Ledger, Skipped, Tracer, median, percentile, self_times
from pipeline import SPAN_METRICS


#: work counts reported by the traced run of the job workloads
COUNT_METRICS = (
    ("io.bytes_in", "B"), ("io.bytes_out", "B"), ("core.tasks_kept", "count"),
    ("layout.primitives", "count"), ("layout.stroked_rects", "count"),
    ("layout.lod_rects", "count"), ("layout.labels", "count"),
    ("raster.pixels", "count"), ("png.bytes", "B"), ("svg.bytes", "B"),
    ("html.bytes", "B"),
)


@dataclass
class Ctx:
    """Everything one run of one workload reads and records."""

    root: Path          # checkout root (holds src/)
    workdir: Path       # scratch space for generated inputs and outputs
    workload: str
    seed: int
    seconds: float
    trace: bool
    tracer: Tracer = field(init=False)
    ledger: Ledger = field(default_factory=Ledger)
    #: work counts of the first full cycle (per-layer count metrics)
    counts: Counter = field(default_factory=Counter)
    #: wall time of every completed job, and per job label
    job_walls: list[float] = field(default_factory=list)
    walls_by_label: dict[str, list[float]] = field(default_factory=dict)
    #: wall time of every set-up (the first one and the repeats)
    setups: list[float] = field(default_factory=list)
    #: ``(start, end)`` of every timed job and set-up, for the host speed
    intervals: list[tuple[float, float]] = field(default_factory=list)
    #: the host-speed sampler running alongside, if any
    sampler: Sampler | None = None
    cycles: int = 0

    def __post_init__(self) -> None:
        self.tracer = Tracer(self.trace)

    @property
    def counting(self) -> bool:
        """Counts are taken during the first cycle only (deterministic)."""
        return self.cycles == 0

    def job(self, label: str, work, check) -> float:
        """Time ``work()``, then count it as one operation checked by
        ``check(result) -> problems``; returns the job's wall time."""
        start = perf_counter()
        try:
            with self.tracer.span("job"):
                result = work()
        except Exception as exc:  # a failing job is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            self.ledger.op(label, [f"raised {type(exc).__name__}: {exc}"])
            return perf_counter() - start
        end = perf_counter()
        wall = end - start
        self.intervals.append((start, end))
        self.job_walls.append(wall)
        self.walls_by_label.setdefault(label, []).append(wall)
        try:
            problems = check(result)
        except Exception as exc:  # a broken check is a failed operation
            traceback.print_exc(file=sys.stderr)
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.ledger.op(label, problems)
        return wall

    def timed_setup(self, fn):
        """Run one set-up, record its wall time in :attr:`setups`, and
        return its result."""
        start = perf_counter()
        result = fn()
        end = perf_counter()
        self.setups.append(end - start)
        self.intervals.append((start, end))
        return result

    def cycles_until(self, jobs, resetup=None) -> None:
        """Run the fixed ``jobs`` cycle (``(label, work, check)`` triples)
        whole, as often as :func:`another_cycle` allows; at least once.

        Only job wall time counts against the run length, so checks and
        reference renders do not shorten the measurement.  ``resetup``,
        when given, repeats the workload's set-up after every job, outside
        the job timing, and appends its wall time to :attr:`setups`: set-up
        samples spread over the whole run see the host at the same speeds
        the jobs do, instead of only at its start.
        """
        spent = 0.0
        while True:
            for label, work, check in jobs:
                spent += self.job(label, work, check)
                if resetup is not None:
                    resetup()
            self.cycles += 1
            if not another_cycle(spent, self.cycles, self.seconds):
                return

    # ------------------------------------------------------------ metrics
    def put_job_metrics(self) -> None:
        """``setup_s`` and ``jobs_per_s`` (:meth:`put_host_adjusted`),
        then ``job_p50_s``, ``job_p90_s`` and per-label medians (wall
        clock)."""
        ledger = self.ledger
        walls = self.job_walls
        self.put_host_adjusted(len(walls) / sum(walls) if walls
                               else Skipped("no job completed"))
        ledger.put("job_p50_s", median(walls), "s")
        ledger.put("job_p90_s", percentile(walls, 90.0), "s")
        ledger.put("jobs_completed", len(walls), "count")
        ledger.put("cycles", self.cycles, "count")
        for label, values in self.walls_by_label.items():
            ledger.put(f"job_s.{label}", median(values), "s")

    def put_host_adjusted(self, jobs_per_s) -> None:
        """``setup_s`` (median set-up) and ``jobs_per_s`` in reference
        seconds, their wall-clock readings as ``*.wall``, and the host
        probe they were scaled by (see :mod:`hostspeed`)."""
        ledger = self.ledger
        setup = median(self.setups)
        ledger.put("setup_s.wall", setup, "s")
        ledger.put("setup.samples", len(self.setups), "count")
        ledger.put("jobs_per_s.wall", jobs_per_s, "1/s")
        probe = None if self.sampler is None else \
            probe_median(self.sampler.samples(), self.intervals)
        if probe is None:
            probe = Skipped("too few host-speed probes in the timed "
                            "intervals")
            setup = jobs_per_s = probe
        ledger.put("host.probe_s", probe, "s")
        if not isinstance(setup, Skipped):
            setup *= REF_S / probe
        if not isinstance(jobs_per_s, Skipped):
            jobs_per_s *= probe / REF_S
        ledger.put("setup_s", setup, "s")
        ledger.put("jobs_per_s", jobs_per_s, "1/s")

    def put_layer_metrics(self) -> None:
        """Traced runs: median self time per layer span, the job glue, the
        share of job wall time the layer spans account for, and the work
        counts of the first cycle."""
        spans = self.tracer.spans
        by_name: dict[str, list[float]] = {}
        jobs = []
        for s, t in zip(spans, self_times(spans)):
            by_name.setdefault(s.name, []).append(t)
            if s.name == "job":
                jobs.append(1.0 - t / max(s.end - s.start, 1e-12))
        for span, metric in SPAN_METRICS.items():
            if span in by_name:
                self.ledger.put(metric, median(by_name[span]), "s")
        if jobs:
            self.ledger.put("job.glue_s", median(by_name["job"]), "s")
            self.ledger.put("trace.layer_coverage", min(jobs), "ratio")
        for name, unit in COUNT_METRICS:
            if name in self.counts:
                self.ledger.put(name, self.counts[name], unit)
        tasks = self.counts.get("layout.task_rects", 0)
        if tasks:
            self.ledger.put("layout.label_yield",
                            self.counts["layout.labels"] / tasks, "ratio")
        elif "layout.primitives" in self.counts:
            self.ledger.skip("layout.label_yield", "ratio",
                             "no per-task rects laid out (all LOD cells)")

    def put_peak_rss(self) -> None:
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.ledger.put("peak_rss_mb", kib / 1024.0, "MB")


def another_cycle(spent: float, cycles: int, seconds: float) -> bool:
    """Whether one more cycle ends closer to ``seconds`` than stopping now.

    Runs measure whole cycles, so every run does the same mix of work; the
    run length lands within half a cycle of ``seconds``.
    """
    return spent + spent / cycles / 2 < seconds

