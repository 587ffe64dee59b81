"""Host-speed sampler: a fixed probe timed alongside the run.

The shared host this benchmark runs on changes speed by up to 1.6x for
minutes at a time, and every part of the pipeline slows with it, so wall
times taken a few minutes apart differ by more than any bound worth
gating on.  While a run measures, a child process times a small fixed
probe every :data:`GAP_S` seconds on the other core.  The probe's
median time over the timed intervals (jobs and set-ups) tracks the
host's speed during those intervals, and a wall time scaled by
``REF_S / probe`` does not drift with the host: it reads in *reference
seconds*, what the interval would have taken on a host running the probe
in :data:`REF_S`.

The probe mixes the kinds of work the pipeline does: C compression
(zlib, like the PNG codec), building and sorting Python objects (like
parse, layout and the schedulers) and whole-array numpy passes (like the
rasterizer).  Its inputs are fixed and it runs none of the program, so a
change to the program moves it only through contention for the shared
core caches, and a program that starts using both cores slows it.

Run as a script, this file is the sampler process::

    python3 perfbench/hostspeed.py LOG_FILE PARENT_PID

It appends ``<perf_counter start> <seconds>`` lines to ``LOG_FILE``
(``perf_counter`` is the system-wide monotonic clock on Linux, so the
parent can compare it with its own) and exits once its parent is gone.
"""

from __future__ import annotations

import bisect
import os
import random
import subprocess
import sys
import time
import zlib
from pathlib import Path
from time import perf_counter

import numpy as np

#: probe time (seconds) of the reference host; a fixed round figure near
#: what the probe reads beside a running job on a 2-vCPU Xeon VM (1.8 to
#: 2.8 ms as the host's speed changes), so it only sets the scale
REF_S = 0.002
#: pause between two probes; the sampler keeps a core ~3 % busy
GAP_S = 0.05
#: a run with fewer probes inside its timed intervals gets no host speed
MIN_SAMPLES = 20
#: how long the sampler may take to log its first probe
START_TIMEOUT_S = 30.0

_rng = random.Random(20100913)
_BLOB = bytes(_rng.getrandbits(8) for _ in range(1 << 14)) * 2
_KEYS = [_rng.random() for _ in range(2_000)]
_ARRAY = np.random.default_rng(20100913).random(40_000)


class _Item:
    __slots__ = ("key", "index")

    def __init__(self, key: float, index: int):
        self.key = key
        self.index = index


def work() -> int:
    """The probe: about 1.5 ms on an idle 2-vCPU Xeon VM."""
    packed = zlib.compress(_BLOB, 6)
    items = [_Item(k, i) for i, k in enumerate(_KEYS)]
    items.sort(key=lambda item: item.key)
    total = float(np.sort(_ARRAY)[::97].sum() + (_ARRAY * 2.0 + 1.0).sum())
    return len(packed) + items[0].index + int(total)


def probe_median(samples, intervals):
    """Median duration of the ``(start, seconds)`` samples that start
    inside one of the ``(start, end)`` intervals, or ``None`` when fewer
    than :data:`MIN_SAMPLES` do."""
    samples = sorted(samples)
    starts = [s for s, _ in samples]
    inside = sorted(
        seconds
        for lo, hi in intervals
        for _, seconds in samples[bisect.bisect_left(starts, lo):
                                  bisect.bisect_left(starts, hi)])
    if len(inside) < MIN_SAMPLES:
        return None
    return inside[(len(inside) - 1) // 2]


class Sampler:
    """The sampler process, from ``__enter__`` until ``__exit__``."""

    def __init__(self, log: Path):
        self.log = log
        self.proc: subprocess.Popen | None = None

    def __enter__(self) -> "Sampler":
        self.log.write_text("")
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(self.log), str(os.getpid())],
            stdin=subprocess.DEVNULL)
        deadline = perf_counter() + START_TIMEOUT_S
        while not self.samples():
            if self.proc.poll() is not None or perf_counter() > deadline:
                self.stop()
                raise RuntimeError("host-speed sampler did not start")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()

    def samples(self) -> list[tuple[float, float]]:
        """Every complete ``(start, seconds)`` line logged so far."""
        out = []
        for line in self.log.read_text().splitlines(keepends=True):
            if line.endswith("\n"):
                start, seconds = line.split()
                out.append((float(start), float(seconds)))
        return out


def _sample(log: str, parent: int) -> None:
    with open(log, "a", encoding="ascii") as fh:
        while os.getppid() == parent:
            start = perf_counter()
            work()
            fh.write(f"{start!r} {perf_counter() - start!r}\n")
            fh.flush()
            time.sleep(GAP_S)


if __name__ == "__main__":
    _sample(sys.argv[1], int(sys.argv[2]))
