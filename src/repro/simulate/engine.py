"""Discrete-event simulation core.

A small, classical event-calendar engine: schedule callbacks at absolute or
relative times, run until the calendar drains (or a horizon).  Events at
equal times fire in scheduling order (a monotone sequence number breaks
ties), which keeps every simulation in this package deterministic.

It is the one event loop of every simulator here: the task-pool runtime
(:mod:`repro.taskpool`), the FCFS/EASY cluster job scheduler
(:mod:`repro.workloads.scheduler`), the preemptive multi-CPU simulator
(:mod:`repro.simulate.preempt`) and the online list and moldable
schedulers (:mod:`repro.sched.online`).  The DAG executor
(:mod:`repro.simulate.executor`) replays list schedules directly and only
needs the time bookkeeping.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.obs import core as _obs

__all__ = ["SimEngine", "EventHandle"]


@dataclass(slots=True)
class _Event:
    time: float
    callback: Callable[[], None]
    cancelled: bool = False
    fired: bool = False


class EventHandle:
    """Handle returned by :meth:`SimEngine.at`; allows cancellation."""

    __slots__ = ("_event", "_engine")

    def __init__(self, event: _Event, engine: "SimEngine"):
        self._event = event
        self._engine = engine

    def cancel(self) -> None:
        event = self._event
        if not event.cancelled and not event.fired:
            event.cancelled = True
            self._engine._pending -= 1

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled


class SimEngine:
    """An event calendar with a monotone clock."""

    def __init__(self):
        self._now = 0.0
        self._seq = 0
        # (time, seq, event): tuples compare in C, and the unique seq
        # keeps the event itself out of every comparison
        self._queue: list[tuple[float, int, _Event]] = []
        self._processed = 0
        self._pending = 0
        self._peak_pending = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events.

        Kept as a live counter (updated on schedule/cancel/fire) so the
        read is O(1) rather than a scan of the whole calendar.
        """
        return self._pending

    @property
    def peak_pending(self) -> int:
        """Largest :attr:`pending` value ever reached (peak queue depth)."""
        return self._peak_pending

    @property
    def processed(self) -> int:
        """Number of events fired so far."""
        return self._processed

    def at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule a callback at absolute time ``time`` (>= now)."""
        if not math.isfinite(time):
            raise SimulationError(f"non-finite event time {time}")
        if time < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule at {time}: the clock is already at {self._now}")
        event = _Event(max(time, self._now), callback)
        heapq.heappush(self._queue, (event.time, self._seq, event))
        self._seq += 1
        self._pending += 1
        if self._pending > self._peak_pending:
            self._peak_pending = self._pending
        return EventHandle(event, self)

    def after(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule a callback ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at(self._now + delay, callback)

    def step(self) -> bool:
        """Fire the next event; False when the calendar is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)[2]
            if event.cancelled:
                continue  # already uncounted at cancel time
            event.fired = True
            self._pending -= 1
            self._now = event.time
            self._processed += 1
            event.callback()
            return True
        return False

    def run(self, until: float | None = None, *, max_events: int | None = None) -> float:
        """Drain the calendar (optionally bounded by a horizon / event budget).

        Returns the final clock value.  With ``until``, events strictly later
        than the horizon stay queued and the clock advances to ``until`` at
        most.
        """
        fired = 0
        while self._queue:
            nxt = self._queue[0][2]
            if nxt.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and nxt.time > until:
                break
            if max_events is not None and fired >= max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events at t={self._now:.6g} "
                    "(runaway model?)")
            self.step()
            fired += 1
        if until is not None:
            self._now = max(self._now, until)
        if _obs.is_enabled():
            _obs.add("sim.events_fired", fired)
            _obs.gauge("sim.peak_queue_depth", self._peak_pending)
        return self._now
