"""Space-shared cluster job scheduler: FCFS and EASY backfilling.

The substrate behind Figure 13: the LLNL Thunder trace records, per job,
when the site's scheduler (SLURM at LLNL) started it and on how many nodes.
To regenerate such traces synthetically we simulate the scheduler itself:
jobs arrive at their submit times, wait in a queue, and receive concrete
node sets when capacity allows.

Two classic policies:

* ``FCFS`` — strict arrival order; the queue head blocks everyone behind it;
* ``EASY`` — aggressive backfilling: the queue head gets a reservation at
  the earliest time enough nodes will be free, and later jobs may jump
  ahead if (by their requested walltime) they cannot delay that
  reservation.

Node assignment is lowest-index-first among free nodes, optionally skipping
a reserved range (Thunder keeps nodes 0-19 for login/debug use, visible in
Figure 13 as the empty band at the bottom).
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.obs import core as _obs
from repro.simulate.engine import SimEngine
from repro.workloads.jobs import Job

__all__ = ["SchedPolicy", "ScheduledJob", "ClusterJobScheduler", "simulate_jobs"]


class SchedPolicy(enum.Enum):
    FCFS = "fcfs"
    EASY = "easy"


@dataclass(frozen=True, slots=True)
class ScheduledJob:
    """A job with its simulated placement."""

    job: Job
    start_time: float
    nodes: tuple[int, ...]

    @property
    def end_time(self) -> float:
        return self.start_time + self.job.run_time

    @property
    def wait_time(self) -> float:
        return self.start_time - self.job.submit_time


class ClusterJobScheduler:
    """Event-driven space-shared scheduler simulation."""

    def __init__(
        self,
        n_nodes: int,
        *,
        policy: SchedPolicy | str = SchedPolicy.EASY,
        reserved_nodes: Sequence[int] = (),
    ):
        if isinstance(policy, str):
            policy = SchedPolicy(policy.lower())
        if n_nodes < 1:
            raise WorkloadError(f"need >= 1 node, got {n_nodes}")
        self.n_nodes = n_nodes
        self.policy = policy
        self.reserved = frozenset(int(r) for r in reserved_nodes)
        bad = [r for r in self.reserved if not 0 <= r < n_nodes]
        if bad:
            raise WorkloadError(f"reserved nodes out of range: {bad[:5]}")
        self.usable = sorted(set(range(n_nodes)) - self.reserved)

    # ------------------------------------------------------------ internals
    def _pick_nodes(self, free: set[int], count: int) -> tuple[int, ...]:
        chosen = sorted(free)[:count]
        return tuple(chosen)

    def run(self, jobs: Iterable[Job]) -> list[ScheduledJob]:
        """Simulate the full workload; returns placements in start order.

        Arrivals and completions are :class:`SimEngine` events; the first
        of them at an instant schedules one policy decision at that
        instant, which runs after every other arrival and completion
        already due then.  A zero-runtime job started by the decision
        completes at the same instant and triggers a second decision.
        """
        pending = sorted(jobs, key=lambda j: (j.submit_time, j.id))
        capacity = len(self.usable)
        for j in pending:
            if j.nodes > capacity:
                raise WorkloadError(
                    f"job {j.id} wants {j.nodes} nodes but only {capacity} are usable")

        engine = SimEngine()
        free: set[int] = set(self.usable)
        queue: list[Job] = []
        # id(record) -> (end, job id, record): EASY scans it in end order
        running: dict[int, tuple[float, int, ScheduledJob]] = {}
        out: list[ScheduledJob] = []
        decision_due = False

        def wake() -> None:
            nonlocal decision_due
            if not decision_due:
                decision_due = True
                engine.at(engine.now, decide)

        def arrive(job: Job) -> None:
            queue.append(job)
            wake()

        def complete(record: ScheduledJob) -> None:
            del running[id(record)]
            free.update(record.nodes)
            wake()

        def start(job: Job, t: float) -> None:
            nodes = self._pick_nodes(free, job.nodes)
            free.difference_update(nodes)
            record = ScheduledJob(job, t, nodes)
            running[id(record)] = (record.end_time, job.id, record)
            out.append(record)
            engine.at(record.end_time, lambda: complete(record))

        def decide() -> None:
            """Start whatever the policy allows now."""
            nonlocal decision_due
            decision_due = False
            t = engine.now
            while queue and queue[0].nodes <= len(free):
                start(queue.pop(0), t)
            if self.policy is SchedPolicy.EASY and queue:
                head = queue[0]
                # Head reservation: the earliest future release instant at
                # which enough nodes accumulate, and the slack ("extra")
                # nodes free at that instant once the head starts.
                future_free = len(free)
                shadow_time = t
                extra = 0
                for end, _, record in sorted(running.values()):
                    future_free += len(record.nodes)
                    if future_free >= head.nodes:
                        shadow_time = end
                        extra = future_free - head.nodes
                        break
                # EASY rule: a later job may backfill iff it fits in the free
                # nodes now and either (a) its walltime ends before the
                # head's reservation, or (b) it only uses slack nodes that
                # the reservation does not need.
                k = 1
                while k < len(queue):
                    cand = queue[k]
                    if cand.nodes > len(free):
                        k += 1
                        continue
                    ends_before = t + cand.time_limit <= shadow_time
                    uses_slack = cand.nodes <= extra
                    if ends_before or uses_slack:
                        if not ends_before:
                            extra -= cand.nodes
                        start(queue.pop(k), t)
                    else:
                        k += 1

        for job in pending:
            engine.at(job.submit_time, lambda job=job: arrive(job))
        engine.run()
        return out


@_obs.span("workload.simulate_jobs")
def simulate_jobs(
    jobs: Iterable[Job],
    n_nodes: int,
    *,
    policy: SchedPolicy | str = SchedPolicy.EASY,
    reserved_nodes: Sequence[int] = (),
) -> list[ScheduledJob]:
    """One-call wrapper around :class:`ClusterJobScheduler`."""
    return ClusterJobScheduler(n_nodes, policy=policy,
                               reserved_nodes=reserved_nodes).run(jobs)
