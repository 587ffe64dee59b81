"""Tests for the cluster job scheduler (FCFS, EASY)."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.workloads.jobs import Job
from repro.workloads.scheduler import (
    ClusterJobScheduler,
    SchedPolicy,
    simulate_jobs,
)


def J(jid, submit, nodes, run, limit=None):
    return Job(jid, submit, nodes, run, requested_time=limit or run)


class TestBasics:
    def test_single_job_starts_immediately(self):
        (r,) = simulate_jobs([J(1, 0, 4, 100)], 8)
        assert r.start_time == 0.0
        assert r.end_time == 100.0
        assert len(r.nodes) == 4

    def test_lowest_index_first(self):
        (r,) = simulate_jobs([J(1, 0, 3, 10)], 8)
        assert r.nodes == (0, 1, 2)

    def test_reserved_nodes_skipped(self):
        (r,) = simulate_jobs([J(1, 0, 3, 10)], 8, reserved_nodes=range(2))
        assert r.nodes == (2, 3, 4)

    def test_parallel_jobs_share_cluster(self):
        results = simulate_jobs([J(1, 0, 4, 100), J(2, 0, 4, 100)], 8)
        assert all(r.start_time == 0.0 for r in results)
        assert set(results[0].nodes).isdisjoint(results[1].nodes)

    def test_job_waits_for_capacity(self):
        results = simulate_jobs([J(1, 0, 6, 100), J(2, 0, 6, 100)], 8)
        by_id = {r.job.id: r for r in results}
        assert by_id[2].start_time == pytest.approx(100.0)
        assert by_id[2].wait_time == pytest.approx(100.0)

    def test_submit_time_respected(self):
        (a, b) = simulate_jobs([J(1, 0, 2, 10), J(2, 50, 2, 10)], 8)
        assert b.start_time == pytest.approx(50.0)

    def test_too_wide_job_rejected(self):
        with pytest.raises(WorkloadError, match="usable"):
            simulate_jobs([J(1, 0, 9, 10)], 8, reserved_nodes=[0])

    def test_bad_reserved_rejected(self):
        with pytest.raises(WorkloadError):
            ClusterJobScheduler(4, reserved_nodes=[99])

    def test_no_overlap_ever(self):
        import numpy as np

        rng = np.random.default_rng(5)
        jobs = [J(i, float(rng.integers(0, 500)), int(rng.integers(1, 20)),
                  float(rng.integers(10, 300))) for i in range(60)]
        results = simulate_jobs(jobs, 32, policy="easy")
        events = []
        for r in results:
            for n in r.nodes:
                events.append((n, r.start_time, r.end_time))
        by_node: dict[int, list[tuple[float, float]]] = {}
        for n, s, e in events:
            by_node.setdefault(n, []).append((s, e))
        for intervals in by_node.values():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert s2 >= e1 - 1e-9

    def test_all_jobs_eventually_run(self):
        jobs = [J(i, 0, 4, 50) for i in range(10)]
        results = simulate_jobs(jobs, 8)
        assert len(results) == 10


class TestPolicies:
    def test_fcfs_blocks_behind_wide_head(self):
        """FCFS: a wide queued head blocks later narrow jobs."""
        jobs = [J(1, 0, 7, 100),           # running, 1 node left free
                J(2, 1, 8, 100, 100),      # head, must wait for all 8
                J(3, 2, 1, 10, 10)]        # narrow, would fit right now
        results = simulate_jobs(jobs, 8, policy=SchedPolicy.FCFS)
        by_id = {r.job.id: r for r in results}
        assert by_id[3].start_time >= by_id[2].start_time

    def test_easy_backfills_short_narrow_job(self):
        jobs = [J(1, 0, 7, 100),
                J(2, 1, 8, 100, 100),
                J(3, 2, 1, 10, 10)]
        results = simulate_jobs(jobs, 8, policy=SchedPolicy.EASY)
        by_id = {r.job.id: r for r in results}
        assert by_id[3].start_time == pytest.approx(2.0)   # backfilled
        assert by_id[2].start_time == pytest.approx(100.0)  # not delayed

    def test_easy_never_delays_head_reservation(self):
        """A long backfill candidate that would delay the head must wait."""
        jobs = [J(1, 0, 6, 100),
                J(2, 1, 8, 50, 50),         # head: reservation at t=100
                J(3, 2, 2, 500, 500)]       # fits now but would delay head
        results = simulate_jobs(jobs, 8, policy=SchedPolicy.EASY)
        by_id = {r.job.id: r for r in results}
        assert by_id[2].start_time == pytest.approx(100.0)
        assert by_id[3].start_time >= by_id[2].start_time

    def test_easy_slack_backfill(self):
        """A long candidate may still backfill on nodes the head won't need."""
        jobs = [J(1, 0, 4, 100),
                J(2, 1, 6, 50, 50),          # head: needs 6, reservation t=100
                J(3, 2, 2, 500, 500)]        # 4 free now; head leaves 8-6=2 slack
        results = simulate_jobs(jobs, 8, policy=SchedPolicy.EASY)
        by_id = {r.job.id: r for r in results}
        assert by_id[3].start_time == pytest.approx(2.0)
        assert by_id[2].start_time == pytest.approx(100.0)

    def test_easy_usually_beats_fcfs(self):
        """EASY does not dominate FCFS instance-by-instance (greedy
        backfilling can hurt a later wide job), but over random workloads it
        wins on average — the statistical claim behind running EASY at all."""
        import numpy as np

        easy_wins = 0
        wait_gain = 0.0
        trials = 20
        for seed in range(trials):
            rng = np.random.default_rng(100 + seed)
            jobs = [J(i, float(rng.integers(0, 1000)), int(rng.integers(1, 24)),
                      float(rng.integers(50, 500)),
                      float(rng.integers(500, 1000))) for i in range(60)]
            fcfs = simulate_jobs(jobs, 32, policy="fcfs")
            easy = simulate_jobs(jobs, 32, policy="easy")
            mw_f = sum(r.wait_time for r in fcfs) / len(fcfs)
            mw_e = sum(r.wait_time for r in easy) / len(easy)
            wait_gain += mw_f - mw_e
            if max(r.end_time for r in easy) <= max(r.end_time for r in fcfs) + 1e-9:
                easy_wins += 1
        assert easy_wins >= int(0.7 * trials)
        assert wait_gain > 0  # EASY reduces mean waiting overall


def _placement_digest(results) -> str:
    import hashlib
    import json

    rows = [[r.job.id, r.start_time, list(r.nodes)] for r in results]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class TestPinnedPlacements:
    """Exact placements (job id, start time, node tuple, in start order) of
    FCFS and EASY on the Figure 13 Thunder day and a Poisson stream.  Any
    change to the event loop that moves one job by one node or one ulp of
    start time changes the digest."""

    @pytest.mark.parametrize("policy", ["fcfs", "easy"])
    def test_thunder_day(self, policy):
        from repro.workloads.thunder import ThunderSpec, generate_thunder_day

        jobs = generate_thunder_day(ThunderSpec(), seed=20070202)
        results = simulate_jobs(jobs, 1024, policy=policy,
                                reserved_nodes=range(20))
        assert len(results) == len(jobs)
        assert _placement_digest(results) == _PINNED[("thunder", policy)]

    @pytest.mark.parametrize("policy", ["fcfs", "easy"])
    def test_poisson_stream(self, policy):
        from repro.workloads.arrivals import poisson_arrivals

        jobs = poisson_arrivals(1000, rate=0.1, seed=7)
        results = simulate_jobs(jobs, 32, policy=policy)
        assert len(results) == 1000
        assert _placement_digest(results) == _PINNED[("poisson", policy)]

    @pytest.mark.parametrize("policy", ["fcfs", "easy"])
    def test_completion_arrival_and_zero_runtime_at_one_instant(self, policy):
        """At t=10 job 1 completes while jobs 2 and 3 arrive: the one
        decision at t=10 sees all three and starts job 4, the queue head
        that arrived earlier.  At t=30 job 4 completes and job 2 starts
        beside the zero-runtime job 3."""
        jobs = [J(1, 0, 4, 10),
                J(4, 5, 4, 20),     # queued head: waits for job 1
                J(2, 10, 2, 5),
                J(3, 10, 1, 0)]
        results = simulate_jobs(jobs, 4, policy=policy)
        placed = [(r.job.id, r.start_time, r.nodes) for r in results]
        assert placed == [(1, 0.0, (0, 1, 2, 3)),
                          (4, 10.0, (0, 1, 2, 3)),
                          (2, 30.0, (0, 1)),
                          (3, 30.0, (2,))]

    @pytest.mark.parametrize("policy", ["fcfs", "easy"])
    def test_zero_runtime_job_frees_its_nodes_at_its_start(self, policy):
        """Job 1 completes at t=10 as jobs 2 and 3 arrive; job 2 starts and
        ends at t=10, and a second decision at t=10 gives its nodes to
        job 3."""
        jobs = [J(1, 0, 3, 10),
                J(2, 10, 4, 0),     # starts and ends at t=10
                J(3, 10, 4, 7)]     # needs job 2's nodes back at t=10
        results = simulate_jobs(jobs, 4, policy=policy)
        placed = [(r.job.id, r.start_time, r.nodes) for r in results]
        assert placed == [(1, 0.0, (0, 1, 2)),
                          (2, 10.0, (0, 1, 2, 3)),
                          (3, 10.0, (0, 1, 2, 3))]


_PINNED = {
    ("thunder", "fcfs"):
        "272ad41d6f6e73b4fcd3f77f83dd718d53b9654422c11a97d96edd8c4f8c320d",
    ("thunder", "easy"):
        "38258d39935e04f0cd7bd1ee6410897495e8c8fef4bc8c629c4ea510f6c4c1fe",
    ("poisson", "fcfs"):
        "208f80f14f16f8f22bfcd919ab36c6dcad066f16dd5cd30f09ada18f141d2c33",
    ("poisson", "easy"):
        "7383981ca7c9e4129d976b54ab8d2679c35182f2d0689e3474f1facc15c8533c",
}
