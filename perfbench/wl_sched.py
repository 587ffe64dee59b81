"""``sched-cases``: every registered scheduler plus the paper's case studies.

Each registered scheduler runs through ``sched.registry.run_scheduler``
on a seeded problem of its kind; the task-pool quicksort and the Thunder
day (generate -> EASY -> bridge) ride along.  Every result is rendered to
PNG with LOD auto.  Without this workload the sched, simulate, workloads,
dag and taskpool layers would go unmeasured.
"""

from __future__ import annotations

from collections import Counter

from harness import Ctx
from pipeline import check_output, render_layered

from repro.core.slices import job_of, validate_slices
from repro.dag.generators import LayeredDagSpec, imbalanced_layer_dag, \
    layered_dag
from repro.dag.moldable import AmdahlModel
from repro.dag.montage import montage_workflow
from repro.platform.builders import heterogeneous_platform, \
    homogeneous_cluster
from repro.render.api import RenderRequest, render_request_bytes
from repro.sched.registry import DagProblem, JobsProblem, MultiDagProblem, \
    available_schedulers, run_scheduler
from repro.taskpool.numa import altix_4700
from repro.taskpool.pool import TaskPoolSim
from repro.taskpool.quicksort import QuicksortApp
from repro.taskpool.trace import pool_result_to_schedule
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.bridge import workload_schedule
from repro.workloads.scheduler import simulate_jobs
from repro.workloads.thunder import THUNDER_NODES, THUNDER_RESERVED, \
    THUNDER_USER, ThunderSpec, generate_thunder_day

#: seeded problem sets; one cycle runs every job on every set, so each
#: run does the same work, averaged over several instances
PROBLEM_SETS = 2
#: generations of all sets timed before the first job; one more follows
#: every job, and setup_s is the median of them all
GENERATIONS = 3
#: registry family -> ledger family (the sched_s.<family> metrics)
FAMILY = {"mtask": "dag", "baseline": "dag", "list": "dag",
          "multi-dag": "multi-dag", "cluster": "cluster",
          "online": "online", "os": "os"}
#: list schedulers run on Montage (heterogeneous platform)
MONTAGE = frozenset({"heft", "cpop", "mheft"})
QSORT_N = 10_000_000
RENDER = RenderRequest(output_format="png", lod="auto")


def problems(seed: int) -> dict:
    """Paper-scale problems, except Montage (100 images) and the online /
    OS family (1,000 Poisson arrivals)."""
    return {
        # Figure 4: one imbalanced layer of 30 tasks on 32 processors
        "dag": DagProblem(imbalanced_layer_dag(width=30, heavy_factor=12,
                                               seed=seed),
                          homogeneous_cluster(32, 1e9), AmdahlModel(0.02)),
        # Figures 8/9: Montage on the heterogeneous grid platform
        "montage": DagProblem(montage_workflow(100, data_scale=10, seed=seed),
                              heterogeneous_platform()),
        # Figure 5: four applications competing for 20 processors
        "multi-dag": MultiDagProblem(
            [layered_dag(LayeredDagSpec(n_tasks=n, layers=4),
                         seed=seed * 10 + i, name=f"app{i}")
             for i, n in enumerate((26, 18, 12, 8))],
            homogeneous_cluster(20, 1e9), AmdahlModel(0.05)),
        "jobs": JobsProblem(poisson_arrivals(1000, rate=0.1, seed=seed),
                            machines=32),
    }


def _input_jobs(problem) -> int:
    if problem.kind == "dag":
        return len(problem.graph)
    if problem.kind == "multi-dag":
        return sum(len(g) for g in problem.graphs)
    return len(problem.jobs)


def run(ctx: Ctx) -> None:
    seeds = [ctx.seed * 100 + k for k in range(PROBLEM_SETS)]

    def generate() -> list[dict]:
        return ctx.timed_setup(lambda: [problems(seed) for seed in seeds])

    for _ in range(GENERATIONS):
        sets = generate()
    tasks_out: Counter = Counter()

    def finish(schedule, want_jobs=None):
        """Render a result; ``(schedule, png bytes, input job count)``."""
        if ctx.trace:
            counts = ctx.counts if ctx.counting else Counter()
            data = render_layered(ctx.tracer, RENDER, schedule, counts)
        else:
            data = render_request_bytes(RENDER, schedule)
        return schedule, data, want_jobs

    def make_check(label, family):
        def check(result):
            schedule, data, want_jobs = result
            if ctx.counting:
                tasks_out[family] += len(schedule)
            ctx.ledger.output(f"{label}.png", data)
            problems_ = check_output("png", data, RENDER)
            problems_ += validate_slices(schedule)
            if want_jobs is not None:
                got = len({job_of(t) for t in schedule})
                if got != want_jobs:
                    problems_.append(f"{got} jobs out, {want_jobs} in")
            if ctx.trace and render_request_bytes(RENDER, schedule) != data:
                problems_.append("layer-by-layer bytes differ from "
                                 "render_request_bytes")
            return problems_
        return check

    def scheduler_job(name, family, problem):
        def work():
            with ctx.tracer.span(f"sched.{family}"):
                result = run_scheduler(name, problem)
            return finish(result.schedule, _input_jobs(problem))
        return work

    def taskpool_job(seed):
        def work():
            with ctx.tracer.span("sched.taskpool"):
                res = TaskPoolSim(altix_4700(64), QuicksortApp(
                    QSORT_N, variant="random", first_split=0.05,
                    seed=seed)).run()
                schedule = pool_result_to_schedule(
                    res, min_duration=res.makespan / 2000)
            return finish(schedule)
        return work

    def thunder_job(seed):
        def work():
            spec = ThunderSpec()
            with ctx.tracer.span("workloads.generate"):
                day = generate_thunder_day(spec, seed=seed)
            with ctx.tracer.span("sched.cluster"):
                scheduled = simulate_jobs(day, THUNDER_NODES, policy="easy",
                                          reserved_nodes=THUNDER_RESERVED)
                window = (spec.warmup_seconds,
                          spec.warmup_seconds + spec.day_seconds)
                schedule = workload_schedule(scheduled, THUNDER_NODES,
                                             highlight_user=THUNDER_USER,
                                             window=window)
            return finish(schedule)
        return work

    jobs = []
    for seed, probs in zip(seeds, sets):
        for spec in available_schedulers():
            family = FAMILY[spec.family]
            problem = probs["montage" if spec.name in MONTAGE
                            else spec.problem]
            jobs.append((spec.name, scheduler_job(spec.name, family, problem),
                         make_check(f"{spec.name}.{seed}", family)))
        jobs.append(("taskpool-qsort", taskpool_job(seed),
                     make_check(f"taskpool-qsort.{seed}", "taskpool")))
        jobs.append(("thunder-day", thunder_job(seed),
                     make_check(f"thunder-day.{seed}", "cluster")))
    ctx.cycles_until(jobs, resetup=generate)
    ctx.put_job_metrics()
    ctx.put_peak_rss()
    for family in sorted(set(FAMILY.values()) | {"taskpool"}):
        ctx.ledger.put(f"sched.tasks_out.{family}", tasks_out[family],
                       "count")
    if ctx.trace:
        ctx.put_layer_metrics()
