"""Render service — sustained throughput and request latency.

``jedule serve`` keeps warmed-up render workers resident and feeds them a
stream of jobs over HTTP; the claim is that a *stream* of requests is
served at steady-state render speed (no per-request spawn/import cost)
and that repeat requests collapse to cache hits.  This benchmark drives a
live server end to end — real HTTP, real worker pipes, the shared
content-addressed cache — and measures:

* cold throughput: N distinct jobs (same schedule, distinct render
  options) through a 2-worker server, jobs/second;
* warm throughput: the same N jobs again, all served from the cache;
* whole-job latency percentiles (p50/p95/p99) from ``/statz``'s
  ``total`` stage — bucket upper bounds of its histogram — persisted into ``BENCH_serve.json`` and gated (warn-only on timings)
  by ``repro.obs.regress`` against the committed baseline.

Job counts and cache outcomes are deterministic and gate hard; wall-clock
numbers vary with runner hardware and gate as warnings.
"""

from __future__ import annotations

from time import perf_counter

from conftest import report

from bench_lod_scaling import synthetic_trace

from repro.render.api import RenderRequest
from repro.serve.client import ServeClient
from repro.serve.server import RenderServer

N_JOBS = 16
N_TASKS = 1_000
WORKERS = 2


def _requests() -> list[RenderRequest]:
    # one schedule, N distinct option fingerprints -> N distinct cache keys
    return [RenderRequest(output_format="svg", width=640, height=400,
                          lod="off", title=f"serve bench {i}")
            for i in range(N_JOBS)]


def _run_wave(client: ServeClient, schedule) -> tuple[float, list[dict]]:
    """Submit every request, then wait for all; returns (seconds, jobs)."""
    started = perf_counter()
    pending = [client.submit(request, schedule=schedule)
               for request in _requests()]
    jobs = [client.wait(doc["id"], timeout=600.0) for doc in pending]
    return perf_counter() - started, jobs


def test_serve_throughput_and_latency(tmp_path):
    schedule = synthetic_trace(N_TASKS, seed=42)
    server = RenderServer(workers=WORKERS, queue_depth=N_JOBS * 2,
                          cache_dir=str(tmp_path / "cache")).start()
    try:
        client = ServeClient(server.url, client_id="bench")
        for index in range(WORKERS):  # spawn cost out of the measurement
            server._pool.worker(index).ping()

        cold_s, cold_jobs = _run_wave(client, schedule)
        warm_s, warm_jobs = _run_wave(client, schedule)
        stats = server.statz_payload()
    finally:
        server.drain()
        assert server.wait(timeout=60)

    cold_done = sum(1 for j in cold_jobs if j["status"] == "done")
    warm_hits = sum(1 for j in warm_jobs
                    if j["status"] == "done" and j["result"]["cache"] == "hit")
    cold_rate = N_JOBS / max(cold_s, 1e-9)
    warm_rate = N_JOBS / max(warm_s, 1e-9)
    latency = stats["latency_s"]["total"]  # whole job, bucket upper bounds

    report("render service throughput", [
        ("jobs per wave", str(N_JOBS), str(N_JOBS)),
        ("workers", str(WORKERS), str(WORKERS)),
        ("cold wave", "-", f"{cold_s * 1e3:.1f} ms"
                           f" ({cold_rate:.1f} jobs/s)"),
        ("warm wave", "-", f"{warm_s * 1e3:.1f} ms"
                           f" ({warm_rate:.1f} jobs/s)"),
        ("latency p50", "-", f"{latency['p50'] * 1e3:.1f} ms"),
        ("latency p95", "-", f"{latency['p95'] * 1e3:.1f} ms"),
        ("latency p99", "-", f"{latency['p99'] * 1e3:.1f} ms"),
        ("warm cache hits", str(N_JOBS), str(warm_hits)),
    ], suite="serve", entry="throughput",
       timings_s={"cold_wave": [cold_s], "warm_wave": [warm_s],
                  "p50": [latency["p50"]], "p95": [latency["p95"]],
                  "p99": [latency["p99"]]},
       metrics={"jobs": N_JOBS, "cold_ok": cold_done,
                "warm_hits": warm_hits,
                "failed": int(stats["counters"].get(
                    'jedule_serve_jobs_total{status="failed"}', 0)),
                "restarts": stats["workers"]["restarts"]})

    assert cold_done == N_JOBS
    assert warm_hits == N_JOBS
    assert warm_s < cold_s  # the cache tier must actually pay off
    assert latency["count"] == 2 * N_JOBS


def test_serve_backpressure_is_bounded(tmp_path):
    """A full queue answers 429 immediately — submission cost stays flat
    instead of the server buffering unboundedly."""
    from repro.errors import ServeError

    schedule = synthetic_trace(200, seed=7)
    server = RenderServer(workers=1, queue_depth=4,
                          cache_dir=None).start()
    try:
        server.pause_dispatch()
        client = ServeClient(server.url, client_id="flood")
        accepted = 0
        rejected = 0
        started = perf_counter()
        for request in _requests():
            try:
                client.submit(request, schedule=schedule)
                accepted += 1
            except ServeError as exc:
                assert exc.code == "queue-full"
                rejected += 1
        elapsed = perf_counter() - started
        server.resume_dispatch()
    finally:
        server.drain()
        assert server.wait(timeout=60)

    report("render service backpressure", [
        ("queue depth", "4", "4"),
        ("accepted", "4", str(accepted)),
        ("rejected (429)", str(N_JOBS - 4), str(rejected)),
        ("submit burst", "-", f"{elapsed * 1e3:.1f} ms"),
    ], suite="serve", entry="backpressure",
       timings_s={"submit_burst": [elapsed]},
       metrics={"accepted": accepted, "rejected": rejected})
    assert accepted == 4
    assert rejected == N_JOBS - 4
