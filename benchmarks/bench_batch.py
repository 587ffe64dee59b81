"""Batch renderer — parallel fan-out and content-addressed cache payoff.

The batch subsystem exists so a whole paper's figure set regenerates in one
command, fast: render jobs fan out across the process-wide *warm* worker
pool (:func:`repro.serve.pool.shared_pool` — resident processes, spawn +
import paid once) and re-runs are served from the content-addressed cache.
This benchmark builds an eight-figure manifest from synthetic traces (two
clean rounds for 4 workers) and measures:

* cold serial vs. cold 4-worker wall clock (the parallel speedup claim,
  >= 2.5x; needs >= 4 usable cores, otherwise the assertion is skipped
  and the speedup row reads ``skipped: <reason>``);
* cold vs. warm-cache wall clock (>= 10x; core-count independent);
* that one corrupt input fails alone — every other figure still renders
  and the report names the failure.

The pool is warmed (spawned + pinged) before timing, so the measurement
captures steady-state fan-out, not first-spawn cost.
"""

from __future__ import annotations

import json
import os

import pytest
from conftest import report

from bench_lod_scaling import synthetic_trace

from repro.batch import load_manifest, run_manifest
from repro.io import save_schedule

N_FIGURES = 8
N_TASKS = 2_000


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _write_manifest(root, *, corrupt: bool = False) -> str:
    inputs = []
    for i in range(N_FIGURES):
        path = root / f"fig{i}.jed"
        save_schedule(synthetic_trace(N_TASKS, seed=100 + i), path)
        inputs.append(path.name)
    jobs = [{"input": name, "title": f"figure {i}"}
            for i, name in enumerate(inputs)]
    if corrupt:
        bad = root / "broken.jed"
        bad.write_text("<jedule>this is not a schedule", encoding="utf-8")
        jobs.append({"input": bad.name})
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps({
        "name": "bench-batch",
        "output_dir": "out",
        "cache_dir": ".cache",
        "defaults": {"format": "png", "lod": "off"},
        "jobs": jobs,
    }), encoding="utf-8")
    return str(manifest)


def test_batch_warm_cache_speedup(tmp_path, benchmark):
    manifest = load_manifest(_write_manifest(tmp_path))

    cold = run_manifest(manifest, jobs=1)
    assert cold.ok
    assert cold.cache_misses == N_FIGURES

    warm = benchmark(lambda: run_manifest(manifest, jobs=1))
    assert warm.ok
    assert warm.cache_hits == N_FIGURES

    speedup = cold.elapsed_s / max(warm.elapsed_s, 1e-9)
    report("batch warm cache", [
        ("figures", "8", str(N_FIGURES)),
        ("cold serial", "-", f"{cold.elapsed_s * 1e3:.1f} ms"),
        ("warm cached", "-", f"{warm.elapsed_s * 1e3:.1f} ms"),
        ("speedup", ">= 10x", f"{speedup:.1f}x"),
    ], suite="batch", entry="warm_cache",
       timings_s={"cold": [cold.elapsed_s], "warm": [warm.elapsed_s]},
       metrics={"figures": N_FIGURES, "cache_hits": warm.cache_hits})
    assert speedup >= 10.0, f"warm cache only {speedup:.1f}x faster"


def test_batch_parallel_speedup(tmp_path):
    from repro.serve.pool import shared_pool

    cores = _usable_cores()
    manifest = load_manifest(_write_manifest(tmp_path))

    # pay worker spawn + pre-import before the clock starts: the claim is
    # about steady-state fan-out, which is what repeated runs (and the
    # render service) actually experience
    pool = shared_pool(4)
    for index in range(pool.size):
        pool.worker(index).ping()

    serial = run_manifest(manifest, jobs=1, use_cache=False)
    parallel = run_manifest(manifest, jobs=4, use_cache=False)
    assert serial.ok and parallel.ok

    speedup = serial.elapsed_s / max(parallel.elapsed_s, 1e-9)
    # with fewer cores than workers the ratio measures the machine, not the
    # fan-out: record it as skipped rather than as a number
    skipped = None if cores >= 4 else f"needs >= 4 usable cores, have {cores}"
    report("batch 4-worker fan-out", [
        ("figures", "8", str(N_FIGURES)),
        ("usable cores", ">= 4", str(cores)),
        ("serial", "-", f"{serial.elapsed_s * 1e3:.1f} ms"),
        ("4 workers", "-", f"{parallel.elapsed_s * 1e3:.1f} ms"),
        ("speedup", ">= 2.5x",
         f"skipped: {skipped}" if skipped else f"{speedup:.2f}x"),
    ], suite="batch", entry="parallel_4x",
       timings_s={"serial": [serial.elapsed_s],
                  "parallel4": [parallel.elapsed_s]},
       metrics={"figures": N_FIGURES})
    if skipped:
        pytest.skip(f"speedup assertion {skipped}")
    assert speedup >= 2.5, f"4 workers only {speedup:.2f}x faster"


def test_batch_survives_corrupt_input(tmp_path):
    manifest = load_manifest(_write_manifest(tmp_path, corrupt=True))

    result = run_manifest(manifest, jobs=2, retries=0)
    assert not result.ok
    assert len(result.failures) == 1
    assert "broken.jed" in result.failures[0].input_path
    assert sum(1 for r in result.results if r.ok) == N_FIGURES
    for i in range(N_FIGURES):
        assert (tmp_path / "out" / f"fig{i}.png").stat().st_size > 0
    assert "broken.jed" in result.error_table()
