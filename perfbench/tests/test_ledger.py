"""Tests of the benchmark's own logic.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from compare import compare  # noqa: E402
from ledger import (  # noqa: E402
    Ledger, Skipped, Span, Tracer, check_name, median, percentile,
    same_cores, self_times)
from run import contract_summary  # noqa: E402


# ---------------------------------------------------------------- percentiles

def test_median_is_nearest_rank():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.0
    assert median([7.0]) == 7.0


def test_empty_sample_is_skipped():
    assert isinstance(median([]), Skipped)


def test_p90_needs_ten_samples_beyond_it():
    assert isinstance(percentile(range(99), 90), Skipped)
    assert percentile(range(1, 101), 90) == 90
    assert "needs 10" in percentile(range(50), 90).reason


# ---------------------------------------------------------------- self time

def test_self_time_subtracts_union_of_children():
    spans = [Span("job", 0.0, 10.0, None),
             Span("a", 1.0, 3.0, 0),
             Span("b", 2.0, 5.0, 0),      # overlaps a: union is [1, 5]
             Span("c", 8.0, 12.0, 0),     # clipped to the parent's end
             Span("d", 1.5, 2.5, 1)]      # grandchild: only a's child
    out = self_times(spans)
    assert out[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert out[1] == pytest.approx(2.0 - 1.0)
    assert out[2] == pytest.approx(3.0)
    assert out[3] == pytest.approx(4.0)
    assert out[4] == pytest.approx(1.0)


def test_tracer_nests_and_disabled_records_nothing():
    tracer = Tracer(True)
    with tracer.span("job"):
        with tracer.span("io"):
            pass
        with tracer.span("render"):
            pass
    assert [(s.name, s.parent) for s in tracer.spans] == \
        [("job", None), ("io", 0), ("render", 0)]
    assert all(s.end >= s.start for s in tracer.spans)
    off = Tracer(False)
    with off.span("job"):
        pass
    assert off.spans == []


# ---------------------------------------------------------------- names

@pytest.mark.parametrize("name", ["setup_s", "req_p50_s.low", "sched_s.multi-dag",
                                  "io.load_s.jedule", "9lives", "a" * 64])
def test_valid_metric_names(name):
    assert check_name(name) == name


@pytest.mark.parametrize("name", ["", "a b", "-lead", ".lead", "req_p50_s.low|mid",
                                  "a" * 65, "ü", None])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        check_name(name)


def test_ledger_rejects_bad_names_and_units():
    ledger = Ledger()
    with pytest.raises(ValueError):
        ledger.put("bad name", 1.0, "s")
    with pytest.raises(ValueError):
        ledger.put("ok", 1.0, "seconds per op!")


# ---------------------------------------------------------------- skipped

def test_skipped_is_never_a_number():
    ledger = Ledger()
    ledger.put("a_s", Skipped("phase built a backlog"), "s")
    ledger.put("b_s", math.inf, "s")
    ledger.put("c_s", 0.25, "s")
    assert ledger.metrics["a_s"].to_json() == \
        {"skipped": "phase built a backlog", "unit": "s"}
    assert "value" not in ledger.metrics["b_s"].to_json()
    assert ledger.metrics["c_s"].to_json() == {"value": 0.25, "unit": "s"}


def test_refusals_fail_operations_but_not_correctness():
    ledger = Ledger()
    ledger.op("ok", [])
    ledger.op("refused", ["HTTP 429"], wrong=False)
    assert (ledger.attempted, ledger.failed, ledger.correct) == (2, 1, True)
    ledger.op("bad", ["bytes differ"])
    assert (ledger.failed, ledger.correct) == (2, False)


def test_contract_summary_handles_skipped_metrics():
    ledger = Ledger()
    ledger.op("job", [])
    ledger.put("setup_s", 0.5, "s")
    ledger.skip("job_p50_s", "s", "no job completed")
    e2e = contract_summary(ledger, [("setup_s", "s"), ("job_p50_s", "s")],
                           trace=False)
    assert e2e["correct"] is False
    assert e2e["metrics"] == {"setup_s": {"value": 0.5, "unit": "s"}}
    ledger.skip("raster_s", "s", "not exercised by serve-mix")
    layers = contract_summary(
        ledger, [("job_p50_s", "s"), ("raster_s", "s")], trace=True)
    assert layers["correct"] is True
    # exercised but skipped: left out, never a number
    assert layers["metrics"] == {"raster_s": {"value": 0.0, "unit": "s"}}


# ---------------------------------------------------------------- compare

def _result(workload, value, nproc=2, affinity=(0, 1)):
    return {"workload": workload,
            "env": {"nproc": nproc, "affinity": list(affinity)},
            "metrics": {"job_p50_s": {"value": value, "unit": "s"}}}


SPEC = {"end_to_end": [{"name": "job_p50_s", "unit": "s",
                        "better": "lower", "bound": 0.1}]}


def test_compare_flags_regressions_beyond_the_bound():
    old = [_result("w", v) for v in (1.0, 1.0, 1.1)]
    assert compare(old, [_result("w", 1.05)], SPEC)[0].endswith("ok")
    assert compare(old, [_result("w", 1.2)], SPEC)[0].endswith("REGRESSED")


def test_compare_refuses_different_core_counts():
    assert same_cores({"nproc": 2, "affinity": [0, 1]},
                      {"nproc": 2, "affinity": [2, 3]})
    with pytest.raises(ValueError, match="core counts"):
        compare([_result("w", 1.0)], [_result("w", 1.0, nproc=4)], SPEC)
    with pytest.raises(ValueError, match="core counts"):
        compare([_result("w", 1.0)], [_result("w", 1.0, affinity=(0,))], SPEC)


# ---------------------------------------------------------------- inputs

@pytest.mark.parametrize("n,seed", [(1, 0), (40, 3), (500, 11)])
def test_generated_files_match_the_program_writers(n, seed):
    from inputs import csv_chunks, jedule_xml_chunks, synthetic_doc
    from repro.io import csv_fmt, jedule_xml
    from repro.io.json_fmt import from_dict

    schedule = from_dict(synthetic_doc(n, seed))
    assert jedule_xml.dumps(schedule) == "".join(jedule_xml_chunks(n, seed))
    assert csv_fmt.dumps(schedule) == "".join(csv_chunks(n, seed))


def test_another_cycle_lands_closest_to_the_run_length():
    from harness import another_cycle

    assert another_cycle(12.0, 1, 20.0)        # 24 s is closer than 12 s
    assert not another_cycle(28.0, 1, 20.0)    # one long cycle is the run
    assert another_cycle(18.0, 6, 20.0)        # 21 s: 1 s over, 2 s under
    assert not another_cycle(19.0, 6, 20.0)    # 22.2 s: 2.2 s over, 1 under


def test_resetup_follows_every_job(tmp_path):
    from harness import Ctx

    ctx = Ctx(root=tmp_path, workdir=tmp_path, workload="w", seed=0,
              seconds=0.0, trace=False)
    jobs = [(f"j{i}", lambda: None, lambda _: []) for i in range(3)]
    ctx.cycles_until(jobs, resetup=lambda: ctx.setups.append(1.0))
    assert (ctx.cycles, ctx.setups) == (1, [1.0, 1.0, 1.0])


def test_layout_counts_record_measured_zeros():
    from collections import Counter

    from pipeline import count_drawing

    counts = Counter()
    count_drawing([], counts)
    assert "layout.labels" in counts and counts["layout.labels"] == 0


# ---------------------------------------------------------------- host speed

def test_probe_median_keeps_samples_inside_timed_intervals():
    from hostspeed import MIN_SAMPLES, probe_median

    inside = [(1.0 + i / 100, 2.0) for i in range(MIN_SAMPLES)]
    outside = [(0.5, 100.0), (3.5, 100.0), (5.0, 100.0)]
    intervals = [(1.0, 1.5), (3.0, 3.2)]
    assert probe_median(inside + outside, intervals) == 2.0
    assert probe_median(inside[1:] + outside, intervals) is None


def test_host_adjusted_metrics_scale_by_the_probe(tmp_path):
    from harness import Ctx
    from hostspeed import MIN_SAMPLES, REF_S

    class Probes:
        def samples(self):
            return [(float(i), 2 * REF_S) for i in range(MIN_SAMPLES)]

    ctx = Ctx(root=tmp_path, workdir=tmp_path, workload="w", seed=0,
              seconds=0.0, trace=False)
    ctx.setups = [3.0]
    ctx.intervals = [(0.0, float(MIN_SAMPLES))]
    ctx.sampler = Probes()
    ctx.put_host_adjusted(5.0)
    metrics = ctx.ledger.metrics
    # a host running the probe at half speed: set-up counts half, and
    # twice the jobs would have completed per reference second
    assert metrics["setup_s"].value == pytest.approx(1.5)
    assert metrics["jobs_per_s"].value == pytest.approx(10.0)
    assert (metrics["setup_s.wall"].value,
            metrics["jobs_per_s.wall"].value) == (3.0, 5.0)

    ctx.sampler = None
    ctx.put_host_adjusted(5.0)
    assert isinstance(metrics["jobs_per_s"].value, Skipped)
    assert isinstance(metrics["setup_s"].value, Skipped)


def test_sampler_logs_probes_and_stops(tmp_path):
    import time

    from hostspeed import Sampler

    with Sampler(tmp_path / "probes.log") as sampler:
        time.sleep(0.3)
        first = sampler.samples()
    assert first and all(seconds > 0 for _, seconds in first)
    assert sampler.proc.returncode is not None
