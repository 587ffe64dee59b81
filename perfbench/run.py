"""Pipeline ledger: one end-to-end + per-layer benchmark of the Jedule pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload file-100k --seed 1 --seconds 20 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``.  With
``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it calls the pipeline layer by layer under in-memory
spans and reports per-layer self times and work counts.  Every output is
checked and its SHA-256 recorded; a correctness failure makes the exit
code non-zero.

``setup_s`` and ``jobs_per_s`` are in reference seconds: their wall-clock
readings (``setup_s.wall``, ``jobs_per_s.wall``) scaled by a host-speed
probe timed alongside the run (``host.probe_s``; see
``perfbench/hostspeed.py``), so that they do not drift with the shared
host's speed.  Every other time is wall clock.

Stdout carries a table of every metric (name, value or ``skipped:
<reason>``, unit) and, as its last line, the JSON summary
``{"correct", "attempted", "failed", "metrics"}`` restricted to the
metrics ``BENCHMARK.json`` names for the mode.  The full result,
environment stamp and spans (``[name, start, end, parent index]``, seconds
from the start of the run) included, is written under
``.perfbench/results/``;
``perfbench/compare.py`` compares two sets of them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE_DIR = ROOT / ".perfbench"
WORKLOADS = ("file-100k", "serve-mix", "sched-cases")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _workload(name: str):
    import wl_file
    import wl_sched
    import wl_serve

    return {"file-100k": wl_file, "serve-mix": wl_serve,
            "sched-cases": wl_sched}[name]


def _overhead(ctx, untraced_path: Path) -> dict:
    """Traced / untraced mean job time of this workload, with its base.

    The untraced run of the same checkout leaves its mean job time behind
    and the traced run divides by it.  The mean, not the median: with a
    few job kinds of very different cost the median jumps between kinds.
    Both means are in reference seconds (scaled by each run's
    ``host.probe_s``), so a change in host speed between the two runs
    does not read as tracing overhead.
    """
    from hostspeed import REF_S

    walls = ctx.job_walls
    probe = ctx.ledger.metrics.get("host.probe_s")
    if not walls or probe is None or not isinstance(probe.value, float):
        return {"skipped": "the run timed no jobs comparable across modes"}
    mean = sum(walls) / len(walls) * REF_S / probe.value
    if not ctx.trace:
        untraced_path.parent.mkdir(parents=True, exist_ok=True)
        untraced_path.write_text(json.dumps(
            {"seed": ctx.seed, "job_mean_ref_s": mean}))
        return {"skipped": "untraced run"}
    try:
        base = json.loads(untraced_path.read_text())
        base_mean = base["job_mean_ref_s"]
    except (OSError, json.JSONDecodeError, KeyError):
        return {"skipped": "no untraced run of this workload in this "
                           "checkout to compare with"}
    return {"ratio": mean / base_mean, "traced_job_mean_ref_s": mean,
            "base": base}


#: skip reason of a per-layer metric whose layer the workload never calls
NOT_EXERCISED = "not exercised by "


def contract_summary(ledger, declared, trace: bool) -> dict:
    """The last stdout line: ``correct``, ``attempted``, ``failed`` and the
    declared metrics of the mode.

    An end-to-end metric the run could not produce is left out and makes
    the run incorrect.  A per-layer metric of a layer this workload does
    not exercise reads 0.0 (that layer did no work); any other skipped
    per-layer metric is left out.  Skip reasons stay in the table and the
    result file.
    """
    from ledger import Skipped

    correct = ledger.correct
    metrics = {}
    for name, unit in declared:
        metric = ledger.metrics.get(name)
        if metric is not None and not isinstance(metric.value, Skipped):
            metrics[name] = {"value": metric.value, "unit": unit}
        elif not trace:
            correct = False
        elif metric is not None and \
                metric.value.reason.startswith(NOT_EXERCISED):
            metrics[name] = {"value": 0.0, "unit": unit}
    return {"correct": correct, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "repro").is_dir() or not spec_path.is_file():
        print(f"perfbench: {ROOT} is not a full checkout (needs src/repro "
              f"and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src))

    from harness import Ctx
    from hostspeed import Sampler
    from ledger import Skipped, environment

    workdir = STATE_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Ctx(root=ROOT, workdir=workdir, workload=args.workload,
              seed=args.seed, seconds=args.seconds, trace=bool(args.trace))
    started = perf_counter()
    try:
        with Sampler(workdir / "hostspeed.log") as ctx.sampler:
            _workload(args.workload).run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall = perf_counter() - started

    ledger = ctx.ledger
    mode = "per_layer" if ctx.trace else "end_to_end"
    declared = [(m["name"], m["unit"]) for m in spec[mode]]
    if ctx.trace:
        for name, unit in declared:
            if name not in ledger.metrics:
                ledger.skip(name, unit, NOT_EXERCISED + args.workload)
    summary = contract_summary(ledger, declared, ctx.trace)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "wall_s": wall,
        "env": environment(ROOT, BENCH_DIR, workload=args.workload,
                           seed=args.seed),
        "correct": summary["correct"],
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "setup_samples_s": ctx.setups,
        "trace_overhead": _overhead(
            ctx, STATE_DIR / "results" / f"untraced-{args.workload}.json"),
        "metrics": {k: m.to_json() for k, m in sorted(ledger.metrics.items())},
        "outputs": ledger.outputs,
        # the in-memory spans, written out once the run is over
        "spans": [[s.name, s.start - started, s.end - started, s.parent]
                  for s in ctx.tracer.spans],
    }
    out = STATE_DIR / "results" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True))

    width = max(len(k) for k in ledger.metrics)
    for name, metric in sorted(ledger.metrics.items()):
        value = metric.value
        shown = str(value) if isinstance(value, Skipped) else f"{value:.6g}"
        print(f"{name:<{width}}  {shown}  {metric.unit}")
    print(f"trace overhead: {json.dumps(result['trace_overhead'])}")
    print(f"result: {out.relative_to(ROOT)}")
    for failure in ledger.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)

    missing = [n for n, _ in declared if n not in summary["metrics"]]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
