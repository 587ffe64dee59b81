"""Scheduling algorithms behind the scheduler registry.

The supported way to run any scheduler is the registry API::

    from repro.sched import run_scheduler, DagProblem
    result = run_scheduler("cpa", DagProblem(graph, platform))

:func:`repro.sched.registry.available_schedulers` lists everything —
the offline CPA/HEFT families, the multi-DAG CRA algorithms, the cluster
space-sharing policies, and the online zoo (:mod:`repro.sched.online`).
Every run returns the same :class:`~repro.sched.result.SchedResult` shape.

Scheduler *functions* are not exported here: call through the registry,
or import from the defining submodule (``repro.sched.cpa``) if you need
the raw per-family result types.  The result/problem classes and the
metrics helpers are exports of this package.
"""

from __future__ import annotations

import importlib

from repro.sched.metrics import (
    efficiency,
    flow_metrics,
    jain_fairness,
    max_stretch,
    speedup,
    stretch,
    stretch_imbalance,
    stretch_summary,
    stretches,
)
from repro.sched.registry import (
    DagProblem,
    JobsProblem,
    MultiDagProblem,
    SchedulerSpec,
    available_schedulers,
    canonical_problem,
    register_scheduler,
    run_scheduler,
    scheduler_for,
)
from repro.sched.result import SchedResult, base_metrics

#: result/problem classes and enums re-exported lazily from their
#: defining submodules
_LAZY_TYPES = {
    "Allocation": ("repro.sched.mtask", "Allocation"),
    "CRAPolicy": ("repro.sched.cra", "CRAPolicy"),
    "CRAResult": ("repro.sched.cra", "CRAResult"),
    "HeftResult": ("repro.sched.heft", "HeftResult"),
    "MHeftResult": ("repro.sched.mheft", "MHeftResult"),
    "MTaskProblem": ("repro.sched.mtask", "MTaskProblem"),
    "MTaskResult": ("repro.sched.mtask", "MTaskResult"),
}

__all__ = sorted([
    "DagProblem",
    "JobsProblem",
    "MultiDagProblem",
    "SchedResult",
    "SchedulerSpec",
    "available_schedulers",
    "base_metrics",
    "canonical_problem",
    "efficiency",
    "flow_metrics",
    "jain_fairness",
    "max_stretch",
    "register_scheduler",
    "run_scheduler",
    "scheduler_for",
    "speedup",
    "stretch",
    "stretch_imbalance",
    "stretch_summary",
    "stretches",
    *_LAZY_TYPES,
])


def __getattr__(name: str):
    if name in _LAZY_TYPES:
        module, attr = _LAZY_TYPES[name]
        value = getattr(importlib.import_module(module), attr)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
