"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError` so that callers can
catch everything coming out of this package with a single ``except`` clause,
while still being able to discriminate parse errors from model errors.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ScheduleError",
    "ValidationError",
    "ParseError",
    "ColorError",
    "RenderError",
    "BatchError",
    "ServeError",
    "PlatformError",
    "SchedulingError",
    "SchedulerError",
    "SimulationError",
    "WorkloadError",
]


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class ScheduleError(ReproError):
    """Invalid operation on a schedule or its components."""


class ValidationError(ScheduleError):
    """A schedule violates a structural invariant (see :mod:`repro.core.validate`)."""


class ParseError(ReproError):
    """A schedule / color-map / workload file could not be parsed."""

    def __init__(self, message: str, *, source: str | None = None, line: int | None = None):
        loc = ""
        if source is not None:
            loc += f" in {source}"
        if line is not None:
            loc += f" at line {line}"
        super().__init__(message + loc)
        self.source = source
        self.line = line


class ColorError(ReproError):
    """Invalid color specification or color-map lookup failure."""


class RenderError(ReproError):
    """Rendering/layout failure (bad geometry, unsupported canvas op...).

    A rejected :class:`~repro.render.api.RenderRequest` field also carries
    the machine-readable ``code`` (``invalid-type``, ``invalid-value``,
    ``invalid-dimension``, ``unknown-format``) and the ``field`` it names,
    which the render service returns verbatim in its 400 body.
    """

    def __init__(self, message: str, *, code: str | None = None,
                 field: str | None = None):
        super().__init__(message)
        self.code = code
        self.field = field


class BatchError(ReproError):
    """The batch runner could not run at all (bad manifest, no jobs...).

    Per-job render failures do *not* raise this — they land in the batch
    report so one bad schedule never sinks the rest of the batch.
    """


class ServeError(ReproError):
    """The render service could not accept or process a request.

    Carries an optional machine-readable payload (``code``, ``field``)
    so the HTTP layer can return a structured error document instead of
    a bare string.
    """

    def __init__(self, message: str, *, code: str = "error",
                 field: str | None = None):
        super().__init__(message)
        self.code = code
        self.field = field

    def to_payload(self) -> dict:
        """JSON-serializable error document for wire responses."""
        out: dict[str, object] = {"code": self.code, "message": str(self)}
        if self.field is not None:
            out["field"] = self.field
        return out


class PlatformError(ReproError):
    """Inconsistent platform description (unknown host, bad route...)."""


class SchedulingError(ReproError):
    """A scheduling algorithm received an unusable problem instance."""


class SchedulerError(SchedulingError):
    """The scheduler registry could not resolve or run a scheduler.

    The structured sibling of :class:`ParseError` for :mod:`repro.sched.registry`:
    ``scheduler`` names the scheduler involved (when known) and ``option``
    names the offending option on unknown-option errors, so CLI and service
    layers can report machine-readable scheduling errors.
    """

    def __init__(self, message: str, *, scheduler: str | None = None,
                 option: str | None = None):
        loc = ""
        if scheduler is not None:
            loc = f" (scheduler {scheduler!r})"
        super().__init__(message + loc)
        self.scheduler = scheduler
        self.option = option


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class WorkloadError(ReproError):
    """Invalid workload trace or job description."""
