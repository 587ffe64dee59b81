"""Wire format of the render service.

One vocabulary for three transports: the HTTP front end (JSON request
bodies), the worker pipes (a JSON header frame, optionally followed by
raw canonical schedule bytes) and the client helper.  Everything here is
plain-JSON-able on purpose — no pickled object graphs cross a process or
network boundary.

Field validation is :class:`~repro.render.api.RenderRequest`'s own, the
same for the library, batch manifests and the wire: a bad field raises
:class:`~repro.errors.ServeError` carrying the validator's
machine-readable ``code`` and ``field``, which the HTTP layer returns
verbatim as a 400 body instead of letting the junk surface as a
worker-side traceback.
"""

from __future__ import annotations

from repro.errors import RenderError, ServeError
from repro.io.json_fmt import canonical_schedule_bytes, schedule_from_canonical
from repro.render.api import RenderRequest, RenderResult

__all__ = [
    "PROTOCOL_VERSION",
    "REQUEST_FIELDS",
    "TRACE_HEADER",
    "request_to_payload",
    "request_from_payload",
    "result_to_payload",
    "result_from_payload",
    "canonical_schedule_bytes",
    "schedule_from_canonical",
]

PROTOCOL_VERSION = 1

#: HTTP header carrying the client-minted request trace id; the same id
#: travels in the worker job header (``trace_id``) and tags every span
#: of the stitched request trace (see :mod:`repro.serve.tracing`).
TRACE_HEADER = "X-Jedule-Trace"

#: RenderRequest fields allowed on the wire (all plain JSON values).
#: The in-memory-object fields (``style``, ``cmap``, ``viewport``, a
#: ``LodOptions`` instance) are library-only conveniences; remote callers
#: use the ``*_path`` variants instead.
REQUEST_FIELDS = frozenset({
    "input_path", "input_format", "output_path", "output_format",
    "width", "height", "mode", "title", "lod", "style_path", "cmap_path",
    "grayscale", "auto_colors", "types", "clusters", "window",
    "composites", "with_profile", "html_threshold", "html_tiers",
})


def _bad(message: str, *, code: str = "bad-request",
         field: str | None = None) -> ServeError:
    return ServeError(message, code=code, field=field)


def request_to_payload(request: RenderRequest) -> dict:
    """Plain-JSON payload of a request.

    Raises ``ValueError`` when the request carries in-memory objects
    (style/cmap/viewport instances) that have no wire representation —
    callers with such requests fall back to a same-machine transport.
    """
    for key in ("style", "cmap", "viewport"):
        if getattr(request, key) is not None:
            raise ValueError(f"request field {key!r} holds an in-memory "
                             f"object; not representable on the wire")
    if not isinstance(request.lod, str):
        raise ValueError("request field 'lod' holds a LodOptions object; "
                         "not representable on the wire")
    payload: dict[str, object] = {}
    for key in sorted(REQUEST_FIELDS):
        value = getattr(request, key)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = list(value)
        payload[key] = value
    return payload


def request_from_payload(doc: object) -> RenderRequest:
    """Validate a wire payload into a :class:`RenderRequest`.

    Every rejection is a :class:`~repro.errors.ServeError` whose
    ``to_payload()`` names the offending field — NaN/negative dimensions,
    unknown formats and unknown keys all come back as structured 400s
    rather than worker-side exceptions.
    """
    if not isinstance(doc, dict):
        raise _bad(f"request must be a JSON object, got "
                   f"{type(doc).__name__}", code="invalid-type")
    unknown = set(doc) - REQUEST_FIELDS
    if unknown:
        raise _bad(f"unknown request field(s): {', '.join(sorted(unknown))}",
                   code="unknown-field", field=sorted(unknown)[0])

    try:
        return RenderRequest(**{key: value for key, value in doc.items()
                                if value is not None})
    except RenderError as exc:
        raise _bad(str(exc), code=exc.code or "bad-request",
                   field=exc.field) from exc


def result_to_payload(result: RenderResult) -> dict:
    """JSON header of a result; the raw bytes travel as a separate frame."""
    payload = result.to_json()
    payload["has_data"] = result.data is not None
    return payload


def result_from_payload(doc: dict, data: bytes | None = None) -> RenderResult:
    obs_doc = doc.get("obs")
    return RenderResult(
        input_path=doc.get("input"),
        output_path=doc.get("output"),
        format=str(doc.get("format", "?")),
        nbytes=int(doc.get("bytes", 0)),
        duration_s=float(doc.get("duration_s", 0.0)),
        cache=str(doc.get("cache", "off")),
        error=doc.get("error"),
        attempts=int(doc.get("attempts", 1)),
        data=data,
        worker_obs=obs_doc if isinstance(obs_doc, dict) else None,
    )
