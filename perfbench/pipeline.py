"""The render pipeline called layer by layer, and the output checks.

:func:`render_layered` performs exactly the steps of
``repro.render.api.render_request_bytes`` through each layer's public
function, one span per layer, so a traced run can attribute time to
layers.  Traced runs compare its bytes with ``render_request_bytes`` for
the same request: equal bytes prove the layer numbers describe the real
pipeline.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from collections import Counter

from repro.core.timeframe import ViewMode
from repro.errors import ReproError
from repro.render.backends.html import render_html_interactive
from repro.render.backends.svg import render_svg
from repro.render.geometry import HAlign, Rect, Text, VAlign
from repro.render.html_payload import build_payload, validate_payload
from repro.render.layout import LayoutOptions, layout_schedule
from repro.render.lod import LOD_REF_PREFIX
from repro.render.png_codec import decode_png, encode_png
from repro.render.raster import rasterize

#: span name -> per-layer metric holding the median self time of its spans
SPAN_METRICS = {
    "io.load.jedule": "io.load_s.jedule",
    "io.load.csv": "io.load_s.csv",
    "io.save.jedule": "io.save_s.jedule",
    "io.write": "io.write_s",
    "core.transform": "core.transform_s",
    "core.from_canonical": "core.from_canonical_s",
    "render.layout": "layout_s",
    "render.raster": "raster_s",
    "render.png_codec": "png.encode_s",
    "render.svg": "svg.encode_s",
    "render.html_payload": "html.payload_s",
    "render.html_page": "html.page_s",
    "workloads.generate": "workloads.generate_s",
    "sched.dag": "sched_s.dag",
    "sched.multi-dag": "sched_s.multi-dag",
    "sched.cluster": "sched_s.cluster",
    "sched.online": "sched_s.online",
    "sched.os": "sched_s.os",
    "sched.taskpool": "sched_s.taskpool",
}


def render_layered(tracer, request, schedule, counts: Counter) -> bytes:
    """``render_request_bytes(request, schedule)``, one span per layer.

    Work counts (primitives, labels, pixels, bytes) are added to
    ``counts``; they are taken outside the spans.
    """
    with tracer.span("core.transform"):
        kept = request.transformed(schedule)
    counts["core.tasks_kept"] += len(kept)
    fmt = request.resolved_output_format()
    if fmt == "html":
        lod_mode = request.lod if isinstance(request.lod, str) \
            else request.lod.mode
        with tracer.span("render.html_payload"):
            payload = build_payload(
                kept, cmap=request.resolve_cmap(kept), title=request.title,
                threshold=request.html_threshold, tiers=request.html_tiers,
                lod_mode=lod_mode, initial=request.resolve_viewport(kept))
        with tracer.span("render.html_page"):
            data = render_html_interactive(payload, width=request.width,
                                           height=request.height)
        counts["html.bytes"] += len(data)
        return data
    if request.with_profile:
        raise ValueError("render_layered does not split with_profile")
    with tracer.span("render.layout"):
        drawing = layout_schedule(
            kept, cmap=request.resolve_cmap(kept),
            style=request.resolve_style(),
            options=LayoutOptions(width=request.width, height=request.height,
                                  mode=ViewMode.parse(request.mode),
                                  title=request.title),
            viewport=request.resolve_viewport(kept), lod=request.lod)
    if fmt == "png":
        with tracer.span("render.raster"):
            pixels = rasterize(drawing).pixels
        with tracer.span("render.png_codec"):
            data = encode_png(pixels)
        counts["raster.pixels"] += pixels.shape[0] * pixels.shape[1]
        counts["png.bytes"] += len(data)
    elif fmt == "svg":
        with tracer.span("render.svg"):
            data = render_svg(drawing)
        counts["svg.bytes"] += len(data)
    else:
        raise ValueError(f"render_layered covers png/svg/html, not {fmt}")
    count_drawing(drawing, counts)
    return data


def count_drawing(drawing, counts: Counter) -> None:
    """Layout work counts: primitives, stroked and LOD rects, task labels."""
    counts["layout.primitives"] += len(drawing)
    for key in ("layout.stroked_rects", "layout.lod_rects",
                "layout.task_rects", "layout.labels"):
        counts[key] += 0   # a layout ran: a zero here is a measured zero
    for item in drawing:
        if isinstance(item, Rect):
            if item.stroke is not None:
                counts["layout.stroked_rects"] += 1
            if item.ref is not None:
                if item.ref.startswith(LOD_REF_PREFIX):
                    counts["layout.lod_rects"] += 1
                elif item.ref.startswith("task:"):
                    counts["layout.task_rects"] += 1
        elif isinstance(item, Text) and item.halign is HAlign.CENTER \
                and item.valign is VAlign.MIDDLE:
            # task labels are the only centred/middle-anchored texts
            counts["layout.labels"] += 1


# ---------------------------------------------------------------- checks

def html_payload(data: bytes) -> dict:
    """The JSON payload embedded in an interactive HTML page."""
    text = data.decode("utf-8")
    head = '<script type="application/json" id="jedule-data">'
    start = text.index(head) + len(head)
    return json.loads(text[start:text.index("</script>", start)])


def check_output(fmt: str, data: bytes, request) -> list[str]:
    """Problems with one rendered output; empty when it is well formed."""
    try:
        if fmt == "png":
            shape = decode_png(data).shape
            if shape[:2] != (request.height, request.width):
                return [f"png is {shape[1]}x{shape[0]}, requested "
                        f"{request.width}x{request.height}"]
        elif fmt == "svg":
            root = ET.fromstring(data)
            if not root.tag.endswith("svg"):
                return [f"svg root element is {root.tag!r}"]
        elif fmt == "html":
            validate_payload(html_payload(data))
        else:
            return [f"no check for format {fmt!r}"]
    except (ReproError, ValueError, ET.ParseError, UnicodeDecodeError) as exc:
        return [f"{fmt} output does not check: {type(exc).__name__}: {exc}"]
    return []
