"""SVG vector backend."""

from __future__ import annotations

import re
from xml.sax.saxutils import escape, quoteattr

from repro.render.geometry import Drawing, HAlign, Line, Rect, Text, VAlign

__all__ = ["render_svg"]

_TEXT_ANCHOR = {HAlign.LEFT: "start", HAlign.CENTER: "middle", HAlign.RIGHT: "end"}
_BASELINE = {VAlign.TOP: "hanging", VAlign.MIDDLE: "central", VAlign.BOTTOM: "alphabetic"}


def _fmt(v: float) -> str:
    """Compact coordinate formatting."""
    return f"{v:.2f}".rstrip("0").rstrip(".")


#: characters :func:`xml.sax.saxutils.quoteattr` rewrites or quotes around
_ATTR_SPECIAL = re.compile(r'[&<>"\n\r\t]')


def _quoteattr(value: str) -> str:
    """:func:`~xml.sax.saxutils.quoteattr`, short-cut for plain values."""
    if _ATTR_SPECIAL.search(value) is None:
        return f'"{value}"'
    return quoteattr(value)


def render_svg(drawing: Drawing) -> bytes:
    """Serialize a drawing as a standalone SVG document."""
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{drawing.width}" '
        f'height="{drawing.height}" '
        f'viewBox="0 0 {drawing.width} {drawing.height}">',
        f'<rect width="{drawing.width}" height="{drawing.height}" '
        f'fill="{drawing.background.css()}"/>',
    ]
    # A drawing reuses a handful of (fill, stroke, stroke width) triples, so
    # each rect's paint attributes are built once per drawing.  The colors
    # are keyed by identity (the drawing keeps them alive); equal colors
    # behind two objects merely build the same string twice.
    paints: dict[tuple, str] = {}
    for item in drawing:
        if isinstance(item, Rect):
            key = (id(item.fill), id(item.stroke), item.stroke_width)
            paint = paints.get(key)
            if paint is None:
                paint = f'fill="{item.fill.css()}"' if item.fill else 'fill="none"'
                if item.stroke:
                    paint += (f' stroke="{item.stroke.css()}" '
                              f'stroke-width="{_fmt(item.stroke_width)}"')
                paints[key] = paint
            ref = f" data-ref={_quoteattr(item.ref)}" if item.ref else ""
            out.append(f'<rect x="{_fmt(item.x)}" y="{_fmt(item.y)}" '
                       f'width="{_fmt(item.w)}" height="{_fmt(item.h)}" '
                       f"{paint}{ref}/>")
        elif isinstance(item, Line):
            out.append(
                f'<line x1="{_fmt(item.x0)}" y1="{_fmt(item.y0)}" '
                f'x2="{_fmt(item.x1)}" y2="{_fmt(item.y1)}" '
                f'stroke="{item.color.css()}" stroke-width="{_fmt(item.width)}"/>'
            )
        elif isinstance(item, Text):
            transform = (f' transform="rotate(-90 {_fmt(item.x)} {_fmt(item.y)})"'
                         if item.rotated else "")
            out.append(
                f'<text x="{_fmt(item.x)}" y="{_fmt(item.y)}" '
                f'font-family="Helvetica,Arial,sans-serif" '
                f'font-size="{_fmt(item.size)}" fill="{item.color.css()}" '
                f'text-anchor="{_TEXT_ANCHOR[item.halign]}" '
                f'dominant-baseline="{_BASELINE[item.valign]}"{transform}>'
                f"{escape(item.text)}</text>"
            )
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("utf-8")
