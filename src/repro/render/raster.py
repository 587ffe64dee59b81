"""Pure-Python/NumPy rasterizer for the bitmap backends (PNG, PPM, BMP).

The image is an ``(h, w, 3)`` uint8 array.  Operations are vectorized slice
assignments (rect fills), a Bresenham walk batched through fancy indexing
(lines), and nearest-neighbour scaling of the 5x7 font (text).  The
rasterizer implements the drawing-primitive vocabulary of
:mod:`repro.render.geometry` and nothing more.

:func:`rasterize` does not dispatch one Python call per primitive: runs of
consecutive rects (filled, stroked or both) are collected and painted as a
batch — each rect is expanded into the fill and edge rects the scalar path
would paint, coordinate snapping/clipping is computed with array
arithmetic for the whole run, pieces are grouped into a distinct-color
palette, and large runs paint palette *indices* into a scalar scratch
canvas that is resolved to RGB in one whole-canvas gather.  Painting order
is preserved exactly in every path (the last index written to a pixel
wins), so batched output is pixel-identical to the naive per-primitive
z-order walk.

All pixel snapping uses half-up rounding (``floor(v + 0.5)``) rather than
Python's banker's rounding: two rects sharing an edge at a ``*.5``
coordinate then snap to the *same* pixel column, instead of alternating
between 1-px overlaps and 1-px gaps by parity.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.core.colormap import Color
from repro.obs import core as _obs
from repro.render import font5x7
from repro.render.geometry import Drawing, HAlign, Line, Rect, Text, VAlign

__all__ = ["RasterImage", "rasterize"]


def _snap(v: float) -> int:
    """Half-up rounding to an integer pixel edge.

    Unlike ``int(round(v))`` this is parity-independent at ``*.5``: adjacent
    rects sharing such an edge snap to the same pixel, leaving neither a
    seam nor a double-painted column.
    """
    return math.floor(v + 0.5)


class RasterImage:
    """A mutable RGB image with primitive drawing operations."""

    def __init__(self, width: int, height: int, background: Color = Color(255, 255, 255)):
        if width <= 0 or height <= 0:
            raise ValueError(f"bad image size {width}x{height}")
        self.width = int(width)
        self.height = int(height)
        self.pixels = np.empty((self.height, self.width, 3), dtype=np.uint8)
        self.pixels[:] = (background.r, background.g, background.b)

    # ----------------------------------------------------------- primitives
    def fill_rect(self, x: float, y: float, w: float, h: float, color: Color) -> None:
        """Fill an axis-aligned rectangle; sub-pixel rects snap to >=1 px.

        Negative extents describe the same rectangle anchored at the
        opposite corner and are normalized; zero extents paint nothing.
        """
        if w < 0:
            x, w = x + w, -w
        if h < 0:
            y, h = y + h, -h
        if x + w <= 0 or y + h <= 0 or x >= self.width or y >= self.height:
            return  # fully outside the canvas
        x0 = max(_snap(x), 0)
        y0 = max(_snap(y), 0)
        x1 = min(_snap(x + w), self.width)
        y1 = min(_snap(y + h), self.height)
        # Sub-pixel rects that truly intersect the canvas snap to one pixel.
        if w > 0 and x1 <= x0 and x0 < self.width:
            x1 = x0 + 1
        if h > 0 and y1 <= y0 and y0 < self.height:
            y1 = y0 + 1
        if x1 > x0 and y1 > y0:
            self.pixels[y0:y1, x0:x1] = (color.r, color.g, color.b)

    def stroke_rect(self, x: float, y: float, w: float, h: float, color: Color,
                    width: float = 1.0) -> None:
        """1px (or thicker) rectangle outline.

        Negative extents are normalized exactly like :meth:`fill_rect`, so
        the four edges always land on the sides of the normalized
        rectangle instead of producing a torn outline.
        """
        if w < 0:
            x, w = x + w, -w
        if h < 0:
            y, h = y + h, -h
        t = max(1, _snap(width))
        x0, y0 = _snap(x), _snap(y)
        x1, y1 = _snap(x + w), _snap(y + h)
        self.fill_rect(x0, y0, x1 - x0, t, color)                 # top
        self.fill_rect(x0, y1 - t, x1 - x0, t, color)             # bottom
        self.fill_rect(x0, y0, t, y1 - y0, color)                 # left
        self.fill_rect(x1 - t, y0, t, y1 - y0, color)             # right

    def draw_line(self, x0: float, y0: float, x1: float, y1: float, color: Color,
                  width: float = 1.0) -> None:
        """Bresenham-style line; axis-aligned lines take the fast rect path.

        Non-axis-aligned lines honour ``width`` by stamping a square brush
        of the requested thickness along the walk, so thick diagonal
        dependency edges no longer render hairline.
        """
        if abs(y1 - y0) < 0.5:  # horizontal
            lo, hi = sorted((x0, x1))
            self.fill_rect(lo, y0 - width / 2, hi - lo + 1, max(width, 1.0), color)
            return
        if abs(x1 - x0) < 0.5:  # vertical
            lo, hi = sorted((y0, y1))
            self.fill_rect(x0 - width / 2, lo, max(width, 1.0), hi - lo + 1, color)
            return
        steps = int(max(abs(x1 - x0), abs(y1 - y0))) + 1
        xs = np.floor(np.linspace(x0, x1, steps) + 0.5).astype(np.intp)
        ys = np.floor(np.linspace(y0, y1, steps) + 0.5).astype(np.intp)
        t = max(1, _snap(width))
        if t > 1:
            off = np.arange(t, dtype=np.intp) - t // 2
            xs = np.broadcast_to(
                xs[:, None, None] + off[None, :, None], (steps, t, t)).ravel()
            ys = np.broadcast_to(
                ys[:, None, None] + off[None, None, :], (steps, t, t)).ravel()
        keep = (xs >= 0) & (xs < self.width) & (ys >= 0) & (ys < self.height)
        self.pixels[ys[keep], xs[keep]] = (color.r, color.g, color.b)

    def text_extent(self, text: str, size: float) -> tuple[int, int]:
        """(width, height) in pixels of a string at the given em size."""
        scale = max(1, int(round(size / font5x7.GLYPH_HEIGHT)))
        bitmap = font5x7.text_bitmap(text)
        return bitmap.shape[1] * scale, bitmap.shape[0] * scale

    def draw_text(
        self,
        x: float,
        y: float,
        text: str,
        color: Color,
        size: float = 12.0,
        halign: HAlign = HAlign.LEFT,
        valign: VAlign = VAlign.BOTTOM,
        rotated: bool = False,
    ) -> None:
        """Blit a scaled bitmap string anchored at (x, y)."""
        if not text:
            return
        scale = max(1, int(round(size / font5x7.GLYPH_HEIGHT)))
        bitmap = font5x7.text_bitmap(text)
        if rotated:
            bitmap = np.rot90(bitmap)  # 90 deg CCW: reads bottom-to-top
        if scale > 1:
            bitmap = np.kron(bitmap, np.ones((scale, scale), dtype=bool))
        bh, bw = bitmap.shape
        if halign is HAlign.CENTER:
            x -= bw / 2
        elif halign is HAlign.RIGHT:
            x -= bw
        if valign is VAlign.MIDDLE:
            y -= bh / 2
        elif valign is VAlign.BOTTOM:
            y -= bh
        ix, iy = int(round(x)), int(round(y))
        # Clip the bitmap to the image.
        sx0, sy0 = max(0, -ix), max(0, -iy)
        dx0, dy0 = max(0, ix), max(0, iy)
        sx1 = bw - max(0, ix + bw - self.width)
        sy1 = bh - max(0, iy + bh - self.height)
        if sx1 <= sx0 or sy1 <= sy0:
            return
        region = bitmap[sy0:sy1, sx0:sx1]
        target = self.pixels[dy0:dy0 + region.shape[0], dx0:dx0 + region.shape[1]]
        target[region] = (color.r, color.g, color.b)

    # ------------------------------------------------------------- queries
    def pixel(self, x: int, y: int) -> Color:
        r, g, b = self.pixels[y, x]
        return Color(int(r), int(g), int(b))

    def count_color(self, color: Color) -> int:
        """Number of pixels exactly matching ``color`` (test helper)."""
        match = np.all(self.pixels == np.array([color.r, color.g, color.b]), axis=-1)
        return int(match.sum())


# ------------------------------------------------------------ batched rects

#: below this run length the per-item path is cheaper than setting up the
#: array arithmetic.
_BATCH_MIN = 8

#: a run at least this fraction of the canvas pixel count (in piece count)
#: pays for the whole-canvas index-compositing pass.
_SCRATCH_DIVISOR = 64


def _rect_pieces(img: RasterImage, rects: list[Rect]):
    """Vectorized expansion of a rect run into the fills the scalar path makes.

    Each rect becomes up to five pieces, in painting order: its fill, then
    the top, bottom, left and right edges :meth:`RasterImage.stroke_rect`
    paints as integer rects.  A filled, stroked rect whose snapped box
    ``B`` is at least ``t`` (the snapped stroke width) on each side and
    meets the canvas paints exactly ``B`` in the stroke colour with its
    interior ``B`` shrunk by ``t`` in the fill colour: the four edges then
    cover ``B`` minus that interior and the fill equals ``B``.  Such rects
    take two pieces instead of five; every other rect (thinner than its
    stroke, unfilled, or off the canvas, where the fill's sub-pixel bump
    can differ from ``B``) keeps the five.

    Every piece then goes through the same normalize / half-up snap /
    clip / sub-pixel-bump rules as :meth:`RasterImage.fill_rect`.
    Returns integer ``(x0, y0, x1, y1)`` bound arrays of the visible
    pieces plus ``(inv, palette)`` — per-piece indices into the run's
    distinct-color palette.
    """
    n = len(rects)
    xs = np.fromiter((r.x for r in rects), np.float64, count=n)
    ys = np.fromiter((r.y for r in rects), np.float64, count=n)
    ws = np.fromiter((r.w for r in rects), np.float64, count=n)
    hs = np.fromiter((r.h for r in rects), np.float64, count=n)
    neg = ws < 0
    if neg.any():
        xs = np.where(neg, xs + ws, xs)
        ws = np.abs(ws)
    neg = hs < 0
    if neg.any():
        ys = np.where(neg, ys + hs, ys)
        hs = np.abs(hs)

    # Distinct colors -> palette indices, keyed by object identity (layouts
    # reuse a handful of Color instances; two equal colors behind different
    # objects merely get two palette rows, which is harmless).  None gets a
    # row too; the pieces that would use it are masked out below.
    ids = np.fromiter(
        itertools.chain((id(r.fill) for r in rects),
                        (id(r.stroke) for r in rects)), np.int64, count=2 * n)
    _, first, inv = np.unique(ids, return_index=True, return_inverse=True)
    rows = []
    for i in first.tolist():
        c = rects[i].fill if i < n else rects[i - n].stroke
        rows.append((0, 0, 0) if c is None else (c.r, c.g, c.b))
    palette = np.array(rows, np.uint8)
    fill_ci, stroke_ci = inv[:n], inv[n:]
    has_fill, has_stroke = ids[:n] != id(None), ids[n:] != id(None)

    if has_stroke.any():
        sws = np.fromiter((r.stroke_width for r in rects), np.float64, count=n)
        t = np.maximum(np.floor(sws + 0.5), 1.0)
        sx0, sy0 = np.floor(xs + 0.5), np.floor(ys + 0.5)
        sx1, sy1 = np.floor(xs + ws + 0.5), np.floor(ys + hs + 0.5)
        bw, bh = sx1 - sx0, sy1 - sy0
        ring = (has_fill & has_stroke & (bw >= t) & (bh >= t)
                & (sx1 > 0) & (sy1 > 0) & (sx0 < img.width) & (sy0 < img.height))
        edges = has_stroke & ~ring
        # slot 0: the fill (or the whole box in the stroke colour);
        # slot 1: the top edge (or the interior in the fill colour);
        # slots 2-4: the bottom, left and right edges.
        xs = np.stack([np.where(ring, sx0, xs), np.where(ring, sx0 + t, sx0),
                       sx0, sx0, sx1 - t], axis=1).ravel()
        ys = np.stack([np.where(ring, sy0, ys), np.where(ring, sy0 + t, sy0),
                       sy1 - t, sy0, sy0], axis=1).ravel()
        ws = np.stack([np.where(ring, bw, ws), np.where(ring, bw - 2 * t, bw),
                       bw, t, t], axis=1).ravel()
        hs = np.stack([np.where(ring, bh, hs), np.where(ring, bh - 2 * t, t),
                       t, bh, bh], axis=1).ravel()
        ci = np.stack([np.where(ring, stroke_ci, fill_ci),
                       np.where(ring, fill_ci, stroke_ci),
                       stroke_ci, stroke_ci, stroke_ci], axis=1).ravel()
        keep = np.stack([has_fill,
                         np.where(ring, (bw > 2 * t) & (bh > 2 * t), edges),
                         edges, edges, edges], axis=1).ravel()
    else:
        ci, keep = fill_ci, has_fill

    iw, ih = img.width, img.height
    visible = keep & (xs + ws > 0) & (ys + hs > 0) & (xs < iw) & (ys < ih)
    x0 = np.maximum(np.floor(xs + 0.5), 0).astype(np.int64)
    y0 = np.maximum(np.floor(ys + 0.5), 0).astype(np.int64)
    x1 = np.minimum(np.floor(xs + ws + 0.5), iw).astype(np.int64)
    y1 = np.minimum(np.floor(ys + hs + 0.5), ih).astype(np.int64)
    bump = (ws > 0) & (x1 <= x0) & (x0 < iw)
    x1[bump] = x0[bump] + 1
    bump = (hs > 0) & (y1 <= y0) & (y0 < ih)
    y1[bump] = y0[bump] + 1
    visible &= (x1 > x0) & (y1 > y0)
    idx = np.flatnonzero(visible)
    return x0[idx], y0[idx], x1[idx], y1[idx], ci[idx], palette


def _paint_scratch(img: RasterImage, x0, y0, x1, y1, inv, palette) -> None:
    """Whole-canvas index compositing for big runs.

    Piece palette indices are painted into a scalar int32 scratch canvas
    (a scalar slice assignment is several times cheaper than broadcasting
    an RGB triple), then resolved to pixels in one gather + masked copy.
    The last index written to a pixel wins, so z-order is exact even for
    overlapping runs.
    """
    scratch = np.zeros((img.height, img.width), np.int32)
    # Shift indices by one so 0 can mean "not painted by this run".
    for b0, b1, a0, a1, ci in zip(y0.tolist(), y1.tolist(),
                                  x0.tolist(), x1.tolist(),
                                  (inv + 1).tolist()):
        scratch[b0:b1, a0:a1] = ci
    palette_ext = np.empty((len(palette) + 1, 3), np.uint8)
    palette_ext[1:] = palette
    np.copyto(img.pixels, palette_ext[scratch],
              where=(scratch != 0)[:, :, None])


def _paint_ordered(img: RasterImage, x0, y0, x1, y1, inv, palette) -> None:
    """In-order paint over precomputed integer bounds (exact z-order)."""
    px = img.pixels
    rgbs = list(palette)
    for b0, b1, a0, a1, ci in zip(y0.tolist(), y1.tolist(),
                                  x0.tolist(), x1.tolist(), inv.tolist()):
        px[b0:b1, a0:a1] = rgbs[ci]


def _paint_rects(img: RasterImage, rects: list[Rect]) -> None:
    """Paint a run of rects, batched when the run is long enough."""
    if len(rects) < _BATCH_MIN:
        for r in rects:
            if r.fill is not None:
                img.fill_rect(r.x, r.y, r.w, r.h, r.fill)
            if r.stroke is not None:
                img.stroke_rect(r.x, r.y, r.w, r.h, r.stroke, r.stroke_width)
        return
    x0, y0, x1, y1, inv, palette = _rect_pieces(img, rects)
    if len(inv) == 0:
        return
    if len(inv) >= max(_BATCH_MIN, img.width * img.height // _SCRATCH_DIVISOR):
        _paint_scratch(img, x0, y0, x1, y1, inv, palette)
    else:
        _paint_ordered(img, x0, y0, x1, y1, inv, palette)


def rasterize(drawing: Drawing) -> RasterImage:
    """Render a :class:`Drawing` into a raster image.

    Output is pixel-identical to dispatching every primitive one by one in
    z-order; consecutive rects are merely painted through the batched path
    above.
    """
    img = RasterImage(drawing.width, drawing.height, drawing.background)
    with _obs.span("render.rasterize", primitives=len(drawing)):
        batch: list[Rect] = []
        for item in drawing:
            if isinstance(item, Rect):
                if item.fill is not None or item.stroke is not None:
                    batch.append(item)
                continue
            if batch:
                _paint_rects(img, batch)
                batch = []
            if isinstance(item, Line):
                img.draw_line(item.x0, item.y0, item.x1, item.y1, item.color,
                              item.width)
            elif isinstance(item, Text):
                img.draw_text(item.x, item.y, item.text, item.color, item.size,
                              item.halign, item.valign, item.rotated)
            else:  # pragma: no cover - new primitive types must be handled here
                raise TypeError(f"unknown primitive {type(item).__name__}")
        if batch:
            _paint_rects(img, batch)
    return img
