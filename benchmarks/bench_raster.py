"""Raster/PNG hot path — rasterize, encode, decode at 1k/10k/100k rects.

The single-core raster pipeline is the last leg of every PNG/BMP/PPM
render: ``rasterize()`` turns the primitive list into an (h, w, 3) uint8
canvas and ``encode_png()`` filters + deflates it.  This benchmark draws
Gantt-shaped rect fields (dense rows of small task rects, the regime of
Scully-Allison & Isaacs' 100k-task traces) on a 2000x1200 canvas at three
scales and times each stage separately, so ``BENCH_raster.json`` holds a
committed trajectory for the regression gate.

Those fields are fill-only, but every task rect ``layout_schedule`` emits
is stroked.  So the benchmark also rasterizes the drawing the real
pipeline hands the rasterizer at 100k tasks: ``layout_schedule`` of the
``bench_lod_scaling`` cluster trace at the default 900x480 canvas, LOD
off — ~1000 host rows under 1 px each, rect widths from sub-pixel to ~25
px, every rect stroked — and reports its rasterize time as a ratio to
the 100k fill-only field.

Three invariants are asserted on every run:

* ``decode(encode(img))`` is pixel-identical — the encoder's output must
  keep round-tripping through our own decoder, at every scale;
* batched rasterization is pixel-identical to the naive per-primitive
  z-order walk, on the 1k fill-only field and on the 100k stroked
  layout;
* on that stroked layout the batched path is at least
  ``STROKED_MIN_SPEEDUP`` times faster than the naive walk timed in the
  same run (~6x on a 2-core x86 host).  Both sides run on the same
  machine, so the bound holds on slow and fast hosts alike.

The committed baseline was measured *after* the vectorization PR; the
pre-change numbers for the 100k drawing were rasterize 0.77 s + encode
0.17 s = 0.94 s on the machine that recorded them.  Absolute times are
host-dependent, so they are only reported; drift is caught by the
regression gate comparing min-of-k timings against the committed
baseline.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from conftest import persist, report

from bench_lod_scaling import synthetic_trace

from repro.core.colormap import Color
from repro.obs.bench import time_min_of_k
from repro.render.geometry import Drawing, Line, Rect, Text
from repro.render.layout import layout_schedule
from repro.render.png_codec import decode_png, encode_png
from repro.render.raster import RasterImage, rasterize

WIDTH, HEIGHT = 2000, 1200
SIZES = (1_000, 10_000, 100_000)

#: pre-change single-core wall (same drawing generator, see module docstring):
#: {size: rasterize+encode seconds} measured at the commit before the
#: vectorization landed.  Kept as a reference metricless constant — the
#: live regression gate compares against benchmarks/baselines/.
PRE_CHANGE_RE_S = {1_000: 0.224, 10_000: 0.254, 100_000: 0.937}

#: batched rasterize of the 100k stroked layout vs. the naive walk
STROKED_MIN_SPEEDUP = 3.0


def rect_field(n: int, width: int = WIDTH, height: int = HEIGHT,
               seed: int = 1) -> Drawing:
    """A Gantt-shaped drawing: n overlapping task rects in dense rows."""
    rng = np.random.default_rng(seed)
    d = Drawing(width, height)
    colors = [Color(int(c), int(c) // 2, 255 - int(c))
              for c in rng.integers(0, 256, 16)]
    xs = rng.uniform(0, width - 40, n)
    ys = rng.uniform(0, height - 20, n)
    ws = rng.uniform(2, 40, n)
    hs = rng.uniform(2, 18, n)
    for i in range(n):
        d.add(Rect(float(xs[i]), float(ys[i]), float(ws[i]), float(hs[i]),
                   fill=colors[i % 16]))
    return d


def stroked_layout(n: int) -> Drawing:
    """What the PNG pipeline rasterizes for an n-task trace, LOD off."""
    return layout_schedule(synthetic_trace(n), lod="off")


def reference_rasterize(drawing: Drawing) -> RasterImage:
    """Naive per-primitive walk — the semantics batching must reproduce."""
    img = RasterImage(drawing.width, drawing.height, drawing.background)
    for item in drawing:
        if isinstance(item, Rect):
            if item.fill is not None:
                img.fill_rect(item.x, item.y, item.w, item.h, item.fill)
            if item.stroke is not None:
                img.stroke_rect(item.x, item.y, item.w, item.h, item.stroke,
                                item.stroke_width)
        elif isinstance(item, Line):
            img.draw_line(item.x0, item.y0, item.x1, item.y1, item.color,
                          item.width)
        elif isinstance(item, Text):
            img.draw_text(item.x, item.y, item.text, item.color, item.size,
                          item.halign, item.valign, item.rotated)
    return img


def test_raster_pipeline(benchmark):
    drawings = {n: rect_field(n) for n in SIZES}

    # Correctness first: batching is pixel-exact vs. the per-item walk.
    small = drawings[SIZES[0]]
    assert np.array_equal(rasterize(small).pixels,
                          reference_rasterize(small).pixels)

    rows = []
    stage_runs: dict[int, dict[str, list[float]]] = {}
    for n, d in drawings.items():
        raster_runs = time_min_of_k(lambda d=d: rasterize(d))
        img = rasterize(d)
        encode_runs = time_min_of_k(lambda img=img: encode_png(img.pixels))
        png = encode_png(img.pixels)
        decode_runs = time_min_of_k(lambda png=png: decode_png(png))

        # The encoder's bytes must keep round-tripping through the decoder
        # pixel-for-pixel — CI fails here if either side drifts.
        assert np.array_equal(decode_png(png), img.pixels), \
            f"encode/decode round-trip broke at {n} rects"

        stage_runs[n] = {"rasterize": raster_runs, "encode": encode_runs,
                         "decode": decode_runs}
        t_re = min(raster_runs) + min(encode_runs)
        rows.append((f"{n} rects rasterize+encode",
                     f"pre-change {PRE_CHANGE_RE_S[n] * 1e3:.0f} ms",
                     f"{t_re * 1e3:.0f} ms ({PRE_CHANGE_RE_S[n] / t_re:.1f}x)"))
        rows.append((f"{n} rects decode", "-",
                     f"{min(decode_runs) * 1e3:.1f} ms"))

    # The pipeline's own drawing: every task rect stroked.
    stroked = stroked_layout(SIZES[-1])
    t0 = perf_counter()
    naive = reference_rasterize(stroked).pixels
    t_naive = perf_counter() - t0
    assert np.array_equal(rasterize(stroked).pixels, naive)
    stroked_runs = time_min_of_k(lambda: rasterize(stroked))
    ratio = min(stroked_runs) / min(stage_runs[SIZES[-1]]["rasterize"])
    speedup = t_naive / min(stroked_runs)
    rows.append((f"{SIZES[-1]} stroked layout rasterize (900x480)",
                 "<= 2x fill-only",
                 f"{min(stroked_runs) * 1e3:.0f} ms ({ratio:.2f}x fill-only)"))
    rows.append((f"{SIZES[-1]} stroked layout vs. naive walk",
                 f">= {STROKED_MIN_SPEEDUP:g}x",
                 f"{t_naive * 1e3:.0f} ms naive ({speedup:.1f}x)"))

    report("Raster/PNG hot path (2000x1200)", rows)
    persist("raster", f"stroked_layout_{SIZES[-1]}",
            timings_s={"rasterize": stroked_runs},
            metrics={"rects": len(stroked.rects),
                     "stroked_rects": sum(1 for r in stroked.rects
                                          if r.stroke is not None)})
    for n in SIZES:
        persist("raster", f"pipeline_{n}", timings_s=stage_runs[n])

    # Deterministic quality metrics: the painted geometry must not drift.
    big_img = rasterize(drawings[SIZES[-1]])
    background = int(np.all(big_img.pixels == 255, axis=-1).sum())
    persist("raster", "quality",
            metrics={"painted_px_100k": WIDTH * HEIGHT - background,
                     "canvas_px": WIDTH * HEIGHT})

    # Speed, relative to this run's own naive walk so host speed cancels.
    assert speedup >= STROKED_MIN_SPEEDUP, \
        f"batched stroked rasterize only {speedup:.1f}x the naive walk"

    result = benchmark.pedantic(
        lambda: encode_png(rasterize(drawings[SIZES[-1]]).pixels),
        rounds=3, iterations=1)
    assert result[:8] == b"\x89PNG\r\n\x1a\n"
