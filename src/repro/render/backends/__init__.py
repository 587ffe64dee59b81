"""Output backends: SVG, PNG, PPM, BMP, PDF, EPS, ASCII."""

from repro.render.backends.ascii_art import render_ascii
from repro.render.backends.bmp import render_bmp
from repro.render.backends.eps import render_eps
from repro.render.backends.pdf import render_pdf
from repro.render.backends.png import render_png
from repro.render.backends.ppm import render_ppm
from repro.render.backends.svg import render_svg

__all__ = [
    "render_ascii",
    "render_bmp",
    "render_eps",
    "render_pdf",
    "render_png",
    "render_ppm",
    "render_svg",
]
