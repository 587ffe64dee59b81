"""Tests for the extension features: utilization-profile charts, schedule
comparison/stacking, and the interactive HTML backend."""

from __future__ import annotations

import pytest

from repro.core.model import Schedule
from repro.errors import RenderError
from repro.render.compose import compare_schedules, stack_drawings
from repro.render.layout import layout_schedule
from repro.render.profile import export_profile, layout_profile
from repro.render.api import RenderRequest, render_drawing, render_request_bytes


class TestProfile:
    def test_profile_drawing_valid(self, simple_schedule):
        drawing = layout_profile(simple_schedule)
        assert len(drawing.rects) > 0
        assert any(t.text for t in drawing.texts)

    def test_profile_per_type(self, simple_schedule):
        drawing = layout_profile(simple_schedule,
                                 types=["computation", "transfer"])
        # legend entries for both types
        texts = [t.text for t in drawing.texts]
        assert "computation" in texts and "transfer" in texts

    def test_profile_heights_scale_with_counts(self):
        s = Schedule()
        s.new_cluster(0, 4)
        s.new_task(1, "computation", 0.0, 1.0, cluster=0, host_start=0, host_nb=4)
        s.new_task(2, "computation", 1.0, 2.0, cluster=0, host_start=0, host_nb=2)
        drawing = layout_profile(s, width=400, height=200)
        fills = [r for r in drawing.rects if r.fill is not None]
        tallest = max(r.h for r in fills)
        shortest = min(r.h for r in fills)
        assert tallest == pytest.approx(2 * shortest, rel=1e-6)

    def test_profile_export(self, tmp_path, simple_schedule):
        path = export_profile(simple_schedule, tmp_path / "prof.png",
                              width=400, height=200)
        assert path.read_bytes().startswith(b"\x89PNG")

    def test_profile_too_small_rejected(self, simple_schedule):
        with pytest.raises(RenderError):
            layout_profile(simple_schedule, width=40, height=20)

    def test_profile_empty_schedule(self):
        s = Schedule()
        s.new_cluster(0, 2)
        drawing = layout_profile(s)
        assert drawing.width > 0  # renders an empty chart without crashing


class TestCompose:
    def test_stack_vertical_dimensions(self, simple_schedule):
        d1 = layout_schedule(simple_schedule)
        d2 = layout_schedule(simple_schedule)
        stacked = stack_drawings([d1, d2], gap=10)
        assert stacked.width == d1.width
        assert stacked.height == d1.height + d2.height + 10

    def test_stack_horizontal_dimensions(self, simple_schedule):
        d = layout_schedule(simple_schedule)
        side = stack_drawings([d, d], gap=6, horizontal=True)
        assert side.width == 2 * d.width + 6
        assert side.height == d.height

    def test_stack_preserves_refs_shifted(self, simple_schedule):
        d = layout_schedule(simple_schedule)
        stacked = stack_drawings([d, d], gap=0)
        rects = stacked.rects_for("task:1")
        assert len(rects) == 2
        assert rects[0].y != rects[1].y
        assert rects[0].x == rects[1].x

    def test_stack_empty_rejected(self):
        with pytest.raises(RenderError):
            stack_drawings([])

    def test_compare_shared_axis_scales_makespans(self):
        short = Schedule()
        short.new_cluster(0, 2)
        short.new_task(1, "computation", 0.0, 1.0, cluster=0, host_start=0,
                       host_nb=2)
        long = Schedule()
        long.new_cluster(0, 2)
        long.new_task(1, "computation", 0.0, 4.0, cluster=0, host_start=0,
                      host_nb=2)
        drawing = compare_schedules([short, long], ["short", "long"],
                                    width=600, panel_height=200)
        rects = drawing.rects_for("task:1")
        assert len(rects) == 2
        widths = sorted(r.w for r in rects)
        assert widths[1] / widths[0] == pytest.approx(4.0, rel=1e-6)

    def test_compare_titles_rendered(self, simple_schedule):
        drawing = compare_schedules([simple_schedule, simple_schedule],
                                    ["left", "right"])
        texts = [t.text for t in drawing.texts]
        assert "left" in texts and "right" in texts

    def test_compare_title_count_mismatch(self, simple_schedule):
        with pytest.raises(RenderError, match="titles"):
            compare_schedules([simple_schedule], ["a", "b"])

    def test_compare_renders_to_png(self, simple_schedule):
        drawing = compare_schedules([simple_schedule, simple_schedule])
        data = render_drawing(drawing, "png")
        assert data.startswith(b"\x89PNG")


class TestHtml:
    def test_structure(self, simple_schedule):
        # request-level html is the data-driven interactive page: it embeds
        # the schedule as JSON plus the canvas viewer, not baked SVG
        html = render_request_bytes(
            RenderRequest(output_format="html"), simple_schedule).decode()
        assert html.startswith("<!DOCTYPE html>")
        assert '<script type="application/json" id="jedule-data">' in html
        assert "<canvas" in html
        assert "vpZoom" in html  # embedded viewport algebra

    def test_drawing_to_html_is_refused(self, simple_schedule):
        # html embeds a schedule; a bare drawing has none to embed
        with pytest.raises(RenderError, match="write a drawing as .svg"):
            render_drawing(layout_schedule(simple_schedule), "html")

    def test_registered_as_output_format(self, tmp_path, simple_schedule):
        from repro.render.api import export_schedule

        path = export_schedule(simple_schedule, tmp_path / "view.html")
        assert path.read_bytes().startswith(b"<!DOCTYPE html>")


class TestCliExtensions:
    def test_compare_command(self, tmp_path, simple_schedule):
        from repro.cli.main import main
        from repro.io import jedule_xml

        a, b = tmp_path / "a.jed", tmp_path / "b.jed"
        jedule_xml.dump(simple_schedule, a)
        jedule_xml.dump(simple_schedule, b)
        out = tmp_path / "cmp.png"
        assert main(["compare", str(a), str(b), "-o", str(out)]) == 0
        assert out.read_bytes().startswith(b"\x89PNG")

    def test_profile_command(self, tmp_path, simple_schedule):
        from repro.cli.main import main
        from repro.io import jedule_xml

        src = tmp_path / "s.jed"
        jedule_xml.dump(simple_schedule, src)
        out = tmp_path / "prof.svg"
        assert main(["profile", str(src), "-o", str(out),
                     "--types", "computation", "transfer"]) == 0
        assert out.read_bytes().startswith(b"<?xml")
