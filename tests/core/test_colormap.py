"""Tests for colors and color maps."""

from __future__ import annotations

import pytest

from repro.core.colormap import (
    PALETTE,
    Color,
    ColorMap,
    TaskStyle,
    auto_colormap,
    default_colormap,
    grayscale_colormap,
)
from repro.core.model import Schedule, Task, Configuration
from repro.errors import ColorError


class TestColor:
    def test_hex_roundtrip(self):
        c = Color.from_hex("F10000")
        assert (c.r, c.g, c.b) == (241, 0, 0)
        assert c.hex() == "F10000"
        assert c.css() == "#F10000"

    def test_hash_prefix_and_short_form(self):
        assert Color.from_hex("#0000FF") == Color(0, 0, 255)
        assert Color.from_hex("fff") == Color(255, 255, 255)

    @pytest.mark.parametrize("bad", ["12345", "GGGGGG", "", "#12"])
    def test_bad_hex_rejected(self, bad):
        with pytest.raises(ColorError):
            Color.from_hex(bad)

    def test_channel_range_enforced(self):
        with pytest.raises(ColorError):
            Color(256, 0, 0)
        with pytest.raises(ColorError):
            Color(0, -1, 0)

    def test_luminance_ordering(self):
        assert Color(0, 0, 0).luminance == 0.0
        assert Color(255, 255, 255).luminance == pytest.approx(1.0)
        assert Color(0, 0, 255).luminance < Color(0, 255, 0).luminance

    def test_contrast_ratio_range(self):
        black, white = Color(0, 0, 0), Color(255, 255, 255)
        assert black.contrast_ratio(white) == pytest.approx(21.0)
        assert black.contrast_ratio(black) == pytest.approx(1.0)
        # symmetric
        assert white.contrast_ratio(black) == black.contrast_ratio(white)

    def test_best_label_color(self):
        assert Color.from_hex("0000FF").best_label_color() == Color(255, 255, 255)
        assert Color.from_hex("FFFF00").best_label_color() == Color(0, 0, 0)

    def test_to_gray_is_gray(self):
        g = Color.from_hex("12A4F0").to_gray()
        assert g.r == g.g == g.b

    def test_lighten_darken(self):
        c = Color(100, 100, 100)
        assert c.lightened(1.0) == Color(255, 255, 255)
        assert c.darkened(1.0) == Color(0, 0, 0)
        assert c.lightened(0.0) == c

    def test_from_hsv(self):
        assert Color.from_hsv(0.0, 1.0, 1.0) == Color(255, 0, 0)
        assert Color.from_hsv(1.0 / 3.0, 1.0, 1.0) == Color(0, 255, 0)


class TestColorMap:
    def test_default_map_paper_colors(self):
        cmap = default_colormap()
        assert cmap.style_for_type("computation").bg == Color.from_hex("0000FF")
        assert cmap.style_for_type("transfer").bg == Color.from_hex("F10000")
        comp = cmap.composite_style(["computation", "transfer"])
        assert comp is not None and comp.bg == Color.from_hex("FF6200")

    def test_config_entries(self):
        cmap = default_colormap()
        assert cmap.config["font_size_label"] == "13"

    def test_auto_assignment_is_stable(self):
        cmap = ColorMap("t")
        first = cmap.style_for_type("mystery")
        again = cmap.style_for_type("mystery")
        assert first == again
        other = cmap.style_for_type("other")
        assert other != first

    def test_set_style_accepts_hex_strings(self):
        cmap = ColorMap("t")
        cmap.set_style("x", "112233", "FFFFFF")
        s = cmap.style_for_type("x")
        assert s.bg == Color.from_hex("112233")
        assert s.label_color() == Color(255, 255, 255)

    def test_label_color_fallback_contrast(self):
        style = TaskStyle(Color.from_hex("000080"))
        assert style.label_color() == Color(255, 255, 255)

    def test_composite_rule_resolution(self):
        cmap = default_colormap()
        task = Task("a+b", "composite", 0, 1, [Configuration(0, [(0, 1)])],
                    {"member_types": "computation,transfer"})
        assert cmap.style_for_task(task).bg == Color.from_hex("FF6200")

    def test_composite_without_rule_gets_distinct_style(self):
        cmap = ColorMap("bare")
        task = Task("a+b", "composite", 0, 1, [Configuration(0, [(0, 1)])],
                    {"member_types": "x,y"})
        style = cmap.style_for_task(task)
        assert style.bg != cmap.fallback.bg

    def test_composite_fallback_style_is_one_object(self):
        """Renderers memoize paint by style identity, so every unmatched
        composite must resolve to the same style object."""
        cmap = ColorMap("bare")
        a = Task("a+b", "composite", 0, 1, [Configuration(0, [(0, 1)])],
                 {"member_types": "x,y"})
        b = Task("c+d", "composite", 1, 2, [Configuration(0, [(0, 1)])],
                 {"member_types": "u,v"})
        assert cmap.style_for_task(a) is cmap.style_for_task(b)

    def test_grayscale_conversion(self):
        gray = grayscale_colormap()
        for task_type in gray.task_types:
            bg = gray.style_for_type(task_type).bg
            assert bg.r == bg.g == bg.b
        for rule in gray.composite_rules:
            bg = rule.style.bg
            assert bg.r == bg.g == bg.b

    def test_merged_with_overrides(self):
        base = default_colormap()
        over = ColorMap("over")
        over.set_style("computation", "00FF00")
        merged = base.merged_with(over)
        assert merged.style_for_type("computation").bg == Color(0, 255, 0)
        assert merged.style_for_type("transfer").bg == Color.from_hex("F10000")


class TestAutoColormap:
    def _schedule(self):
        s = Schedule()
        s.new_cluster(0, 4)
        s.new_task(1, "alpha", 0, 1, cluster=0, host_start=0, host_nb=1,
                   meta={"app": "0"})
        s.new_task(2, "beta", 0, 1, cluster=0, host_start=1, host_nb=1,
                   meta={"app": "1"})
        s.new_task(3, "alpha", 1, 2, cluster=0, host_start=2, host_nb=1,
                   meta={"app": "0"})
        return s

    def test_per_type_colors_distinct(self):
        cmap = auto_colormap(self._schedule())
        a = cmap.style_for_type("alpha").bg
        b = cmap.style_for_type("beta").bg
        assert a != b
        assert cmap.has_style("alpha") and cmap.has_style("beta")

    def test_per_meta_key(self):
        cmap = auto_colormap(self._schedule(), key="app")
        assert cmap.has_style("app:0") and cmap.has_style("app:1")

    def test_deterministic(self):
        c1 = auto_colormap(self._schedule())
        c2 = auto_colormap(self._schedule())
        assert c1.style_for_type("alpha") == c2.style_for_type("alpha")

    def test_palette_has_unique_entries(self):
        assert len(set(PALETTE)) == len(PALETTE)
