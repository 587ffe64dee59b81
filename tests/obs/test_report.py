"""Tests for the dog-fooded run-report dashboard (repro.obs.report)."""

from __future__ import annotations

import pytest

from repro.errors import RenderError
from repro.obs.report import build_report, export_report, report_from_runlog
from repro.obs.runlog import RunLog, RunRecord
from repro.render.geometry import Drawing, Rect, Text


def records(n=3, *, makespan=10.0) -> list[RunRecord]:
    out = []
    for i in range(n):
        out.append(RunRecord(
            suite="cli", name="render",
            stages={"render.layout": {"calls": 1, "total_s": 0.1 + i * 0.01},
                    "render.encode": {"calls": 1, "total_s": 0.05}},
            timings_s={"wall": [0.2 + i * 0.01]},
            metrics={"makespan": makespan, "utilization": 0.8},
        ))
    return out


class TestBuildReport:
    def test_empty_records_rejected(self):
        with pytest.raises(RenderError, match="empty run log"):
            build_report([])

    def test_records_without_data_rejected(self):
        bare = [RunRecord(suite="s", name="n") for _ in range(2)]
        with pytest.raises(RenderError, match="no.*to plot|carry no"):
            build_report(bare)

    def test_returns_drawing_with_panels(self):
        drawing = build_report(records())
        assert isinstance(drawing, Drawing)
        texts = [p.text for p in drawing if isinstance(p, Text)]
        assert any("stage / benchmark timings" in t for t in texts)
        assert any(t == "makespan" for t in texts)
        assert any("3 run(s)" in t for t in texts)
        # legend entries name the plotted series
        assert "render.layout" in texts and "wall" in texts

    def test_marker_refs_identify_points(self):
        drawing = build_report(records(2))
        refs = [p.ref for p in drawing
                if isinstance(p, Rect) and p.ref]
        assert any(r.startswith("report:makespan:makespan:") for r in refs)

    def test_single_run_still_renders(self):
        # one record: no line segments, but markers keep it visible
        drawing = build_report(records(1))
        assert isinstance(drawing, Drawing)

    def test_quality_panels_only_when_metrics_present(self):
        timing_only = records()
        for r in timing_only:
            r.metrics = {}
        texts = [p.text for p in build_report(timing_only)
                 if isinstance(p, Text)]
        assert not any(t == "makespan" for t in texts)

    def test_too_small_panel_rejected(self):
        with pytest.raises(RenderError, match="too small"):
            build_report(records(), width=40)


class TestExportReport:
    @pytest.mark.parametrize("fmt", ["svg", "png"])
    def test_renders_through_existing_backends(self, tmp_path, fmt):
        out = export_report(records(), tmp_path / f"dash.{fmt}")
        data = out.read_bytes()
        assert len(data) > 100
        if fmt == "svg":
            assert b"<svg" in data and b"makespan" in data

    def test_html_is_refused(self, tmp_path):
        # a dashboard is a drawing; html output embeds a schedule
        with pytest.raises(RenderError, match="write a drawing as .svg"):
            export_report(records(), tmp_path / "dash.html")
        assert not (tmp_path / "dash.html").exists()


class TestReportFromRunlog:
    def make_log(self, tmp_path) -> RunLog:
        log = RunLog(tmp_path / "runs.jsonl")
        for r in records(4):
            log.append(r)
        for r in records(2):
            r.suite = "bench"
            log.append(r)
        return log

    def test_dashboard_from_persisted_runs(self, tmp_path):
        log = self.make_log(tmp_path)
        out, n = report_from_runlog(log.path, tmp_path / "dash.svg")
        assert n == 6 and out.read_bytes().startswith(b"<?xml")

    def test_suite_filter_and_last(self, tmp_path):
        log = self.make_log(tmp_path)
        _, n = report_from_runlog(log.path, tmp_path / "dash.svg",
                                  suite="cli", last=3)
        assert n == 3

    def test_no_matching_records_rejected(self, tmp_path):
        log = self.make_log(tmp_path)
        with pytest.raises(RenderError, match="no matching run records"):
            report_from_runlog(log.path, tmp_path / "dash.svg", suite="nope")
