"""End-to-end tests of the data-driven interactive HTML export.

No browser needed: every test parses the JSON payload back out of the
emitted page and checks it — counts across the LOD threshold, escaping of
hostile strings, schema validity — and the embedded JavaScript viewport
algebra is verified against :class:`repro.core.viewport.Viewport` by
table-driven evaluation of literal Python transcriptions of the JS
formulas (whose source text is asserted to be present in the page).
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess

import pytest

from repro.core.model import Schedule
from repro.core.viewport import Viewport
from repro.errors import RenderError
from repro.render.api import RenderRequest, render_request_bytes
from repro.render.html_payload import (
    build_payload,
    build_tiers,
    payload_json,
    validate_payload,
)

_DATA_RE = re.compile(
    r'<script type="application/json" id="jedule-data">(.*?)</script>',
    re.S)


def _page(schedule: Schedule, **options) -> str:
    request = RenderRequest(output_format="html", **options)
    return render_request_bytes(request, schedule).decode("utf-8")


def _payload_of(page: str) -> dict:
    m = _DATA_RE.search(page)
    assert m, "no embedded jedule-data block in the page"
    return validate_payload(json.loads(m.group(1)))


def _schedule(n: int, hosts: int = 32) -> Schedule:
    s = Schedule(meta={"algorithm": "test"})
    s.new_cluster("c0", hosts)
    for i in range(n):
        start = float((i * 13) % 400)
        s.new_task(f"t{i}", ("compute", "transfer")[i % 2], start, start + 25.0,
                   cluster="c0", host_start=(i * 5) % (hosts - 2), host_nb=2,
                   meta={"user": str(i % 3)})
    return s


class TestEmbeddedPayload:
    def test_small_schedule_embeds_raw_tasks(self):
        payload = _payload_of(_page(_schedule(50)))
        assert payload["task_count"] == 50
        assert len(payload["tasks"]) == 50
        assert payload["lod"] is None  # auto, below threshold

    def test_above_threshold_embeds_lod_not_tasks(self):
        payload = _payload_of(_page(_schedule(30), html_threshold=10))
        assert payload["task_count"] == 30
        assert payload["tasks"] is None
        assert payload["lod"] is not None and payload["lod"]["tiers"]

    def test_tier_count_honors_knob(self):
        payload = _payload_of(
            _page(_schedule(30), html_threshold=10, html_tiers=2))
        assert len(payload["lod"]["tiers"]) == 2
        nxs = [t["nx"] for t in payload["lod"]["tiers"]]
        assert nxs == sorted(nxs) and len(set(nxs)) == len(nxs)

    def test_lod_off_always_embeds_tasks(self):
        payload = _payload_of(_page(_schedule(30), html_threshold=10,
                                    lod="off"))
        assert len(payload["tasks"]) == 30
        assert payload["lod"] is None

    def test_lod_on_embeds_both_with_small_raw_budget(self):
        # forced LOD still ships raw tasks (they fit the threshold) so the
        # viewer can swap to exact rectangles under deep zoom
        payload = _payload_of(_page(_schedule(30), lod="on"))
        assert len(payload["tasks"]) == 30
        assert payload["lod"] is not None
        assert payload["raw_budget"] < payload["threshold"]

    def test_filter_metadata_present(self):
        payload = _payload_of(_page(_schedule(8)))
        assert [c["id"] for c in payload["clusters"]] == ["c0"]
        assert sorted(payload["types"]) == ["compute", "transfer"]
        assert len(payload["colors"]) == len(payload["types"])
        assert all(re.fullmatch(r"#[0-9A-Fa-f]{6}", c)
                   for c in payload["colors"])

    def test_task_entries_carry_inspector_fields(self):
        payload = _payload_of(_page(_schedule(4)))
        entry = payload["tasks"][0]
        assert entry["id"] == "t0"
        assert payload["types"][entry["t"]] == "compute"
        assert entry["e"] - entry["s"] == pytest.approx(25.0)
        assert entry["r"] == [[0, 0, 2]]
        assert entry["m"] == {"user": "0"}

    def test_initial_viewport_from_window(self):
        payload = _payload_of(_page(_schedule(20), window=(10.0, 50.0)))
        assert payload["initial"] is not None
        assert payload["initial"]["t0"] == pytest.approx(10.0)
        assert payload["initial"]["t1"] == pytest.approx(50.0)

    def test_multi_cluster_offsets(self, multi_cluster_schedule):
        payload = _payload_of(_page(multi_cluster_schedule))
        offs = [c["offset"] for c in payload["clusters"]]
        assert offs == [0, 4]
        assert payload["bounds"]["rows"] == 6
        spanning = [t for t in payload["tasks"] if len(t["r"]) == 2]
        assert spanning and spanning[0]["r"] == [[0, 0, 1], [1, 4, 5]]

    def test_aggregated_page_stays_small(self):
        page = _page(_schedule(6000, hosts=64))
        payload = _payload_of(page)
        assert payload["tasks"] is None
        assert len(page) < 600_000


class TestEscaping:
    def test_hostile_title_cannot_break_out(self):
        hostile = '</script><script>alert(1)</script>'
        s = _schedule(3)
        page = _page(s, title=hostile)
        assert "</script><script>alert(1)" not in page
        assert _payload_of(page)["title"] == hostile  # survives round-trip

    def test_hostile_task_id_and_meta(self):
        s = Schedule()
        s.new_cluster("c0", 2)
        s.new_task('</script><img src=x>', "compute", 0.0, 1.0, cluster="c0",
                   host_start=0, host_nb=2,
                   meta={"note": 'x</script>y z'})
        page = _page(s)
        assert "</script><img" not in page
        payload = _payload_of(page)
        assert payload["tasks"][0]["id"] == '</script><img src=x>'
        assert payload["tasks"][0]["m"]["note"] == 'x</script>y z'

    def test_title_element_escaped(self):
        page = _page(_schedule(2), title="a<b & c")
        assert "<title>a&lt;b &amp; c</title>" in page


class TestPayloadValidation:
    def _ok(self):
        return build_payload(_schedule(5))

    def test_valid_payload_passes(self):
        assert validate_payload(self._ok())

    @pytest.mark.parametrize("mutate, where", [
        (lambda p: p.update(version=99), "version"),
        (lambda p: p["bounds"].update(t1=p["bounds"]["t0"]), "bounds"),
        (lambda p: p["clusters"][0].update(offset=3), "offset"),
        (lambda p: p.update(colors=["red"]), "colors"),
        (lambda p: p["tasks"][0].update(t=17), "tasks"),
        (lambda p: p["tasks"][0].update(r=[[0, 5, 2]]), "tasks"),
        (lambda p: p.update(tasks=None, lod=None), "tasks"),
    ])
    def test_tampered_payload_rejected(self, mutate, where):
        payload = self._ok()
        mutate(payload)
        with pytest.raises(RenderError, match="invalid html payload"):
            validate_payload(payload)

    def test_tier_runs_validated(self):
        payload = build_payload(_schedule(30), threshold=10)
        payload["lod"]["tiers"][0]["clusters"][0]["runs"][0][3] = 99
        with pytest.raises(RenderError, match="runs"):
            validate_payload(payload)

    def test_payload_json_compact_and_strict(self):
        text = payload_json(self._ok())
        assert ": " not in text and ", " not in text
        assert json.loads(text)["version"] == 1

    def test_build_tiers_run_budget(self):
        tiers = build_tiers(_schedule(500, hosts=64), tiers=4, max_runs=200)
        total = sum(len(b["runs"]) for t in tiers for b in t["clusters"])
        # at least the coarsest tier survives; finer tiers only if they fit
        assert tiers and (len(tiers) == 1 or total <= 200)


# --------------------------------------------------------------------------
# Python-vs-JS viewport parity.  The functions below are *literal
# transcriptions* of the vpZoom/vpPan/vpZoomTo/vpClamp JavaScript embedded
# in the page; test_js_source_matches_transcription pins the JS text so the
# transcriptions cannot silently drift from what ships.
# --------------------------------------------------------------------------

_MIN_SPAN = 1e-12


def js_zoom(vp, factor, at=None):
    ct = at[0] if at else (vp["t0"] + vp["t1"]) / 2
    cr = at[1] if at else (vp["r0"] + vp["r1"]) / 2
    tspan = vp["t1"] - vp["t0"]
    rspan = vp["r1"] - vp["r0"]
    nts = max(tspan / factor, _MIN_SPAN)
    nrs = max(rspan / factor, _MIN_SPAN)
    ft = (ct - vp["t0"]) / tspan
    fr = (cr - vp["r0"]) / rspan
    t0 = ct - ft * nts
    r0 = cr - fr * nrs
    return {"t0": t0, "t1": t0 + nts, "r0": r0, "r1": r0 + nrs}


def js_pan(vp, dt, dr):
    return {"t0": vp["t0"] + dt, "t1": vp["t1"] + dt,
            "r0": vp["r0"] + dr, "r1": vp["r1"] + dr}


def js_zoom_to(vp, t0, t1, r0=None, r1=None):
    if r0 is None:
        r0 = vp["r0"]
    if r1 is None:
        r1 = vp["r1"]
    if t1 - t0 < _MIN_SPAN:
        mt = (t0 + t1) / 2
        t0, t1 = mt - _MIN_SPAN / 2, mt + _MIN_SPAN / 2
    if r1 - r0 < _MIN_SPAN:
        mr = (r0 + r1) / 2
        r0, r1 = mr - _MIN_SPAN / 2, mr + _MIN_SPAN / 2
    return {"t0": t0, "t1": t1, "r0": r0, "r1": r1}


def js_clamp(vp, b):
    tspan = min(vp["t1"] - vp["t0"], b["t1"] - b["t0"])
    rspan = min(vp["r1"] - vp["r0"], b["r1"] - b["r0"])
    t0 = min(max(vp["t0"], b["t0"]), b["t1"] - tspan)
    r0 = min(max(vp["r0"], b["r0"]), b["r1"] - rspan)
    return {"t0": t0, "t1": t0 + tspan, "r0": r0, "r1": r0 + rspan}


def _d(vp: Viewport) -> dict:
    return {"t0": vp.t0, "t1": vp.t1, "r0": vp.r0, "r1": vp.r1}


def _close(a: dict, b: Viewport):
    for key in ("t0", "t1", "r0", "r1"):
        assert a[key] == pytest.approx(getattr(b, key), abs=1e-9), key


class TestJsParity:
    BOUNDS = Viewport(0.0, 100.0, 0.0, 16.0)

    CASES = [
        ("zoom", dict(factor=1.25, at=(30.0, 4.0))),
        ("zoom", dict(factor=1.25, at=None)),
        ("zoom", dict(factor=0.8, at=(99.0, 15.0))),
        ("zoom", dict(factor=1e15, at=(50.0, 8.0))),   # hits MIN_SPAN floor
        ("pan", dict(dt=17.5, dr=-3.0)),
        ("pan", dict(dt=-1000.0, dr=1000.0)),          # clamp pulls it back
        ("zoom_to", dict(t0=10.0, t1=20.0, r0=2.0, r1=6.0)),
        ("zoom_to", dict(t0=40.0, t1=40.0, r0=None, r1=None)),  # degenerate
    ]

    @pytest.mark.parametrize("op, kwargs", CASES)
    def test_single_op_matches(self, op, kwargs):
        py = Viewport(5.0, 85.0, 1.0, 13.0)
        js = _d(py)
        if op == "zoom":
            py = py.zoom(kwargs["factor"], at=kwargs["at"])
            js = js_zoom(js, kwargs["factor"],
                         list(kwargs["at"]) if kwargs["at"] else None)
        elif op == "pan":
            py = py.pan(kwargs["dt"], kwargs["dr"])
            js = js_pan(js, kwargs["dt"], kwargs["dr"])
        else:
            py = py.zoom_to(kwargs["t0"], kwargs["t1"],
                            kwargs["r0"], kwargs["r1"])
            js = js_zoom_to(js, kwargs["t0"], kwargs["t1"],
                            kwargs["r0"], kwargs["r1"])
        py = py.clamped_to(self.BOUNDS)
        js = js_clamp(js, _d(self.BOUNDS))
        _close(js, py)

    def test_interaction_sequence_matches(self):
        # a whole session: zoom in at a point, pan, rubber-band, zoom out
        py = self.BOUNDS
        js = _d(py)
        for _ in range(4):
            py = py.zoom(1.25, at=(62.0, 3.0)).clamped_to(self.BOUNDS)
            js = js_clamp(js_zoom(js, 1.25, [62.0, 3.0]), _d(self.BOUNDS))
        py = py.pan(-7.0, 2.5).clamped_to(self.BOUNDS)
        js = js_clamp(js_pan(js, -7.0, 2.5), _d(self.BOUNDS))
        py = py.zoom_to(50.0, 55.0, 2.0, 4.0).clamped_to(self.BOUNDS)
        js = js_clamp(js_zoom_to(js, 50.0, 55.0, 2.0, 4.0), _d(self.BOUNDS))
        py = py.zoom(1 / 1.25).clamped_to(self.BOUNDS)
        js = js_clamp(js_zoom(js, 1 / 1.25), _d(self.BOUNDS))
        _close(js, py)

    def test_js_source_matches_transcription(self):
        # pin the shipped JS to the transcriptions above: if the template
        # formulas change, this fails and the parity tests must be updated
        page = _page(_schedule(3))
        for snippet in (
            "var MIN_SPAN = 1e-12;",
            "var nts = Math.max(tspan / factor, MIN_SPAN);",
            "var ft = (ct - vp.t0) / tspan;",
            "var t0 = ct - ft * nts;",
            "var t0 = Math.min(Math.max(vp.t0, b.t0), b.t1 - tspan);",
            "return vp.t0 <= t && t < vp.t1 && vp.r0 <= r && r < vp.r1;",
            'return visible <= budget ? "raw" : "lod";',
        ):
            assert snippet in page, snippet

    def test_draw_mode_swap_semantics(self):
        def draw_mode(visible, has_tasks, has_tiers, budget):
            if not has_tiers:
                return "raw"
            if not has_tasks:
                return "lod"
            return "raw" if visible <= budget else "lod"

        assert draw_mode(10_000, True, False, 64) == "raw"   # no tiers
        assert draw_mode(0, False, True, 64) == "lod"        # no raw tasks
        assert draw_mode(64, True, True, 64) == "raw"        # at budget
        assert draw_mode(65, True, True, 64) == "lod"        # just past it


class TestViewerScriptInNode:
    """Execute the embedded viewer JS for real (node + DOM stubs).

    The parity tables above prove the algebra matches Python; this layer
    proves the script actually *boots* and survives an interaction session
    (zoom, pan, rubber band, reset, hover, filters) without throwing.
    Skipped when no node runtime is on PATH.
    """

    HARNESS = pathlib.Path(__file__).with_name("_html_viewer_harness.js")

    @pytest.fixture(autouse=True)
    def _need_node(self):
        if shutil.which("node") is None:
            pytest.skip("node not available")

    def _drive(self, page: str, tmp_path) -> dict:
        html = tmp_path / "page.html"
        html.write_text(page, encoding="utf-8")
        proc = subprocess.run(
            ["node", str(self.HARNESS), str(html)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_raw_mode_session(self, tmp_path):
        report = self._drive(_page(_schedule(40)), tmp_path)
        assert report["errors"] == []
        assert report["boot_status"].startswith("raw: 40 visible")
        # zoom/pan/band all shrank the visible window...
        assert "raw:" in report["after_band"]
        # ...and double-click restored the fitted view
        assert report["after_reset"] == report["boot_status"]
        # hovering found a task and the pinned inspector shows its header
        assert report["inspector"].startswith("task ")
        # a type filter hides some tasks
        assert report["after_filter"] != report["boot_status"]
        assert report["draw_calls"]["fillRect"] > 40

    def test_lod_mode_session(self, tmp_path):
        report = self._drive(
            _page(_schedule(300), html_threshold=50, html_tiers=3), tmp_path)
        assert report["errors"] == []
        assert report["boot_status"].startswith("LOD tier ")
        assert report["after_reset"] == report["boot_status"]
        assert "aggregated view" in report["inspector"]
