"""End-to-end tests of the render service over real HTTP."""

from __future__ import annotations

import http.client
import json
from contextlib import contextmanager

import pytest

from repro.errors import ServeError
from repro.io.json_fmt import to_dict
from repro.render.api import RenderRequest, execute_request
from repro.serve.client import ServeClient
from repro.serve.metrics import parse_prometheus_text
from repro.serve.server import RenderServer

JOBS_OK = 'jedule_serve_jobs_total{status="ok"}'
CACHE_HIT = 'jedule_serve_cache_total{outcome="hit"}'
CACHE_MISS = 'jedule_serve_cache_total{outcome="miss"}'
SUBMITTED = "jedule_serve_jobs_submitted_total"
INVALID = (("reason", "invalid"),)


@contextmanager
def serving(**kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("port", 0)  # ephemeral
    server = RenderServer(**kwargs).start()
    try:
        yield server
    finally:
        server.drain()
        assert server.wait(timeout=30)


def _request(**kwargs):
    kwargs.setdefault("output_format", "svg")
    kwargs.setdefault("width", 320)
    kwargs.setdefault("height", 240)
    return RenderRequest(**kwargs)


def test_submit_poll_result_matches_direct_render(tmp_path, simple_schedule):
    with serving(cache_dir=str(tmp_path / "cache")) as server:
        client = ServeClient(server.url, client_id="t1")
        request = _request()
        job = client.render(request, schedule=simple_schedule)
        assert job["status"] == "done"
        assert job["result"]["cache"] == "miss"
        served = client.result_bytes(job["id"])
        direct = execute_request(request, simple_schedule)
        assert served == direct.data

        again = client.render(request, schedule=simple_schedule)
        assert again["result"]["cache"] == "hit"
        assert client.result_bytes(again["id"]) == direct.data


def test_file_input_written_to_output_path(tmp_path, simple_schedule):
    from repro.io import save_schedule

    src = tmp_path / "s.jed"
    save_schedule(simple_schedule, src)
    out = tmp_path / "out" / "s.svg"
    with serving(cache_dir=str(tmp_path / "cache")) as server:
        client = ServeClient(server.url)
        job = client.render(RenderRequest(input_path=str(src),
                                          output_path=str(out)))
        assert job["status"] == "done"
        assert out.stat().st_size == job["result"]["bytes"] > 0
        assert client.result_bytes(job["id"]) == out.read_bytes()


def test_unix_socket_transport(tmp_path, simple_schedule):
    sock = str(tmp_path / "jedule.sock")
    with serving(socket_path=sock, cache_dir=None) as server:
        assert server.url == f"unix:{sock}"
        client = ServeClient(socket_path=sock)
        assert client.healthz()["ok"] is True
        job = client.render(_request(), schedule=simple_schedule)
        assert job["status"] == "done"


def test_queue_full_answers_429_with_retry_after(tmp_path, simple_schedule):
    with serving(queue_depth=2, cache_dir=None) as server:
        server.pause_dispatch()
        client = ServeClient(server.url, client_id="flood")
        for _ in range(2):
            client.submit(_request(), schedule=simple_schedule)
        with pytest.raises(ServeError) as err:
            client.submit(_request(), schedule=simple_schedule)
        assert err.value.code == "queue-full"
        assert err.value.retry_after >= 1
        server.resume_dispatch()
        # the rejected submit succeeds once the queue drains
        job = client.render(_request(), schedule=simple_schedule,
                            timeout=60.0)
        assert job["status"] == "done"


def test_fairness_between_competing_clients(tmp_path, simple_schedule):
    with serving(cache_dir=None, queue_depth=16) as server:
        server.pause_dispatch()
        greedy = ServeClient(server.url, client_id="greedy")
        modest = ServeClient(server.url, client_id="modest")
        greedy_jobs = [greedy.submit(_request(), schedule=simple_schedule)
                       for _ in range(4)]
        modest_jobs = [modest.submit(_request(), schedule=simple_schedule)
                       for _ in range(2)]
        assert server.statz_payload()["queue"]["by_client"] == {
            "greedy": 4, "modest": 2}
        server.resume_dispatch()
        greedy_seq = [greedy.wait(j["id"])["seq"] for j in greedy_jobs]
        modest_seq = [modest.wait(j["id"])["seq"] for j in modest_jobs]
        # round-robin: modest's 2 jobs finish 2nd and 4th, not 5th and 6th —
        # they never wait behind the whole greedy backlog
        assert sorted(modest_seq) == [2, 4]
        assert sorted(greedy_seq) == [1, 3, 5, 6]


def test_drain_completes_inflight_and_queued_jobs(tmp_path, simple_schedule):
    with serving(cache_dir=None, debug_hooks=True) as server:
        client = ServeClient(server.url)
        payload = {"request": {"output_format": "svg"},
                   "schedule": to_dict(simple_schedule),
                   "debug": {"x_sleep_s": 0.4}}
        slow = client.request("POST", "/render", payload)[2]["job"]
        queued = [client.submit(_request(), schedule=simple_schedule)
                  for _ in range(2)]
        server.drain()
        assert server.wait(timeout=30)
        for doc in [slow] + queued:
            job = server._jobs[doc["id"]]
            assert job.status == "done", (job.status, job.result)


def test_draining_server_refuses_new_jobs(tmp_path, simple_schedule):
    with serving(cache_dir=None) as server:
        client = ServeClient(server.url)
        server._draining = True  # simulate the window before shutdown
        with pytest.raises(ServeError) as err:
            client.submit(_request(), schedule=simple_schedule)
        assert err.value.code == "draining"
        server._draining = False


def test_worker_crash_retried_once_then_reported(tmp_path, simple_schedule):
    with serving(cache_dir=None, debug_hooks=True) as server:
        client = ServeClient(server.url)
        payload = {"request": {"output_format": "svg"},
                   "schedule": to_dict(simple_schedule),
                   "debug": {"x_crash": True}}
        status, _, body = client.request("POST", "/render", payload)
        assert status == 202
        job = client.wait(body["job"]["id"], timeout=60.0)
        assert job["status"] == "failed"
        assert job["result"]["attempts"] == 2  # retried once, then reported
        assert "died" in job["result"]["error"]
        # the crash did not poison the service: a normal job still runs
        ok = client.render(_request(), schedule=simple_schedule)
        assert ok["status"] == "done"
        assert server.statz_payload()["workers"]["restarts"] >= 2


def _post_raw(server, body: bytes, **headers):
    """POST /render with a raw body; returns ``(status, parsed body)``."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("POST", "/render", body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def test_validation_errors_are_structured_400s(tmp_path, simple_schedule):
    with serving(cache_dir=None) as server:
        client = ServeClient(server.url)
        raw_cases = [
            (b"", {"Content-Length": "-1"}, "bad-body"),
            (b"{not json", {}, "bad-json"),
            (b"[1, 2]", {}, "bad-body"),  # JSON, but not an object
        ]
        for body, headers, code in raw_cases:
            status, doc = _post_raw(server, body, **headers)
            assert status == 400, (body, doc)
            assert doc["error"]["code"] == code, (body, doc)
        cases = [
            ({"request": {"width": float("nan")}}, "invalid-value"),
            ({"request": {"width": -3}}, "invalid-dimension"),
            ({"request": {"output_format": "tiff"}}, "unknown-format"),
            ({"request": {"bogus": 1}}, "unknown-field"),
            ({"request": {}}, "missing-input"),
            ({"request": {}, "schedule": {"tasks": "nope"}}, "bad-schedule"),
            ({"request": {}, "schedule": [1, 2]}, "bad-schedule"),
            ({"debug": {"x_crash": True}}, "unknown-field"),  # hooks off
        ]
        for payload, code in cases:
            status, _, body = client.request("POST", "/render", payload)
            assert status == 400, (payload, body)
            assert body["error"]["code"] == code, (payload, body)
        # every refused admission is counted exactly once
        parsed = parse_prometheus_text(client.metricz())
        refused = len(raw_cases) + len(cases)
        assert parsed["jedule_serve_requests_total"][()] == refused
        assert parsed["jedule_serve_rejected_total"] == {INVALID: refused}


def test_malformed_inline_ranges_are_400_bad_schedule():
    bad_ranges = [[[0]], [["a", 1]], [[0, 1, 2]]]
    with serving(cache_dir=None) as server:
        client = ServeClient(server.url)
        for ranges in bad_ranges:
            schedule = {"clusters": [{"id": "0", "hosts": 4}],
                        "tasks": [{"id": "t1", "type": "computation",
                                   "start": 0.0, "end": 1.0,
                                   "configurations": [{"cluster": "0",
                                                       "ranges": ranges}]}]}
            status, _, body = client.request(
                "POST", "/render", {"request": {}, "schedule": schedule})
            assert status == 400, (ranges, body)
            assert body["error"]["code"] == "bad-schedule"
            assert "'t1'" in body["error"]["message"]
        assert client.healthz()["ok"] is True
        parsed = parse_prometheus_text(client.metricz())
        assert parsed["jedule_serve_rejected_total"] \
            == {INVALID: len(bad_ranges)}


def test_unknown_job_is_404(tmp_path):
    with serving(cache_dir=None) as server:
        client = ServeClient(server.url)
        status, _, body = client.request("GET", "/jobs/deadbeef")
        assert status == 404 and body["error"]["code"] == "unknown-job"
        status, _, _ = client.request("GET", "/nope")
        assert status == 404


def test_result_of_unfinished_job_is_409(tmp_path, simple_schedule):
    with serving(cache_dir=None) as server:
        server.pause_dispatch()
        client = ServeClient(server.url)
        job = client.submit(_request(), schedule=simple_schedule)
        status, _, body = client.request("GET", f"/jobs/{job['id']}/result")
        assert status == 409 and body["error"]["code"] == "not-finished"
        server.resume_dispatch()
        client.wait(job["id"])


def test_statz_counters_and_latency(tmp_path, simple_schedule):
    with serving(cache_dir=str(tmp_path / "cache")) as server:
        client = ServeClient(server.url, client_id="statz")
        for _ in range(3):
            client.render(_request(), schedule=simple_schedule)
        stats = client.statz()
        assert stats["counters"][SUBMITTED] == 3
        assert stats["counters"][JOBS_OK] == 3
        assert stats["counters"][CACHE_HIT] == 2
        assert stats["counters"][CACHE_MISS] == 1
        for stage in ("queue_wait", "worker", "total"):
            latency = stats["latency_s"][stage]
            assert latency["count"] == 3
            assert latency["p50"] <= latency["p95"] <= latency["p99"]
        assert stats["workers"] == {"total": 1, "alive": 1, "restarts": 0}


def test_statz_and_metricz_report_the_same_numbers(tmp_path,
                                                   simple_schedule):
    """/statz counters and latency come from the /metricz registry: every
    counter series and the total-stage count agree sample for sample."""
    with serving(cache_dir=str(tmp_path / "cache"), workers=2) as server:
        client = ServeClient(server.url, client_id="agree")
        for width in (320, 320, 400):  # the repeat is a cache hit
            job = client.render(_request(width=width),
                                schedule=simple_schedule)
            assert job["status"] == "done"
        status, _, _ = client.request("POST", "/render", {"request": {}})
        assert status == 400  # rejected: no input
        stats = client.statz()
        parsed = parse_prometheus_text(client.metricz())
    counters = stats["counters"]
    assert counters[CACHE_HIT] == 1 and counters[SUBMITTED] == 3
    assert counters['jedule_serve_rejected_total{reason="invalid"}'] == 1
    for series, value in counters.items():
        (name, samples), = parse_prometheus_text(f"{series} 0\n").items()
        (labels,) = samples
        assert parsed[name][labels] == value, series
    stage_counts = parsed["jedule_serve_stage_seconds_count"]
    assert stats["latency_s"]["total"]["count"] \
        == stage_counts[(("stage", "total"),)] == 3


def test_reload_replaces_workers_without_dropping_jobs(tmp_path,
                                                       simple_schedule):
    with serving(cache_dir=None, workers=2) as server:
        client = ServeClient(server.url)
        before = set(server._pool.pids())
        job = client.render(_request(), schedule=simple_schedule)
        assert job["status"] == "done"
        server.reload()
        assert set(server._pool.pids()).isdisjoint(before)
        job = client.render(_request(), schedule=simple_schedule)
        assert job["status"] == "done"


def test_drain_writes_runlog_record(tmp_path, simple_schedule):
    runlog = tmp_path / "runlog.jsonl"
    with serving(cache_dir=str(tmp_path / "cache"),
                 runlog=str(runlog)) as server:
        client = ServeClient(server.url)
        client.render(_request(), schedule=simple_schedule)
        client.render(_request(), schedule=simple_schedule)
    record = json.loads(runlog.read_text().splitlines()[-1])
    assert record["suite"] == "serve"
    assert record["counters"][JOBS_OK] == 2
    assert record["counters"][CACHE_HIT] == 1
    assert record["meta"]["jobs"] == 2
    timings = record["timings_s"]
    for label in ("p50", "p95", "p99"):  # whole job = the total stage
        assert timings[label] == timings[f"total_{label}"]
    assert timings["p95"][0] > 0.0


def test_drain_runlog_empty_sample_still_has_stage_keys(tmp_path):
    """A server drained before any job finished still writes a complete
    record: whole-job and per-stage percentile keys all present, zeroed."""
    runlog = tmp_path / "runlog.jsonl"
    with serving(cache_dir=None, runlog=str(runlog)):
        pass  # no jobs at all
    record = json.loads(runlog.read_text().splitlines()[-1])
    timings = record["timings_s"]
    for key in ("p50", "p95", "p99"):
        assert timings[key] == [0.0]
    for stage in ("queue_wait", "worker", "total"):
        for label in ("p50", "p95", "p99"):
            assert timings[f"{stage}_{label}"] == [0.0], (stage, label)
    assert record["meta"]["jobs"] == 0
    assert record["meta"]["queue_peak"] == 0


def test_drain_runlog_stage_timings_populated(tmp_path, simple_schedule):
    runlog = tmp_path / "runlog.jsonl"
    with serving(cache_dir=None, runlog=str(runlog)) as server:
        client = ServeClient(server.url)
        client.render(_request(), schedule=simple_schedule)
    record = json.loads(runlog.read_text().splitlines()[-1])
    timings = record["timings_s"]
    # one finished job: worker and total stage percentiles are real times
    assert timings["worker_p95"][0] > 0.0
    assert timings["total_p95"][0] >= timings["worker_p95"][0]
    assert record["meta"]["queue_peak"] >= 1


def test_statz_job_state_counts_incremental(tmp_path, simple_schedule):
    """/statz job states come from the O(1) transition counters and stay
    consistent with a full walk of the jobs dict."""
    with serving(cache_dir=None) as server:
        client = ServeClient(server.url, client_id="states")
        for _ in range(3):
            assert client.render(_request(),
                                 schedule=simple_schedule)["status"] == "done"
        assert server.statz_payload()["jobs"] == {"done": 3}
        with server._jobs_lock:
            walked = {}
            for job in server._jobs.values():
                walked[job.status] = walked.get(job.status, 0) + 1
            live = {k: v for k, v in server._job_states.items() if v}
            assert walked == live == {"done": 3}


def test_job_state_counts_survive_prune(tmp_path, simple_schedule):
    with serving(cache_dir=None, keep_jobs=2) as server:
        client = ServeClient(server.url, client_id="prune")
        for _ in range(5):
            client.render(_request(), schedule=simple_schedule)
        states = server.statz_payload()["jobs"]
        with server._jobs_lock:
            assert len(server._jobs) <= 2 + 1  # cap, +1 for in-flight slack
            assert states == {"done": len(server._jobs)}


def test_queue_peak_depth_reported(tmp_path, simple_schedule):
    with serving(queue_depth=8, cache_dir=None) as server:
        server.pause_dispatch()
        client = ServeClient(server.url, client_id="peaky")
        for _ in range(4):
            client.submit(_request(), schedule=simple_schedule)
        assert server.statz_payload()["queue"]["peak"] == 4
        server.resume_dispatch()
