"""Tests for the ``jedule serve`` / ``jedule submit`` subcommands."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli.main import main
from repro.io import save_schedule
from repro.serve.server import RenderServer


@pytest.fixture
def manifest(tmp_path, simple_schedule, overlap_schedule):
    save_schedule(simple_schedule, tmp_path / "a.jed")
    save_schedule(overlap_schedule, tmp_path / "b.jed")
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "name": "cli-serve",
        "output_dir": "out",
        "defaults": {"format": "svg"},
        "jobs": [{"input": "a.jed"}, {"input": "b.jed"}],
    }), encoding="utf-8")
    return path


@pytest.fixture
def server(tmp_path):
    srv = RenderServer(workers=1, cache_dir=str(tmp_path / "cache")).start()
    yield srv
    srv.drain()
    assert srv.wait(timeout=30)


def test_submit_manifest_roundtrip(tmp_path, manifest, server, capsys):
    rc = main(["submit", "--url", server.url, "--manifest", str(manifest)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "2/2 job(s) ok" in out and out.count("[miss]") == 2
    assert (tmp_path / "out" / "a.svg").stat().st_size > 0

    assert main(["submit", "--url", server.url,
                 "--manifest", str(manifest)]) == 0
    assert capsys.readouterr().out.count("[hit]") == 2


def test_submit_single_input(tmp_path, server, simple_schedule, capsys):
    save_schedule(simple_schedule, tmp_path / "s.jed")
    out = tmp_path / "s.svg"
    rc = main(["submit", "--url", server.url, str(tmp_path / "s.jed"),
               "-o", str(out)])
    assert rc == 0
    assert out.stat().st_size > 0


def test_submit_argument_validation(server, tmp_path, capsys):
    # no inputs and no manifest
    assert main(["submit", "--url", server.url]) == 2
    # several inputs without --outdir
    assert main(["submit", "--url", server.url, "a.jed", "b.jed"]) == 2
    assert "error:" in capsys.readouterr().err


def test_submit_unreachable_server(capsys):
    rc = main(["submit", "--url", "http://127.0.0.1:1", "x.jed",
               "-o", "x.svg"])
    assert rc == 2
    assert "cannot reach" in capsys.readouterr().err


def test_serve_daemon_drains_on_sigterm(tmp_path, manifest):
    """Full daemon lifecycle: spawn, submit over a Unix socket, SIGTERM."""
    sock = str(tmp_path / "jedule.sock")
    runlog = tmp_path / "runlog.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(p) for p in sys.path if p] +
        [env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli.main", "serve", "--socket", sock,
         "--workers", "1", "--cache-dir", str(tmp_path / "cache"),
         "--runlog", str(runlog)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        for _ in range(200):
            if os.path.exists(sock):
                break
            assert proc.poll() is None, proc.communicate()[0]
            time.sleep(0.05)
        else:
            pytest.fail("daemon never bound its socket")

        done = subprocess.run(
            [sys.executable, "-m", "repro.cli.main", "submit",
             "--socket", sock, "--manifest", str(manifest)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "2/2 job(s) ok" in done.stdout

        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        assert "drained" in out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)
    record = json.loads(runlog.read_text().splitlines()[-1])
    assert record["suite"] == "serve"
    assert record["counters"]['jedule_serve_jobs_total{status="ok"}'] == 2
