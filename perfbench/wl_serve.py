"""``serve-mix``: the request path through a ``jedule serve --workers 2``
daemon with a fresh cache directory.

A request carries an inline 500/2,000/5,000-task schedule; outputs are
PNG, SVG and HTML in a 50/30/20 mix, and a quarter of the requests
exactly repeat an earlier one, so cache reads ride along with cache
writes.  Schedules are small: queueing, HTTP, the worker pipe and the
canonical-schedule decode dominate.  Request bodies are encoded during
setup, so the client only sends bytes.  Latency runs from when a request
was due to the server-reported ``finished_at`` (both wall clock on one
machine); a refused (429) or failed request counts as missing every
limit.

* Untraced run (the end-to-end metrics): a closed loop of one client
  with one request outstanding, over whole cycles of a fixed request mix.
  An open loop's latency median over the few dozen requests a short run
  can send spreads by a third or more from seed to seed; the closed loop
  holds the service's capacity and latency steady.
* Traced run: an open loop of Poisson arrivals at three fixed rates
  (``low``, ``mid``, ``high``), each phase with the same request count,
  from two sender threads with one connection each.  It reports latency
  per rate, the highest rate meeting the limit, and the serve layer
  (queue wait, worker, pipe, cache).  The benchmark's spans wrap only
  its own post-run checks, so these are tracing-off latencies.  Job
  documents are read after each phase, never by polling a job while it
  runs.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter

from harness import Ctx, another_cycle
from inputs import synthetic_doc
from ledger import Skipped, median, percentile
from pipeline import check_output, render_layered

from repro.io.json_fmt import from_dict
from repro.render.api import RenderRequest, render_request_bytes
from repro.serve.protocol import canonical_schedule_bytes, \
    schedule_from_canonical

#: offered rates (requests/s) and the limit on each rate's req_p90_s.
#: A 100 s traced run on a 2-core x86-64 VM, of the program this
#: benchmark was defined against, read req_p90_s 0.52 / 0.69 / 1.04 s
#: with no backlog, so max_rate_rps 4: the limit falls between the mid
#: and high rates (recorded in BENCHMARK.json's serve-mix "why")
RATES = {"low": 2.0, "mid": 4.0, "high": 6.0}
LIMIT_S = 1.0
WORKERS = 2
SIZES = (500, 2_000, 5_000)
FORMATS = ("png",) * 5 + ("svg",) * 3 + ("html",) * 2
REPEAT_SHARE = 0.25
REPEAT_FORMATS = ("png", "svg", "html")
#: closed-loop cycle: 10 unique requests (the format mix over the sizes)
#: and 3 repeats, one per format: 6/4/3 PNG/SVG/HTML overall.  Bodies
#: for CLOSED_MAX_RPS x seconds requests are encoded.
CYCLE = 13
CLOSED_MAX_RPS = 5.0
#: completion poll of the closed loop; latency comes from server
#: timestamps, so the poll only paces the next send
POLL_S = 0.005
#: daemon start-ups timed for setup_s (the median is reported)
SPAWNS = 3
#: queued jobs at the end of a phase that count as a growing backlog
BACKLOG_DEPTH = 2 * WORKERS
TIMEOUT_S = 60.0


@dataclass
class Send:
    """One planned request and what happened to it."""

    phase: str
    offset: float            # due time, seconds after the phase start
    body: bytes
    key: int                 # index of the unique request it sends
    size: int
    fmt: str
    repeat: bool
    due: float = 0.0         # wall clock
    lag: float = math.nan
    submit_s: float = math.nan
    status: int = 0
    job_id: str | None = None
    doc: dict = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        return self.status == 202 and self.job_id is not None


def _batch(rng: random.Random, seed: int, phase: str, n: int,
           keys) -> list[Send]:
    """``n`` requests in send order: a fixed multiset of (size, format)
    classes, and repeats that each copy an earlier request, taking the
    formats in turn.  The seed picks the schedules and the order; the
    fixed composition keeps the latency median in the same class from
    seed to seed."""
    n_repeat = round(REPEAT_SHARE * n)
    classes = [(SIZES[i % len(SIZES)], FORMATS[i % len(FORMATS)])
               for i in range(n - n_repeat)]
    uniques = []
    for size, fmt in classes:
        key = next(keys)
        body = json.dumps({"request": {"output_format": fmt},
                           "schedule": synthetic_doc(size, seed * 1_000 + key)}
                          ).encode("utf-8")
        uniques.append(Send(phase, 0.0, body, key, size, fmt, False))
    rng.shuffle(uniques)
    order = list(uniques)
    for j in range(n_repeat):
        fmt = REPEAT_FORMATS[j % len(REPEAT_FORMATS)]
        first = next(u for u in uniques if u.fmt == fmt)
        order.insert(rng.randint(order.index(first) + 1, len(order)),
                     Send(phase, 0.0, first.body, first.key, first.size,
                          first.fmt, True))
    return order


def plan(seed: int, seconds: float, trace: bool) -> list[list[Send]]:
    """The request batches of a run, every body encoded here.

    Untraced: closed-loop cycles of :data:`CYCLE` requests.  Traced: per
    open-loop phase, its requests in due order.
    """
    rng = random.Random(seed)
    keys = itertools.count()
    if not trace:
        # a run ends within half a cycle of ``seconds``
        cycles = math.ceil(seconds * CLOSED_MAX_RPS / CYCLE) + 1
        return [_batch(rng, seed, "closed", CYCLE, keys)
                for _ in range(cycles)]
    per_phase = max(8, int(seconds / sum(1.0 / r for r in RATES.values())))
    phases = []
    for phase, rate in RATES.items():
        sends = _batch(rng, seed, phase, per_phase, keys)
        # Poisson arrivals conditioned on the count: sorted uniform times
        offsets = sorted(rng.uniform(0.0, per_phase / rate)
                         for _ in range(per_phase))
        for send, offset in zip(sends, offsets):
            send.offset = offset
        phases.append(sends)
    return phases


# ---------------------------------------------------------------- daemon

class Daemon:
    """A ``jedule serve`` subprocess on an ephemeral localhost port."""

    def __init__(self, ctx: Ctx, index: int):
        cache = ctx.workdir / f"cache{index}"
        self.log = open(ctx.workdir / f"serve{index}.log", "wb")
        env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-W", "ignore", "-m", "repro.cli.main", "serve",
             "--port", "0", "--workers", str(WORKERS),
             "--cache-dir", str(cache)],
            stdout=subprocess.PIPE, stderr=self.log, env=env)
        self.port = None

    def wait_ready(self) -> None:
        """Until the port is known, /healthz reports every worker alive
        and tiny warm-up jobs of every format have gone through."""
        ready, _, _ = select.select([self.proc.stdout], [], [], TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "serving on http://" not in line:
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(line.split()[2].rsplit(":", 1)[1])
        conn = self.connect()
        deadline = perf_counter() + TIMEOUT_S
        while True:
            status, doc = get_json(conn, "/healthz")
            if status == 200 and doc["ok"] and \
                    doc["workers_alive"] == WORKERS:
                break
            if perf_counter() > deadline:
                raise RuntimeError(f"daemon never healthy: {doc}")
            time.sleep(0.01)
        for fmt in ("png", "svg", "html") * WORKERS * 2:
            body = json.dumps({"request": {"output_format": fmt},
                               "schedule": synthetic_doc(4, 0)}).encode()
            status, doc = post(conn, body)
            if status != 202:
                raise RuntimeError(f"warm-up job refused: {status} {doc}")
        wait_idle(conn)
        conn.close()

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=TIMEOUT_S)

    def peak_rss_mb(self) -> float | Skipped:
        """Peak RSS of the daemon plus ``WORKERS`` times the highest worker
        peak (/proc VmHWM).  Which worker takes the largest job is chance;
        the highest worker peak is not."""
        peaks = []
        pids = [self.proc.pid]
        while pids:
            pid = pids.pop()
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                    hwm = [ln for ln in fh if ln.startswith("VmHWM:")]
                with open(f"/proc/{pid}/task/{pid}/children",
                          encoding="ascii") as fh:
                    pids.extend(int(p) for p in fh.read().split())
            except OSError as exc:
                return Skipped(f"/proc unreadable for pid {pid}: {exc}")
            peaks.append(int(hwm[0].split()[1]) / 1024.0 if hwm else 0.0)
        if len(peaks) != 1 + WORKERS:
            return Skipped(f"found {len(peaks) - 1} workers, want {WORKERS}")
        return peaks[0] + WORKERS * max(peaks[1:])

    def stop(self) -> None:
        """Drain (SIGTERM) and wait; kill if the drain hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def get_json(conn, path: str):
    conn.request("GET", path)
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


def post(conn, body: bytes):
    conn.request("POST", "/render", body=body,
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


def wait_idle(conn) -> dict:
    """Poll /statz until no job is queued or running; returns it."""
    deadline = perf_counter() + TIMEOUT_S
    while True:
        _, statz = get_json(conn, "/statz")
        jobs = statz["jobs"]
        if not jobs.get("queued") and not jobs.get("running"):
            return statz
        if perf_counter() > deadline:
            raise RuntimeError(f"jobs still pending: {jobs}")
        time.sleep(0.02)


# ---------------------------------------------------------------- load

def send_phase(daemon: Daemon, sends: list[Send]) -> None:
    """Open-loop send: two threads, one connection each, due-time order."""
    lock = threading.Lock()
    queue = iter(sends)
    wall0, perf0 = time.time() + 0.05, perf_counter() + 0.05
    for s in sends:
        s.due = wall0 + s.offset

    def sender():
        conn = daemon.connect()
        try:
            while True:
                with lock:
                    s = next(queue, None)
                if s is None:
                    return
                wait = perf0 + s.offset - perf_counter()
                if wait > 0:
                    time.sleep(wait)
                start = perf_counter()
                s.lag = start - (perf0 + s.offset)
                try:
                    s.status, doc = post(conn, s.body)
                except (OSError, http.client.HTTPException,
                        json.JSONDecodeError) as exc:
                    print(f"serve-mix: send failed: {exc}", file=sys.stderr)
                    conn.close()
                    conn = daemon.connect()
                    continue
                s.submit_s = perf_counter() - start
                if s.status == 202:
                    s.job_id = doc["job"]["id"]
        finally:
            conn.close()

    threads = [threading.Thread(target=sender) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def closed_loop(daemon: Daemon, cycles: list[list[Send]],
                seconds: float) -> tuple[float, int]:
    """One client, one request outstanding, whole cycles for about
    ``seconds``; returns the elapsed time and the cycles run."""
    conn = daemon.connect()
    start = perf_counter()
    done = 0
    try:
        for cycle in cycles:
            for s in cycle:
                s.due = time.time()
                sent = perf_counter()
                s.status, doc = post(conn, s.body)
                s.submit_s = perf_counter() - sent
                if s.status != 202:
                    continue
                s.job_id = doc["job"]["id"]
                while True:
                    _, doc = get_json(conn, f"/jobs/{s.job_id}")
                    if doc["job"]["status"] in ("done", "failed"):
                        s.doc = doc["job"]
                        break
                    time.sleep(POLL_S)
            done += 1
            if not another_cycle(perf_counter() - start, done, seconds):
                break
    finally:
        conn.close()
    return perf_counter() - start, done


def latency(s: Send) -> float:
    """Due time to server-side finish; a miss (refused/failed) is inf."""
    if not s.accepted or s.doc.get("status") != "done":
        return math.inf
    return s.doc["finished_at"] - s.due


def run(ctx: Ctx) -> None:
    batches = plan(ctx.seed, ctx.seconds, ctx.trace)
    daemon = None

    def spawn(index: int) -> None:
        nonlocal daemon
        daemon = Daemon(ctx, index)
        daemon.wait_ready()

    try:
        for index in range(SPAWNS):
            if daemon is not None:
                daemon.stop()
            ctx.timed_setup(lambda: spawn(index))
        (_open_loop if ctx.trace else _closed_loop)(ctx, daemon, batches)
        ctx.ledger.put("peak_rss_mb", daemon.peak_rss_mb(), "MB")
    finally:
        if daemon is not None:
            daemon.stop()


def _closed_loop(ctx: Ctx, daemon: Daemon, cycles: list[list[Send]]) -> None:
    """The service's capacity and latency at a stated load (untraced)."""
    ledger = ctx.ledger
    start = perf_counter()
    elapsed, ran = closed_loop(daemon, cycles, ctx.seconds)
    ctx.intervals.append((start, start + elapsed))
    sends = [s for cycle in cycles[:ran] for s in cycle]
    lat = [latency(s) for s in sends]
    finite = [v for v in lat if math.isfinite(v)]
    ctx.job_walls.extend(finite)
    ctx.put_host_adjusted(len(finite) / elapsed)
    ledger.put("job_p50_s", median(lat), "s")
    ledger.put("job_p90_s", percentile(lat, 90.0), "s")
    ledger.put("jobs_completed", len(finite), "count")
    ledger.put("cycles", ran, "count")
    conn = daemon.connect()
    _, statz = get_json(conn, "/statz")
    _serve_layers(ctx, sends, statz)
    _check_results(ctx, conn, sends)
    conn.close()


def _open_loop(ctx: Ctx, daemon: Daemon, phases: list[list[Send]]) -> None:
    """Latency at fixed offered rates, and the serve layer (traced)."""
    ledger = ctx.ledger
    ctx.put_host_adjusted(Skipped("the open loop offers fixed rates"))
    conn = daemon.connect()
    backlog = {}
    for sends in phases:
        send_phase(daemon, sends)
        _, statz = get_json(conn, "/statz")
        backlog[sends[0].phase] = statz["queue"]["depth"]
        wait_idle(conn)
        for s in sends:
            if s.accepted:
                _, doc = get_json(conn, f"/jobs/{s.job_id}")
                s.doc = doc["job"]
    _, statz = get_json(conn, "/statz")
    sends = [s for phase in phases for s in phase]

    # per-rate latency and backlog, and the highest rate meeting the limit
    meets = []
    max_rate = None
    for phase, rate in RATES.items():
        mine = [latency(s) for s in sends if s.phase == phase]
        p90 = percentile(mine, 90.0)
        ledger.put(f"req_p50_s.{phase}", median(mine), "s")
        ledger.put(f"req_p90_s.{phase}", p90, "s")
        ledger.put(f"serve.backlog.{phase}", backlog[phase], "count")
        ledger.put(f"serve.queue_wait_s.{phase}", median(
            [s.doc["started_at"] - s.doc["submitted_at"]
             for s in sends if s.phase == phase and s.doc.get("started_at")]),
            "s")
        if isinstance(p90, Skipped):
            max_rate = Skipped(f"req_p90_s.{phase}: {p90.reason}")
        elif p90 <= LIMIT_S and backlog[phase] < BACKLOG_DEPTH:
            meets.append(rate)
    ledger.put("max_rate_rps", max_rate or max(meets, default=0.0), "1/s")

    _serve_layers(ctx, sends, statz)
    _check_results(ctx, conn, sends)
    conn.close()
    ctx.put_layer_metrics()


def _serve_layers(ctx: Ctx, sends: list[Send], statz: dict) -> None:
    ledger = ctx.ledger
    done = [s for s in sends if s.doc.get("status") == "done"]
    worker = [s.doc["finished_at"] - s.doc["started_at"] for s in done]
    render = [s.doc["result"]["duration_s"] for s in done]
    ledger.put("serve.submit_s", median(
        [s.submit_s for s in sends if s.accepted]), "s")
    ledger.put("serve.worker_s", median(worker), "s")
    ledger.put("serve.render_s", median(render), "s")
    ledger.put("serve.pipe_s", median(
        [w - r for w, r in zip(worker, render)]), "s")
    repeats = [s for s in sends if s.repeat]
    hits = sum(1 for s in repeats
               if s.doc.get("result", {}).get("cache") == "hit")
    if repeats:
        ledger.put("serve.cache_hit_ratio", hits / len(repeats), "ratio")
    else:
        ledger.skip("serve.cache_hit_ratio", "ratio", "no repeats sent")
    ledger.put("serve.rejected", sum(1 for s in sends if s.status == 429),
               "count")
    ledger.put("serve.failed", sum(1 for s in sends if s.status != 429
                                   and s.doc.get("status") != "done"),
               "count")
    ledger.put("serve.restarts", statz["workers"]["restarts"], "count")
    ledger.put("serve.queue_peak", statz["queue"]["peak"], "count")
    lags = [s.lag for s in sends if math.isfinite(s.lag)]  # open loop only
    ledger.put("serve.send_lag_p50_s", median(lags), "s")
    ledger.put("serve.send_lag_p90_s", percentile(lags, 90.0), "s")


def _check_results(ctx: Ctx, conn, sends: list[Send]) -> None:
    """Fetch every result: format check + SHA-256, and one request per
    (size, format) byte-compared with an in-process render."""
    fetch = []
    sampled = set()
    for s in sends:
        label = f"{s.phase}.{s.key}.{s.fmt}"
        if s.doc.get("status") != "done":
            # a refusal is a failed operation, a failed job a wrong one
            ctx.ledger.op(label, [f"request not done: HTTP {s.status}, "
                                  f"job {s.doc.get('status')}"],
                          wrong=s.accepted)
            continue
        start = perf_counter()
        conn.request("GET", f"/jobs/{s.job_id}/result")
        resp = conn.getresponse()
        data = resp.read()
        fetch.append(perf_counter() - start)
        request = RenderRequest(output_format=s.fmt)
        ctx.ledger.output(label, data)
        problems = [] if resp.status == 200 else [f"HTTP {resp.status}"]
        problems += check_output(s.fmt, data, request)
        if (s.size, s.fmt) not in sampled:
            sampled.add((s.size, s.fmt))
            canonical = canonical_schedule_bytes(
                from_dict(json.loads(s.body)["schedule"]))
            with ctx.tracer.span("core.from_canonical"):
                schedule = schedule_from_canonical(canonical)
            local = (render_layered(ctx.tracer, request, schedule,
                                    ctx.counts) if ctx.trace
                     else render_request_bytes(request, schedule))
            if local != data:
                problems.append("served bytes differ from an in-process "
                                "render of the same request")
        ctx.ledger.op(label, problems)
    ctx.ledger.put("serve.fetch_s", median(fetch), "s")
