"""``file-100k``: the file path at 100k tasks, LOD off.

One cycle is three jobs — Jedule-XML -> PNG, CSV -> SVG and CSV ->
Jedule-XML (``jedule convert``, the write path).  Per-task work dominates
every layer here: parse, per-task label work in layout, stroked rects in
raster, and the XML writer.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from collections import Counter

from harness import Ctx
from inputs import csv_chunks, jedule_xml_chunks, write_chunks
from pipeline import check_output, render_layered

from repro.io.registry import load_schedule, save_schedule
from repro.render.api import RenderRequest, execute_request, \
    render_request_bytes

N_TASKS = 100_000
#: cold starts timed before the first job and again after every job;
#: setup_s is the median of them all
COLD_STARTS = 2
COLD_IMPORT = "import repro.cli.main, repro.io.registry, repro.render.api"


def cold_starts(ctx: Ctx) -> None:
    """Time :data:`COLD_STARTS` fresh interpreters importing the io +
    render stack."""
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    for _ in range(COLD_STARTS):
        ctx.timed_setup(lambda: subprocess.run(
            [sys.executable, "-c", COLD_IMPORT], env=env, check=True,
            timeout=120))


def run(ctx: Ctx) -> None:
    work = ctx.workdir
    xml_in, csv_in = work / "in.jed", work / "in.csv"
    # the CSV -> XML job must reproduce the generated XML byte for byte
    reference_sha = write_chunks(xml_in, jedule_xml_chunks(N_TASKS, ctx.seed))
    write_chunks(csv_in, csv_chunks(N_TASKS, ctx.seed))
    cold_starts(ctx)

    def render_job(label, src, fmt, src_fmt):
        out = work / f"out.{fmt}"
        request = RenderRequest(input_path=str(src), output_path=str(out),
                                lod="off")

        def plain():
            execute_request(request)
            return out.read_bytes(), None

        def layered():
            counts = ctx.counts if ctx.counting else Counter()
            with ctx.tracer.span(f"io.load.{src_fmt}"):
                loaded = load_schedule(src)
            data = render_layered(ctx.tracer, request, loaded, counts)
            with ctx.tracer.span("io.write"):
                out.write_bytes(data)
            counts["io.bytes_in"] += src.stat().st_size
            counts["io.bytes_out"] += len(data)
            return data, loaded

        def check(result):
            data, loaded = result
            ctx.ledger.output(f"{label}.{fmt}", data)
            problems = check_output(fmt, data, request)
            if loaded is not None and \
                    render_request_bytes(request, loaded) != data:
                problems.append("layer-by-layer bytes differ from "
                                "render_request_bytes")
            return problems

        return label, layered if ctx.trace else plain, check

    def convert():
        out = work / "out.jed"
        with ctx.tracer.span("io.load.csv"):
            loaded = load_schedule(csv_in)
        with ctx.tracer.span("io.save.jedule"):
            save_schedule(loaded, out)
        return out

    def check_convert(out):
        if ctx.counting:
            ctx.counts["io.bytes_in"] += csv_in.stat().st_size
            ctx.counts["io.bytes_out"] += out.stat().st_size
        with open(out, "rb") as fh:
            digest = hashlib.file_digest(fh, "sha256").hexdigest()
        ctx.ledger.output_sha("csv-xml.jed", digest)
        if digest != reference_sha:
            return ["converted Jedule XML differs from the generated file"]
        return []

    ctx.cycles_until([
        render_job("xml-png", xml_in, "png", "jedule"),
        render_job("csv-svg", csv_in, "svg", "csv"),
        ("csv-xml", convert, check_convert),
    ], resetup=lambda: cold_starts(ctx))
    ctx.put_job_metrics()
    ctx.put_peak_rss()
    if ctx.trace:
        ctx.put_layer_metrics()
        coverage = ctx.ledger.metrics["trace.layer_coverage"].value
        # the layer self times must account for the job wall time
        ctx.ledger.op("layer-coverage",
                      [] if coverage >= 0.9 else
                      [f"layers cover {coverage:.3f} of job wall time"])
