"""Tests for the Standard Workload Format reader/writer."""

from __future__ import annotations

import pytest

from repro.errors import ParseError
from repro.io import swf

SAMPLE = """\
; Version: 2
; Computer: Thunder
; MaxProcs: 4008
; MaxNodes: 1002
1 0 10 3600 16 -1 -1 16 7200 -1 1 6447 3 -1 1 -1 -1 -1
2 100 0 60 4 -1 -1 4 120 -1 0 12 3 -1 1 -1 -1 -1
3 200 50 1e3 8 -1 -1 8 2000 -1 5 6447 3 -1 1 -1 -1 -1
4 300 0 500 2 -1 -1 2 600 -1 4 99 3 -1 1 -1 -1 -1
"""


def test_parse_header():
    trace = swf.loads(SAMPLE)
    assert trace.header["Computer"] == "Thunder"
    assert trace.max_procs == 4008


def test_max_procs_fallback_without_header():
    trace = swf.loads("1 0 0 10 32\n")
    assert trace.max_procs == 32


def test_parse_jobs():
    trace = swf.loads(SAMPLE)
    assert len(trace.jobs) == 4
    j = trace.jobs[0]
    assert j.job_id == 1
    assert j.submit_time == 0.0
    assert j.wait_time == 10.0
    assert j.run_time == 3600.0
    assert j.allocated_procs == 16
    assert j.user_id == 6447
    assert j.start_time == 10.0
    assert j.end_time == 3610.0


def test_scientific_notation_runtime():
    trace = swf.loads(SAMPLE)
    assert trace.jobs[2].run_time == 1000.0


def test_completed_filter():
    trace = swf.loads(SAMPLE)
    completed = trace.completed_jobs()
    # statuses 1, 0, 5 complete; status 4 (job 4) does not
    assert [j.job_id for j in completed] == [1, 2, 3]


def test_jobs_of_user():
    trace = swf.loads(SAMPLE)
    assert [j.job_id for j in trace.jobs_of_user(6447)] == [1, 3]


def test_finished_within():
    trace = swf.loads(SAMPLE)
    # job 2 ends at 160, job 3 at 1250, job 4 at 800
    within = trace.finished_within(100.0, 1000.0)
    assert [j.job_id for j in within] == [2, 4]


def test_short_line_padded_with_missing():
    job = swf.SWFJob.from_line("7 10 5 100 8")
    assert job.requested_procs == -1
    assert job.user_id == -1


def test_too_short_line_rejected():
    with pytest.raises(ParseError, match="fields"):
        swf.SWFJob.from_line("7 10 5")


def test_bad_field_rejected_with_line_number():
    with pytest.raises(ParseError, match="line 2"):
        swf.loads("1 0 0 10 4\n2 x 0 10 4\n")


def test_roundtrip():
    trace = swf.loads(SAMPLE)
    back = swf.loads(swf.dumps(trace))
    assert back.header == trace.header
    assert back.jobs == trace.jobs


def test_file_roundtrip(tmp_path):
    path = tmp_path / "trace.swf"
    trace = swf.loads(SAMPLE)
    swf.dump(trace, path)
    assert swf.load(path).jobs == trace.jobs


def test_iter_jobs_streams():
    jobs = list(swf.iter_jobs(SAMPLE))
    assert len(jobs) == 4


def test_header_lines_without_colon_ignored():
    trace = swf.loads("; just a comment line\n1 0 0 10 4\n")
    assert trace.header == {}
    assert len(trace.jobs) == 1


def test_header_key_with_spaces_ignored():
    # PWA headers mix metadata with prose like "; This data set: ...".
    trace = swf.loads("; This data set: converted from logs\n; MaxProcs: 8\n1 0 0 10 4\n")
    assert trace.header == {"MaxProcs": "8"}


def test_malformed_max_procs_falls_back_to_widest_job():
    trace = swf.loads("; MaxProcs: lots\n1 0 0 10 4\n2 0 0 10 64\n")
    assert trace.max_procs == 64


def test_short_data_line_in_document_padded():
    trace = swf.loads("1 0 0 10 4\n2 5 0 20 8\n")
    assert all(j.requested_procs in (-1, 4, 8) for j in trace.jobs)
    assert trace.jobs[1].allocated_procs == 8


def test_iter_load_streams_file(tmp_path):
    path = tmp_path / "trace.swf"
    path.write_text(SAMPLE, encoding="utf-8")
    header: dict[str, str] = {}
    it = swf.iter_load(path, header=header)
    first = next(it)
    assert first.job_id == 1
    # all header lines precede the first data line, so they are in by now
    assert header["MaxProcs"] == "4008"
    assert [j.job_id for j in it] == [2, 3, 4]


def test_iter_load_matches_load(tmp_path):
    path = tmp_path / "trace.swf"
    path.write_text(SAMPLE, encoding="utf-8")
    assert list(swf.iter_load(path)) == swf.load(path).jobs


def test_iter_load_is_lazy(tmp_path):
    path = tmp_path / "trace.swf"
    path.write_text(SAMPLE + "oops not a job line\n", encoding="utf-8")
    it = swf.iter_load(path)
    # the bad trailing line is only parsed when the iterator reaches it
    assert next(it).job_id == 1
    with pytest.raises(ParseError, match="line 9"):
        list(it)


def test_load_header_reads_only_leading_comments(tmp_path):
    path = tmp_path / "trace.swf"
    path.write_text(SAMPLE + "; TrailerKey: ignored\n", encoding="utf-8")
    header = swf.load_header(path)
    assert header["Computer"] == "Thunder"
    assert "TrailerKey" not in header


def test_load_header_empty_file(tmp_path):
    path = tmp_path / "trace.swf"
    path.write_text("", encoding="utf-8")
    assert swf.load_header(path) == {}


@pytest.mark.parametrize("read", [swf.load, lambda p: list(swf.iter_load(p))],
                         ids=["load", "iter_load"])
def test_non_utf8_data_line_is_a_parse_error(tmp_path, read):
    path = tmp_path / "trace.swf"
    lines = SAMPLE.encode("utf-8").splitlines(keepends=True)
    # a multi-byte character before the bad byte: the offset counts bytes
    lines[5] = b"2 100 0 60 4 -1 -1 4 120 -1 0 12 3 -1 1 -1 -1 -1 \xc3\xa9\xff\n"
    path.write_bytes(b"".join(lines))
    offset = len(b"".join(lines[:5])) + lines[5].index(b"\xff")
    with pytest.raises(ParseError, match=f"0xff at byte offset {offset}") as ei:
        read(path)
    assert ei.value.source == str(path)
    assert ei.value.line == 6


def test_non_utf8_header_is_a_parse_error(tmp_path):
    path = tmp_path / "trace.swf"
    path.write_bytes(b"; Computer: Th\x80under\r\n" + SAMPLE.encode("utf-8"))
    with pytest.raises(ParseError, match="0x80 at byte offset 14") as ei:
        swf.load_header(path)
    assert ei.value.line == 1


def test_utf8_and_crlf_lines_still_load(tmp_path):
    path = tmp_path / "trace.swf"
    text = "; Computer: Thünder\r\n" + SAMPLE.replace("\n", "\r\n")
    path.write_bytes(text.encode("utf-8"))
    assert swf.load_header(path)["Computer"] == "Thünder"
    assert swf.load(path).jobs == swf.loads(SAMPLE).jobs
