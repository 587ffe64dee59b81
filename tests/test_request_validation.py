"""One request-validation table, run through every front end.

The library constructor, the serve wire decoder, batch manifests and a
live ``POST /render`` must all reject the same malformed fields with the
same structured error: a ``ReproError`` carrying ``code`` and ``field``
(a located ``ParseError`` for manifests, a 400 from the daemon).  No
``TypeError``/``ValueError`` may escape and no connection may drop.
"""

from __future__ import annotations

import pytest

from repro.batch.manifest import manifest_requests
from repro.errors import ParseError, RenderError, ServeError
from repro.render.api import RenderRequest
from repro.serve.client import ServeClient
from repro.serve.protocol import request_from_payload
from repro.serve.server import RenderServer

#: (field, bad value, code, field the error names)
BAD_FIELDS = [
    ("mode", "bogus", "invalid-value", "mode"),
    ("mode", 5, "invalid-type", "mode"),
    ("window", 5, "invalid-value", "window"),
    ("window", ("a", "b"), "invalid-type", "window[0]"),
    ("types", 5, "invalid-type", "types"),
    ("types", [1, 2], "invalid-type", "types"),
    ("title", 5, "invalid-type", "title"),
    ("grayscale", "yes", "invalid-type", "grayscale"),
    ("input_path", 5, "invalid-type", "input_path"),
    ("html_tiers", 99, "invalid-dimension", "html_tiers"),
]

#: manifest key of a RenderRequest field, where the two differ
_MANIFEST_KEY = {"input_path": "input"}


def _ids(row):
    return f"{row[0]}={row[1]!r}"


def _wire(field, value):
    return {field: list(value) if isinstance(value, tuple) else value}


@pytest.mark.parametrize("row", BAD_FIELDS, ids=_ids)
def test_library_raises_coded_render_error(row):
    field, value, code, named = row
    with pytest.raises(RenderError) as err:
        RenderRequest(**{field: value})
    assert (err.value.code, err.value.field) == (code, named)


@pytest.mark.parametrize("row", BAD_FIELDS, ids=_ids)
def test_wire_raises_serve_error_with_same_code(row):
    field, value, code, named = row
    with pytest.raises(ServeError) as err:
        request_from_payload(_wire(field, value))
    assert (err.value.code, err.value.field) == (code, named)


@pytest.mark.parametrize("row", BAD_FIELDS, ids=_ids)
def test_manifest_raises_located_parse_error(row, tmp_path):
    field, value, _, _ = row
    entry = {"input": "b.jed", _MANIFEST_KEY.get(field, field): value}
    doc = {"jobs": [{"input": "a.jed"}, entry]}
    with pytest.raises(ParseError) as err:
        manifest_requests(doc, base_dir=tmp_path, source="figs.json")
    assert str(err.value).startswith("jobs[1]: ")
    assert err.value.source == "figs.json"


@pytest.fixture(scope="module")
def server():
    server = RenderServer(workers=1, port=0, cache_dir=None).start()
    try:
        yield server
    finally:
        server.drain()
        assert server.wait(timeout=30)


@pytest.mark.parametrize("row", BAD_FIELDS, ids=_ids)
def test_daemon_answers_400_and_stays_healthy(row, server):
    field, value, code, named = row
    client = ServeClient(server.url)
    status, _, body = client.request(
        "POST", "/render", {"request": _wire(field, value)})
    assert status == 400, body
    assert (body["error"]["code"], body["error"]["field"]) == (code, named)
    assert client.healthz()["ok"] is True


def test_bare_string_filter_is_one_element_list_everywhere(tmp_path):
    expected = ("comp",)
    assert RenderRequest(types="comp").types == expected
    assert request_from_payload({"clusters": "comp"}).clusters == expected
    [request] = manifest_requests(
        {"jobs": [{"input": "a.jed", "types": "comp"}]}, base_dir=tmp_path)
    assert request.types == expected
