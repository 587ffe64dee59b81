"""Seeded input generators; the program only ever sees what these make.

The file inputs are written as text straight from the generator, in
exactly the bytes the program's own Jedule-XML and CSV writers produce
(``perfbench/tests`` holds that equality), so setup does not pay for the
writers under test and the ``csv-xml`` job has a reference to match.
"""

from __future__ import annotations

import hashlib
import random

HOSTS = 1024
TYPES = ("ft", "lu", "mg", "cg")

_XML_HEAD = (
    "<?xml version='1.0' encoding='utf-8'?>\n"
    '<jedule version="1.0">\n'
    "  <platform>\n"
    f'    <cluster id="c0" hosts="{HOSTS}" name="c0" />\n'
    "  </platform>\n"
    "  <node_infos>\n")
_XML_TASK = (
    "    <node_statistics>\n"
    '      <node_property name="id" value="{0}" />\n'
    '      <node_property name="type" value="{1}" />\n'
    '      <node_property name="start_time" value="{2!r}" />\n'
    '      <node_property name="end_time" value="{3!r}" />\n'
    "      <configuration>\n"
    '        <conf_property name="cluster_id" value="c0" />\n'
    '        <conf_property name="host_nb" value="{5}" />\n'
    "        <host_lists>\n"
    '          <hosts start="{4}" nb="{5}" />\n'
    "        </host_lists>\n"
    "      </configuration>\n"
    "    </node_statistics>\n")
_XML_TAIL = "  </node_infos>\n</jedule>\n"
_CSV_HEAD = (f"# cluster,c0,{HOSTS},c0\n"
             "task_id,type,start,end,cluster,hosts\n")


def _tasks(n: int, seed: int):
    """The rigid-job cluster-trace shape of the LOD scaling benchmark:
    ``(id, type, start, end, first host, host count)`` per task."""
    rng = random.Random(seed)
    for i in range(n):
        start = rng.uniform(0.0, 100_000.0)
        duration = rng.uniform(10.0, 3_000.0)
        yield (f"j{i}", rng.choice(TYPES), start, start + duration,
               rng.randrange(HOSTS - 8), rng.randint(1, 8))


def jedule_xml_chunks(n: int, seed: int):
    """``n`` tasks on one cluster as Jedule XML (``n`` >= 1), in pieces."""
    yield _XML_HEAD
    for t in _tasks(n, seed):
        yield _XML_TASK.format(*t)
    yield _XML_TAIL


def csv_chunks(n: int, seed: int):
    """The same schedule in the CSV format, in pieces."""
    yield _CSV_HEAD
    for tid, ttype, start, end, host, nb in _tasks(n, seed):
        yield (f"{tid},{ttype},{start!r},{end!r},c0,"
               f"{host if nb == 1 else f'{host}-{host + nb - 1}'}\n")


def write_chunks(path, chunks) -> str:
    """Write text ``chunks`` to ``path`` as UTF-8, a piece at a time, so
    the whole file is never held in memory; returns its SHA-256."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            data = chunk.encode("utf-8")
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def synthetic_doc(n: int, seed: int) -> dict:
    """The same schedule as a ``/render`` inline schedule document."""
    return {
        "meta": {},
        "clusters": [{"id": "c0", "hosts": HOSTS, "name": "c0"}],
        "tasks": [{"id": tid, "type": ttype, "start": start, "end": end,
                   "configurations": [{"cluster": "c0",
                                       "ranges": [[host, nb]]}],
                   "meta": {}}
                  for tid, ttype, start, end, host, nb in _tasks(n, seed)],
    }
