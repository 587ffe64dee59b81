"""Reader/writer for the Jedule XML schedule format (paper Figure 1).

The format, reconstructed from the paper:

.. code-block:: xml

    <jedule version="1.0">
      <jedule_meta>
        <meta name="mindelta" value="-2"/>
      </jedule_meta>
      <platform>
        <cluster id="0" hosts="8" name="cluster 0"/>
      </platform>
      <node_infos>
        <node_statistics>
          <node_property name="id" value="1"/>
          <node_property name="type" value="computation"/>
          <node_property name="start_time" value="0.000"/>
          <node_property name="end_time" value="0.310"/>
          <configuration>
            <conf_property name="cluster_id" value="0"/>
            <conf_property name="host_nb" value="8"/>
            <host_lists>
              <hosts start="0" nb="8"/>
            </host_lists>
          </configuration>
        </node_statistics>
      </node_infos>
    </jedule>

A ``<node_statistics>`` may carry several ``<configuration>`` elements (e.g.
a communication between clusters), matching the paper's note that "a node
can have multiple configurations".  Per-task meta entries are stored as
extra ``<node_property>`` entries with names outside the reserved set.

Both directions stream: :func:`loads` builds the model from expat
start/end events as the elements arrive, and :func:`dumps` writes text
directly.  Neither holds the document as an element tree.
"""

from __future__ import annotations

import re
from pathlib import Path
from xml.parsers import expat

from repro.core.model import Cluster, Configuration, HostRange, Schedule, Task
from repro.errors import ParseError, ScheduleError
from repro.io.text import read_utf8
from repro.obs import core as _obs

__all__ = ["loads", "load", "dumps", "dump", "JEDULE_VERSION"]

JEDULE_VERSION = "1.0"

_RESERVED_NODE_PROPS = {"id", "type", "start_time", "end_time"}

# Reader contexts: the element whose direct children are being read.
# Anything not named in the reader below is skipped with its whole subtree.
(_SKIP, _DOC, _ROOT, _META, _PLATFORM, _INFOS, _HOST_LISTS,
 _NODE, _CONF) = range(9)
_SECTIONS = {"jedule_meta": _META, "platform": _PLATFORM, "node_infos": _INFOS}


def _props_error(tag: str, *, source: str, line: int) -> ParseError:
    return ParseError(f"<{tag}> needs name= and value=", source=source, line=line)


def _configuration(props: dict[str, str], ranges: list[tuple[int, int]],
                   hosts_error: ParseError | None, cache: dict, *,
                   source: str, line: int) -> Configuration:
    """The configuration a ``<configuration>`` element describes.

    ``hosts_error`` is the first bad ``<hosts>`` seen, if any.  ``cache``
    interns equal configurations (they are immutable) with their host
    count, so a schedule where many tasks share an allocation builds each
    one once.
    """
    cluster_id = props.get("cluster_id")
    if cluster_id is None:
        raise ParseError("<configuration> lacks conf_property cluster_id",
                         source=source, line=line)
    if hosts_error is not None:
        raise hosts_error
    if not ranges:
        raise ParseError("<configuration> has no <hosts> ranges", source=source, line=line)
    key = (cluster_id, *ranges)
    cached = cache.get(key)
    if cached is None:
        conf = Configuration(cluster_id, ranges)
        cached = cache[key] = conf, conf.num_hosts
    conf, num_hosts = cached
    declared = props.get("host_nb")
    if declared is not None:
        try:
            declared_nb = int(declared)
        except ValueError:
            raise ParseError(
                f"configuration host_nb must be an integer, got {declared!r}",
                source=source, line=line) from None
        if declared_nb != num_hosts:
            raise ParseError(
                f"configuration declares host_nb={declared} but host lists cover "
                f"{num_hosts} hosts", source=source, line=line)
    return conf


def _task(props: dict[str, str], confs: list[Configuration],
          conf_error: ParseError | None, *, source: str, line: int) -> Task:
    """The task a ``<node_statistics>`` element describes.

    ``conf_error`` is the first bad ``<configuration>`` seen, if any.
    """
    for required in ("id", "type", "start_time", "end_time"):
        if required not in props:
            raise ParseError(f"<node_statistics> lacks node_property {required!r}",
                             source=source, line=line)
    if conf_error is not None:
        raise conf_error
    if not confs:
        raise ParseError(f"task {props['id']!r} has no <configuration>",
                         source=source, line=line)
    try:
        start = float(props["start_time"])
        end = float(props["end_time"])
    except ValueError:
        raise ParseError(
            f"task {props['id']!r} has non-numeric times "
            f"({props['start_time']!r}, {props['end_time']!r})",
            source=source, line=line) from None
    # only the four reserved names fit in a four-entry dict that passed above
    meta = ({k: v for k, v in props.items() if k not in _RESERVED_NODE_PROPS}
            if len(props) > 4 else None)
    try:
        return Task(props["id"], props["type"], start, end, confs, meta)
    except ScheduleError as exc:
        raise ParseError(str(exc), source=source, line=line) from None


@_obs.span("parse.jedule_xml")
def loads(text: str, *, source: str = "<string>") -> Schedule:
    """Parse a Jedule XML document into a :class:`Schedule`.

    One expat pass; the model is built as the elements arrive.  The root
    must be ``<jedule>``; only its first ``<jedule_meta>``, ``<platform>``
    and ``<node_infos>`` count, only direct children are read and unknown
    elements are ignored.  When a document has several problems, the one
    reported is the first in this order: malformed XML, the root, the
    meta block, the platform, then the tasks in document order.  Within
    an element the order is that of the checks in :func:`_task` and
    :func:`_configuration`, whatever order the children arrive in.
    """
    parser = expat.ParserCreate(None, "}")
    schedule = Schedule()
    stack = [_DOC]
    push, pop = stack.append, stack.pop
    seen: set[int] = set()            # sections already read: the first counts
    root_error = meta_error = cluster_error = task_error = None
    platform_line = 0
    meta: dict[str, str] = {}
    tasks: list[Task] = []            # added after the parse, every cluster known
    task_lines: list[int] = []
    conf_cache: dict = {}
    # the <node_statistics> and <configuration> being read, with the first
    # error of each kind found in them so far
    node_line = 0
    node_props: dict[str, str] = {}
    node_confs: list[Configuration] = []
    prop_error = conf_error = None
    conf_props: dict[str, str] = {}
    conf_ranges: list[tuple[int, int]] = []
    conf_prop_error = hosts_error = None

    def start(name, attrs):
        nonlocal root_error, meta_error, cluster_error, platform_line, node_line, \
            node_props, node_confs, prop_error, conf_error, conf_props, \
            conf_ranges, conf_prop_error, hosts_error
        ctx = stack[-1]
        if ctx == _NODE:
            if name == "node_property":
                try:
                    node_props[attrs["name"]] = attrs["value"]
                except KeyError:
                    if prop_error is None:
                        prop_error = _props_error(name, source=source, line=node_line)
            elif name == "configuration":
                conf_props, conf_ranges = {}, []
                conf_prop_error = hosts_error = None
                push(_CONF)
                return
        elif ctx == _CONF:
            if name == "conf_property":
                try:
                    conf_props[attrs["name"]] = attrs["value"]
                except KeyError:
                    if conf_prop_error is None:
                        conf_prop_error = _props_error(name, source=source,
                                                       line=node_line)
            elif name == "host_lists":
                push(_HOST_LISTS)
                return
        elif ctx == _HOST_LISTS:
            if name == "hosts" and hosts_error is None:
                try:
                    first, nb = int(attrs.get("start", "")), int(attrs.get("nb", ""))
                except ValueError:
                    hosts_error = ParseError(
                        f"<hosts> needs integer start=/nb=, got "
                        f"start={attrs.get('start')!r} nb={attrs.get('nb')!r}",
                        source=source, line=node_line)
                else:
                    if first < 0 or nb <= 0:     # the model words the error
                        try:
                            HostRange(first, nb)
                        except ScheduleError as exc:
                            hosts_error = ParseError(str(exc), source=source,
                                                     line=node_line)
                    else:
                        conf_ranges.append((first, nb))
        elif ctx == _INFOS:
            if name == "node_statistics" and task_error is None:
                node_line = parser.CurrentLineNumber
                node_props, node_confs = {}, []
                prop_error = conf_error = None
                push(_NODE)
                return
        elif ctx == _PLATFORM:
            if name == "cluster" and cluster_error is None:
                cid, hosts = attrs.get("id"), attrs.get("hosts")
                line = parser.CurrentLineNumber
                if cid is None or hosts is None:
                    cluster_error = ParseError("<cluster> needs id= and hosts=",
                                               source=source, line=line)
                else:
                    try:
                        schedule.add_cluster(Cluster(cid, int(hosts), attrs.get("name")))
                    except ValueError:
                        cluster_error = ParseError(
                            f"<cluster id={cid!r}> has non-integer hosts={hosts!r}",
                            source=source, line=line)
                    except ScheduleError as exc:
                        cluster_error = ParseError(str(exc), source=source, line=line)
        elif ctx == _META:
            if name == "meta" and meta_error is None:
                try:
                    meta[attrs["name"]] = attrs["value"]
                except KeyError:
                    meta_error = _props_error(name, source=source,
                                              line=parser.CurrentLineNumber)
        elif ctx == _ROOT:
            section = _SECTIONS.get(name)
            if section is not None and section not in seen:
                seen.add(section)
                if section == _PLATFORM:
                    platform_line = parser.CurrentLineNumber
                push(section)
                return
        elif ctx == _DOC:
            if name == "jedule":
                push(_ROOT)
                return
            if "}" in name:                  # namespaced: ElementTree's {uri}tag
                name = "{" + name
            root_error = ParseError(f"root element is <{name}>, expected <jedule>",
                                    source=source, line=parser.CurrentLineNumber)
        push(_SKIP)

    def end(name):
        nonlocal conf_error, task_error
        ctx = pop()
        if ctx == _CONF:
            if conf_error is None:
                try:
                    if conf_prop_error is not None:
                        raise conf_prop_error
                    node_confs.append(_configuration(
                        conf_props, conf_ranges, hosts_error, conf_cache,
                        source=source, line=node_line))
                except ParseError as exc:
                    conf_error = exc
        elif ctx == _NODE:
            try:
                if prop_error is not None:
                    raise prop_error
                tasks.append(_task(node_props, node_confs, conf_error,
                                   source=source, line=node_line))
                task_lines.append(node_line)
            except ParseError as exc:
                task_error = exc

    def skipped_entity(name, is_parameter_entity):
        # an undeclared entity that expat may skip (the document names an
        # external DTD) is still an error, as it is for ElementTree
        if not is_parameter_entity:
            line = parser.CurrentLineNumber
            raise ParseError(f"malformed XML: undefined entity &{name};: line {line}, "
                             f"column {parser.CurrentColumnNumber}",
                             source=source, line=line)

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.SkippedEntityHandler = skipped_entity
    try:
        parser.Parse(text, False)
        parser.Parse("", True)
    except expat.ExpatError as exc:
        raise ParseError(f"malformed XML: {exc}", source=source,
                         line=exc.lineno) from exc
    finally:
        # the handlers close over the parser; breaking that cycle lets
        # reference counting free the parse state instead of a full GC
        parser.StartElementHandler = parser.EndElementHandler = None
        parser.SkippedEntityHandler = None

    for error in (root_error, meta_error):
        if error is not None:
            raise error
    schedule.meta.update(meta)
    if _PLATFORM not in seen:
        raise ParseError("missing <platform> (at least one cluster is required)",
                         source=source)
    if cluster_error is not None:
        raise cluster_error
    if not schedule.clusters:
        raise ParseError("<platform> defines no clusters", source=source,
                         line=platform_line)
    for task, line in zip(tasks, task_lines):
        try:
            schedule.add_task(task)
        except ScheduleError as exc:
            raise ParseError(str(exc), source=source, line=line) from None
    if task_error is not None:
        raise task_error
    if _INFOS in seen:
        _obs.add("io.records", len(tasks))
    return schedule


def load(path: str | Path) -> Schedule:
    """Read a Jedule XML file."""
    path = Path(path)
    return loads(read_utf8(path), source=str(path))


_ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                               "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"})
_NEEDS_ESCAPE = re.compile('[&<>"\r\n\t]').search


def _attr(value: str) -> str:
    """An attribute value escaped exactly as ElementTree escapes it."""
    return value.translate(_ATTR_ESCAPES) if _NEEDS_ESCAPE(value) else value


def _prop(tag: str, indent: str, name: str, value: str) -> str:
    return f'{indent}<{tag} name="{_attr(name)}" value="{_attr(value)}" />\n'


def dumps(schedule: Schedule) -> str:
    """Serialize a schedule to Jedule XML.

    The output is byte for byte what ElementTree writes for the same
    document after ``ET.indent``: a single-quoted declaration, two-space
    indentation, `` />`` for empty elements, and a lone surrogate as a
    ``&#NNNNN;`` character reference.
    """
    out = ["<?xml version='1.0' encoding='utf-8'?>\n",
           f'<jedule version="{JEDULE_VERSION}">\n']
    write = out.append
    if schedule.meta:
        write("  <jedule_meta>\n")
        for k, v in schedule.meta.items():
            write(_prop("meta", "    ", k, str(v)))
        write("  </jedule_meta>\n")
    clusters = schedule.clusters
    if clusters:
        write("  <platform>\n")
        for c in clusters:
            name = "" if c.name is None else f' name="{_attr(c.name)}"'
            write(f'    <cluster id="{_attr(c.id)}" hosts="{c.num_hosts}"{name} />\n')
        write("  </platform>\n")
    else:
        write("  <platform />\n")
    tasks = schedule.tasks
    if not tasks:
        write("  <node_infos />\n</jedule>\n")
    else:
        write("  <node_infos>\n")
        # Loaders intern equal configurations, so many tasks share one:
        # each distinct one is formatted once.  Keyed by identity, which
        # the schedule keeps alive for the whole call.
        conf_texts: dict[int, str] = {}
        for t in tasks:
            write('    <node_statistics>\n'
                  f'      <node_property name="id" value="{_attr(t.id)}" />\n'
                  f'      <node_property name="type" value="{_attr(t.type)}" />\n'
                  f'      <node_property name="start_time" value="{t.start_time!r}" />\n'
                  f'      <node_property name="end_time" value="{t.end_time!r}" />\n')
            for k, v in t.meta.items():
                write(_prop("node_property", "      ", k, str(v)))
            for conf in t.configurations:
                piece = conf_texts.get(id(conf))
                if piece is None:
                    piece = conf_texts[id(conf)] = _conf_text(conf)
                write(piece)
            write("    </node_statistics>\n")
        write("  </node_infos>\n</jedule>\n")
    text = "".join(out)
    if not text.isascii():
        text = text.encode("utf-8", "xmlcharrefreplace").decode("utf-8")
    return text


def _conf_text(conf: Configuration) -> str:
    hosts = "".join(f'          <hosts start="{r.start}" nb="{r.nb}" />\n'
                    for r in conf.host_ranges)
    return ("      <configuration>\n"
            f'        <conf_property name="cluster_id" value="{_attr(conf.cluster_id)}" />\n'
            f'        <conf_property name="host_nb" value="{conf.num_hosts}" />\n'
            "        <host_lists>\n"
            f"{hosts}"
            "        </host_lists>\n"
            "      </configuration>\n")


def dump(schedule: Schedule, path: str | Path) -> None:
    """Write a schedule to a Jedule XML file."""
    Path(path).write_text(dumps(schedule), encoding="utf-8")
