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
"""

from __future__ import annotations

import io as _io
import xml.etree.ElementTree as ET
from pathlib import Path

from repro.core.model import Cluster, Configuration, HostRange, Schedule, Task
from repro.errors import ParseError
from repro.io.text import read_utf8
from repro.obs import core as _obs

__all__ = ["loads", "load", "dumps", "dump", "JEDULE_VERSION"]

JEDULE_VERSION = "1.0"

_RESERVED_NODE_PROPS = {"id", "type", "start_time", "end_time"}


def _properties(elem: ET.Element, tag: str, *, source: str) -> dict[str, str]:
    """Collect ``<tag name=".." value=".."/>`` children into a dict."""
    props: dict[str, str] = {}
    for child in elem.findall(tag):
        name = child.get("name")
        value = child.get("value")
        if name is None or value is None:
            raise ParseError(f"<{tag}> needs name= and value=", source=source)
        props[name] = value
    return props


def _parse_configuration(elem: ET.Element, *, source: str) -> Configuration:
    props = _properties(elem, "conf_property", source=source)
    cluster_id = props.get("cluster_id")
    if cluster_id is None:
        raise ParseError("<configuration> lacks conf_property cluster_id", source=source)
    ranges: list[HostRange] = []
    for hl in elem.findall("host_lists"):
        for hosts in hl.findall("hosts"):
            try:
                ranges.append(HostRange(int(hosts.get("start", "")), int(hosts.get("nb", ""))))
            except (TypeError, ValueError):
                raise ParseError(
                    f"<hosts> needs integer start=/nb=, got start={hosts.get('start')!r} "
                    f"nb={hosts.get('nb')!r}", source=source) from None
    if not ranges:
        raise ParseError("<configuration> has no <hosts> ranges", source=source)
    conf = Configuration(cluster_id, ranges)
    declared = props.get("host_nb")
    if declared is not None:
        try:
            declared_nb = int(declared)
        except ValueError:
            raise ParseError(
                f"configuration host_nb must be an integer, got {declared!r}",
                source=source) from None
        if declared_nb != conf.num_hosts:
            raise ParseError(
                f"configuration declares host_nb={declared} but host lists cover "
                f"{conf.num_hosts} hosts", source=source)
    return conf


def _parse_task(elem: ET.Element, *, source: str) -> Task:
    props = _properties(elem, "node_property", source=source)
    for required in ("id", "type", "start_time", "end_time"):
        if required not in props:
            raise ParseError(f"<node_statistics> lacks node_property {required!r}",
                             source=source)
    confs = [_parse_configuration(c, source=source) for c in elem.findall("configuration")]
    if not confs:
        raise ParseError(f"task {props['id']!r} has no <configuration>", source=source)
    try:
        start = float(props["start_time"])
        end = float(props["end_time"])
    except ValueError:
        raise ParseError(
            f"task {props['id']!r} has non-numeric times "
            f"({props['start_time']!r}, {props['end_time']!r})", source=source) from None
    meta = {k: v for k, v in props.items() if k not in _RESERVED_NODE_PROPS}
    return Task(props["id"], props["type"], start, end, confs, meta)


@_obs.span("parse.jedule_xml")
def loads(text: str, *, source: str = "<string>") -> Schedule:
    """Parse a Jedule XML document into a :class:`Schedule`."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ParseError(f"malformed XML: {exc}", source=source) from exc
    if root.tag != "jedule":
        raise ParseError(f"root element is <{root.tag}>, expected <jedule>", source=source)

    schedule = Schedule()
    meta_elem = root.find("jedule_meta")
    if meta_elem is not None:
        schedule.meta.update(_properties(meta_elem, "meta", source=source))

    platform = root.find("platform")
    if platform is None:
        raise ParseError("missing <platform> (at least one cluster is required)",
                         source=source)
    for cl in platform.findall("cluster"):
        cid = cl.get("id")
        hosts = cl.get("hosts")
        if cid is None or hosts is None:
            raise ParseError("<cluster> needs id= and hosts=", source=source)
        try:
            schedule.add_cluster(Cluster(cid, int(hosts), cl.get("name")))
        except ValueError:
            raise ParseError(f"<cluster id={cid!r}> has non-integer hosts={hosts!r}",
                             source=source) from None
    if not schedule.clusters:
        raise ParseError("<platform> defines no clusters", source=source)

    infos = root.find("node_infos")
    if infos is not None:
        records = 0
        for node in infos.findall("node_statistics"):
            schedule.add_task(_parse_task(node, source=source))
            records += 1
        _obs.add("io.records", records)
    return schedule


def load(path: str | Path) -> Schedule:
    """Read a Jedule XML file."""
    path = Path(path)
    return loads(read_utf8(path), source=str(path))


def _prop(parent: ET.Element, tag: str, name: str, value: str) -> None:
    ET.SubElement(parent, tag, name=name, value=value)


def _format_time(t: float) -> str:
    """Times serialized with round-trip precision."""
    return repr(float(t))


def dumps(schedule: Schedule, *, indent: bool = True) -> str:
    """Serialize a schedule to Jedule XML."""
    root = ET.Element("jedule", version=JEDULE_VERSION)
    if schedule.meta:
        meta = ET.SubElement(root, "jedule_meta")
        for k, v in schedule.meta.items():
            _prop(meta, "meta", k, str(v))
    platform = ET.SubElement(root, "platform")
    for c in schedule.clusters:
        attrs = {"id": c.id, "hosts": str(c.num_hosts)}
        if c.name is not None:
            attrs["name"] = c.name
        ET.SubElement(platform, "cluster", attrs)
    infos = ET.SubElement(root, "node_infos")
    for t in schedule.tasks:
        node = ET.SubElement(infos, "node_statistics")
        _prop(node, "node_property", "id", t.id)
        _prop(node, "node_property", "type", t.type)
        _prop(node, "node_property", "start_time", _format_time(t.start_time))
        _prop(node, "node_property", "end_time", _format_time(t.end_time))
        for k, v in t.meta.items():
            _prop(node, "node_property", k, str(v))
        for conf in t.configurations:
            ce = ET.SubElement(node, "configuration")
            _prop(ce, "conf_property", "cluster_id", conf.cluster_id)
            _prop(ce, "conf_property", "host_nb", str(conf.num_hosts))
            hl = ET.SubElement(ce, "host_lists")
            for r in conf.host_ranges:
                ET.SubElement(hl, "hosts", start=str(r.start), nb=str(r.nb))
    if indent:
        ET.indent(root)
    buf = _io.BytesIO()
    ET.ElementTree(root).write(buf, encoding="utf-8", xml_declaration=True)
    return buf.getvalue().decode("utf-8") + "\n"


def dump(schedule: Schedule, path: str | Path, **kwargs) -> None:
    """Write a schedule to a Jedule XML file."""
    Path(path).write_text(dumps(schedule, **kwargs), encoding="utf-8")
