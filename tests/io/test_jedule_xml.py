"""Tests for the Jedule XML format (paper Figure 1)."""

from __future__ import annotations

import gc
import io
import weakref
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.model import Configuration, Schedule, Task
from repro.errors import ParseError
from repro.io import jedule_xml


FIGURE1_DOC = """\
<jedule version="1.0">
  <platform>
    <cluster id="0" hosts="8"/>
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
"""


def test_parse_figure1_example():
    s = jedule_xml.loads(FIGURE1_DOC)
    assert len(s.clusters) == 1
    assert s.cluster("0").num_hosts == 8
    task = s.task("1")
    assert task.type == "computation"
    assert task.start_time == 0.0
    assert task.end_time == pytest.approx(0.31)
    assert task.hosts_in("0") == tuple(range(8))


def test_roundtrip_preserves_everything(multi_cluster_schedule):
    multi_cluster_schedule.meta["mindelta"] = "-2"
    text = jedule_xml.dumps(multi_cluster_schedule)
    back = jedule_xml.loads(text)
    assert back.meta == multi_cluster_schedule.meta
    assert [c.id for c in back.clusters] == ["a", "b"]
    assert len(back) == len(multi_cluster_schedule)
    for orig in multi_cluster_schedule:
        t = back.task(orig.id)
        assert t.type == orig.type
        assert t.start_time == orig.start_time
        assert t.end_time == orig.end_time
        assert t.configurations == orig.configurations


def test_roundtrip_task_meta():
    s = Schedule()
    s.new_cluster(0, 2)
    s.new_task(1, "job", 0, 1, cluster=0, host_start=0, host_nb=1,
               meta={"user": "6447", "note": "hello world"})
    back = jedule_xml.loads(jedule_xml.dumps(s))
    assert back.task("1").meta == {"user": "6447", "note": "hello world"}


def test_roundtrip_float_precision():
    s = Schedule()
    s.new_cluster(0, 1)
    s.new_task(1, "x", 0.1 + 0.2, 1.0 / 3.0 + 1, cluster=0, host_start=0, host_nb=1)
    back = jedule_xml.loads(jedule_xml.dumps(s))
    assert back.task("1").start_time == s.task("1").start_time
    assert back.task("1").end_time == s.task("1").end_time


def test_multi_configuration_task_roundtrips():
    s = Schedule()
    s.new_cluster("a", 4)
    s.new_cluster("b", 4)
    s.new_task("comm", "transfer", 0, 1, configurations=[
        Configuration("a", [(0, 2)]), Configuration("b", [(1, 2)])])
    back = jedule_xml.loads(jedule_xml.dumps(s))
    t = back.task("comm")
    assert len(t.configurations) == 2
    assert t.hosts_in("b") == (1, 2)


def test_file_roundtrip(tmp_path, simple_schedule):
    path = tmp_path / "sched.jed"
    jedule_xml.dump(simple_schedule, path)
    back = jedule_xml.load(path)
    assert len(back) == 2


def test_bad_xml_rejected():
    with pytest.raises(ParseError, match="malformed XML"):
        jedule_xml.loads("<jedule><unclosed>")


def test_wrong_root_rejected():
    with pytest.raises(ParseError, match="expected <jedule>"):
        jedule_xml.loads("<notjedule/>")


def test_missing_platform_rejected():
    with pytest.raises(ParseError, match="platform"):
        jedule_xml.loads("<jedule><node_infos/></jedule>")


def test_empty_platform_rejected():
    with pytest.raises(ParseError, match="no clusters"):
        jedule_xml.loads("<jedule><platform/></jedule>")


def test_cluster_missing_attrs_rejected():
    with pytest.raises(ParseError, match="cluster"):
        jedule_xml.loads('<jedule><platform><cluster id="0"/></platform></jedule>')


def test_task_missing_required_property():
    doc = FIGURE1_DOC.replace(
        '<node_property name="type" value="computation"/>', "")
    with pytest.raises(ParseError, match="type"):
        jedule_xml.loads(doc)


def test_task_without_configuration_rejected():
    doc = FIGURE1_DOC.replace(
        FIGURE1_DOC[FIGURE1_DOC.index("<configuration>"):
                    FIGURE1_DOC.index("</configuration>") + len("</configuration>")],
        "")
    with pytest.raises(ParseError, match="no <configuration>"):
        jedule_xml.loads(doc)


def test_host_nb_mismatch_rejected():
    doc = FIGURE1_DOC.replace('name="host_nb" value="8"', 'name="host_nb" value="4"')
    with pytest.raises(ParseError, match="host_nb=4"):
        jedule_xml.loads(doc)


def test_nonnumeric_time_rejected():
    doc = FIGURE1_DOC.replace('name="start_time" value="0.000"',
                              'name="start_time" value="soon"')
    with pytest.raises(ParseError, match="non-numeric"):
        jedule_xml.loads(doc)


def test_bad_hosts_attrs_rejected():
    doc = FIGURE1_DOC.replace('<hosts start="0" nb="8"/>', '<hosts start="x" nb="8"/>')
    with pytest.raises(ParseError, match="integer start"):
        jedule_xml.loads(doc)


def test_source_name_in_error(tmp_path):
    path = tmp_path / "broken.jed"
    path.write_text("<jedule>")
    with pytest.raises(ParseError, match="broken.jed"):
        jedule_xml.load(path)


def test_nonint_host_nb_rejected():
    doc = FIGURE1_DOC.replace('name="host_nb" value="8"',
                              'name="host_nb" value="eight"')
    with pytest.raises(ParseError, match="host_nb must be an integer"):
        jedule_xml.loads(doc)


def test_dumps_cluster_without_name():
    """A cluster whose name is unset must serialize without a name attribute
    instead of handing ElementTree a None value."""
    s = Schedule()
    c = s.new_cluster("c0", 4)
    object.__setattr__(c, "name", None)  # simulate an externally-built cluster
    s.new_task("t", "comp", 0.0, 1.0, cluster="c0", host_start=0, host_nb=2)
    text = jedule_xml.dumps(s)
    platform_part = text[:text.index("<node_infos>")]
    assert "name=" not in platform_part
    back = jedule_xml.loads(text)
    assert back.cluster("c0").num_hosts == 4


# ------------------------------------------------- model errors with location

def _duplicate_task_doc() -> str:
    """FIGURE1_DOC with its task repeated; the copy's <node_statistics>
    opens on line 19."""
    task = FIGURE1_DOC[FIGURE1_DOC.index("    <node_statistics>"):
                       FIGURE1_DOC.index("  </node_infos>")]
    return FIGURE1_DOC.replace("  </node_infos>", task + "  </node_infos>")


@pytest.mark.parametrize("doc,pattern,line", [
    (FIGURE1_DOC.replace('name="end_time" value="0.310"', 'name="end_time" value="-1"'),
     "precedes start_time", 6),
    (FIGURE1_DOC.replace('name="start_time" value="0.000"', 'name="start_time" value="nan"'),
     "non-finite times", 6),
    (FIGURE1_DOC.replace('<hosts start="0" nb="8"/>', '<hosts start="-1" nb="8"/>'),
     "host range start must be >= 0", 6),
    (FIGURE1_DOC.replace('<hosts start="0" nb="8"/>', '<hosts start="4" nb="8"/>'),
     "binds host 11", 6),
    (FIGURE1_DOC.replace('name="cluster_id" value="0"', 'name="cluster_id" value="9"'),
     "unknown cluster '9'", 6),
    (_duplicate_task_doc(), "duplicate task id '1'", 19),
], ids=["end-before-start", "nan-time", "negative-hosts-start", "host-beyond-cluster",
        "unknown-cluster", "duplicate-task-id"])
def test_model_error_is_parse_error_at_node_line(doc, pattern, line):
    with pytest.raises(ParseError, match=pattern) as info:
        jedule_xml.loads(doc, source="s.jed")
    assert (info.value.source, info.value.line) == ("s.jed", line)
    assert str(info.value).endswith(f" in s.jed at line {line}")


@pytest.mark.parametrize("cluster,pattern", [
    ('<cluster id="0" hosts="0"/>', "must have >= 1 host"),
    ('<cluster id="0" hosts="8"/><cluster id="0" hosts="4"/>', "duplicate cluster id"),
], ids=["no-hosts", "duplicate-cluster"])
def test_cluster_model_error_is_parse_error_at_cluster_line(cluster, pattern):
    doc = FIGURE1_DOC.replace('<cluster id="0" hosts="8"/>', cluster)
    with pytest.raises(ParseError, match=pattern) as info:
        jedule_xml.loads(doc)
    assert info.value.line == 3


def test_malformed_xml_carries_expat_line():
    with pytest.raises(ParseError, match="malformed XML") as info:
        jedule_xml.loads("<jedule>\n  <platform>\n  </jedule>\n")
    assert info.value.line == 3


def test_loaded_schedule_is_freed_without_a_gc_pass():
    """The parse leaves no reference cycle behind to keep a big schedule
    alive until the next full collection."""
    gc.disable()
    try:
        s = jedule_xml.loads(FIGURE1_DOC)
        ref = weakref.ref(s)
        del s
        assert ref() is None
    finally:
        gc.enable()


# ------------------------------------------------------------ structure rules

def _task_xml(task_id: str, extra: str = "") -> str:
    return (f'<node_statistics><node_property name="id" value="{task_id}"/>'
            '<node_property name="type" value="t"/>'
            '<node_property name="start_time" value="0"/>'
            '<node_property name="end_time" value="1"/>'
            '<configuration><conf_property name="cluster_id" value="0"/>'
            '<host_lists><hosts start="0" nb="1"/></host_lists></configuration>'
            f'{extra}</node_statistics>')


def test_first_section_of_each_kind_wins():
    s = jedule_xml.loads(
        '<jedule>'
        '<jedule_meta><meta name="k" value="first"/></jedule_meta>'
        '<jedule_meta><meta name="k" value="second"/><meta/></jedule_meta>'
        '<platform><cluster id="0" hosts="2"/></platform>'
        '<platform><cluster id="x" hosts="oops"/></platform>'
        f'<node_infos>{_task_xml("a")}</node_infos>'
        f'<node_infos>{_task_xml("b")}<bogus/></node_infos>'
        '</jedule>')
    assert s.meta == {"k": "first"}
    assert [c.id for c in s.clusters] == ["0"]
    assert [t.id for t in s.tasks] == ["a"]


def test_nested_and_unknown_elements_are_ignored():
    s = jedule_xml.loads(
        '<jedule><unknown><platform><cluster id="z" hosts="1"/></platform></unknown>'
        '<platform><group><cluster id="nested" hosts="1"/></group>'
        '<cluster id="0" hosts="2"><cluster id="inner" hosts="1"/></cluster></platform>'
        '<node_infos><wrapper>' + _task_xml("hidden") + '</wrapper>'
        + _task_xml("a", extra='<extra><node_property name="id" value="nested"/>'
                               '<configuration/></extra>')
        + '</node_infos></jedule>')
    assert [c.id for c in s.clusters] == ["0"]
    assert [t.id for t in s.tasks] == ["a"]
    assert len(s.task("a").configurations) == 1


def test_platform_may_follow_the_tasks():
    s = jedule_xml.loads(f'<jedule><node_infos>{_task_xml("a")}</node_infos>'
                         '<platform><cluster id="0" hosts="1"/></platform></jedule>')
    assert [t.id for t in s.tasks] == ["a"]


def test_empty_node_infos_loads():
    s = jedule_xml.loads('<jedule><platform><cluster id="0" hosts="2"/></platform>'
                         '<node_infos/></jedule>')
    assert len(s) == 0 and s.cluster("0").num_hosts == 2


def test_crlf_input_loads():
    s = jedule_xml.loads(FIGURE1_DOC.replace("\n", "\r\n"))
    assert s.task("1").hosts_in("0") == tuple(range(8))


def test_entity_escaped_attributes_are_read_back():
    doc = FIGURE1_DOC.replace('name="id" value="1"',
                              'name="id" value="a&amp;b&lt;c&gt;&quot;&#10;&#9;&#x41;"')
    assert jedule_xml.loads(doc).tasks[0].id == 'a&b<c>"\n\tA'


def test_first_error_follows_checking_order_not_document_order():
    # the configuration is bad, but a missing required property is checked first
    doc = FIGURE1_DOC.replace('<hosts start="0" nb="8"/>', '<hosts start="x" nb="8"/>')
    doc = doc.replace('<node_property name="type" value="computation"/>', "")
    with pytest.raises(ParseError, match="lacks node_property 'type'"):
        jedule_xml.loads(doc)
    # malformed XML wins over any earlier model error
    with pytest.raises(ParseError, match="malformed XML"):
        jedule_xml.loads(_duplicate_task_doc().replace("</jedule>", "</jed>"))


# --------------------------------------------------- writer parity and roundtrip

def _reference_dumps(schedule: Schedule) -> str:
    """The ElementTree writer ``dumps`` must match byte for byte."""
    def prop(parent, tag, name, value):
        ET.SubElement(parent, tag, name=name, value=value)

    root = ET.Element("jedule", version=jedule_xml.JEDULE_VERSION)
    if schedule.meta:
        meta = ET.SubElement(root, "jedule_meta")
        for k, v in schedule.meta.items():
            prop(meta, "meta", k, str(v))
    platform = ET.SubElement(root, "platform")
    for c in schedule.clusters:
        attrs = {"id": c.id, "hosts": str(c.num_hosts)}
        if c.name is not None:
            attrs["name"] = c.name
        ET.SubElement(platform, "cluster", attrs)
    infos = ET.SubElement(root, "node_infos")
    for t in schedule.tasks:
        node = ET.SubElement(infos, "node_statistics")
        prop(node, "node_property", "id", t.id)
        prop(node, "node_property", "type", t.type)
        prop(node, "node_property", "start_time", repr(t.start_time))
        prop(node, "node_property", "end_time", repr(t.end_time))
        for k, v in t.meta.items():
            prop(node, "node_property", k, str(v))
        for conf in t.configurations:
            ce = ET.SubElement(node, "configuration")
            prop(ce, "conf_property", "cluster_id", conf.cluster_id)
            prop(ce, "conf_property", "host_nb", str(conf.num_hosts))
            hl = ET.SubElement(ce, "host_lists")
            for r in conf.host_ranges:
                ET.SubElement(hl, "hosts", start=str(r.start), nb=str(r.nb))
    ET.indent(root)
    buf = io.BytesIO()
    ET.ElementTree(root).write(buf, encoding="utf-8", xml_declaration=True)
    return buf.getvalue().decode("utf-8") + "\n"


#: text XML can carry, weighted towards what the writer must escape
_XML_TEXT = st.text(st.sampled_from('&<>"\r\n\t') | st.characters(
    blacklist_categories=("Cs", "Cc", "Cn")), max_size=6)


@st.composite
def _tricky_schedules(draw, text=_XML_TEXT, min_clusters=1) -> Schedule:
    s = Schedule(meta=draw(st.dictionaries(text, text, max_size=3)))
    for c in range(draw(st.integers(min_clusters, 3))):
        s.new_cluster(f"{draw(text)}#{c}", draw(st.integers(1, 8)),
                      draw(st.none() | text))
    for i in range(draw(st.integers(0, 4)) if s.clusters else 0):
        clusters = draw(st.lists(st.sampled_from(s.clusters), min_size=1,
                                 unique_by=lambda c: c.id))
        confs = [Configuration.from_hosts(c.id, draw(st.sets(
            st.integers(0, c.num_hosts - 1), min_size=1))) for c in clusters]
        start = draw(st.floats(-1e9, 1e9))
        task_meta = draw(st.dictionaries(
            text.filter(lambda k: k not in {"id", "type", "start_time", "end_time"}),
            text, max_size=2))
        s.add_task(Task(f"{draw(text)}#{i}", draw(text), start,
                        start + draw(st.floats(0, 1e6)), confs, task_meta))
    return s


@given(_tricky_schedules(text=st.text(st.sampled_from('&<>"\r\n\t') | st.characters(),
                                     max_size=6), min_clusters=0))
@settings(max_examples=150)
def test_dumps_matches_elementtree_writer(schedule):
    assert jedule_xml.dumps(schedule) == _reference_dumps(schedule)


def test_dumps_writes_lone_surrogate_as_character_reference():
    s = Schedule(meta={"k": "\ud800"})
    s.new_cluster("c\udfff", 1)
    s.new_task("t\ud83d", "x", 0, 1, cluster="c\udfff", host_start=0, host_nb=1)
    text = jedule_xml.dumps(s)
    assert text == _reference_dumps(s)
    assert '<meta name="k" value="&#55296;" />' in text
    assert 'value="t&#55357;"' in text


@given(_tricky_schedules())
@settings(max_examples=100)
def test_loads_dumps_roundtrip(schedule):
    back = jedule_xml.loads(jedule_xml.dumps(schedule))
    assert back.meta == schedule.meta
    assert back.clusters == schedule.clusters
    assert back.tasks == schedule.tasks     # Task equality covers its meta
