"""The leaf path's bulk lanes, pinned against the tree parser.

- Parse: :func:`parse_columnar` takes a document by its bulk lane or
  by the tree route.  Against the tree oracle -- :func:`parse_document`
  then :func:`columns_from_cluster`, each into a fresh pool -- it must
  give equal columns and a pool holding the same strings under the
  same ids, or raise the same exception class with the same message:
  on writer output (entity-bearing clusters included) and on damaged
  writer output (duplicate HOST, missing attributes...), with
  validation on and off.  ``fast_lane_hits`` counts every row of a
  document the lane took and nothing otherwise; ``fast_lane_misses``
  the ``<METRIC `` tags its row pattern missed in the spans it
  declined.
- Render: the arena's per-layout row templates must reproduce
  :meth:`XmlWriter.host` byte for byte across successive installs.

Example counts follow the active Hypothesis profile (tests/conftest.py),
so CI can run these with ``REPRO_HYPOTHESIS_PROFILE=thorough``.
"""

import dataclasses
import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.layout import InternPool, columns_from_cluster
from repro.gmond.pseudo import PseudoGmond
from repro.metrics.catalog import Slope
from repro.metrics.types import MetricType
from repro.serve.arena import FragmentArena
from repro.serve.render import metric_line, render_cluster
from repro.sim.rng import RngRegistry
from repro.wire.model import (
    ClusterElement,
    GangliaDocument,
    HostElement,
    MetricElement,
)
from repro.wire.parser import (
    _ROW_RE,
    ColumnarFallback,
    parse_columnar,
    parse_document,
)
from repro.wire.writer import XmlWriter, write_document

# -- strategies ---------------------------------------------------------------

names = st.text(
    alphabet=string.ascii_lowercase + string.digits + "_-.", min_size=1, max_size=8
).filter(lambda s: s[0].isalpha())
#: free text holding what the writer escapes, and text that holds none
texts = st.text(alphabet=string.ascii_letters + " &<>\"'", max_size=6)
plain_texts = st.text(alphabet=string.ascii_letters + " ", max_size=6)
numbers = st.sampled_from([0.0, -0.0, 1.0, 2.5, 60.0, 1e6, -3.25, 0.00004])


@st.composite
def metrics(draw, name, plain=False):
    mtype = draw(st.sampled_from([MetricType.STRING, MetricType.FLOAT,
                                  MetricType.UINT32]))
    val = draw(plain_texts if plain else texts) if mtype is MetricType.STRING else draw(
        st.sampled_from(["0", "1.5", "42", "-7", "nan"])
    )
    return MetricElement(
        name=name,
        val=val,
        mtype=mtype,
        units=draw(st.sampled_from(["", "%", "KB"] + ([] if plain else ["a&b"]))),
        tn=draw(numbers),
        tmax=draw(numbers),
        dmax=draw(numbers),
        slope=draw(st.sampled_from(list(Slope))),
        source=draw(st.sampled_from(["gmond", "gmetric"] + ([] if plain else ["s'q"]))),
    )


@st.composite
def hosts(draw, name, plain=False):
    host = HostElement(
        name=name,
        ip=draw(st.sampled_from(["", "10.0.0.1", "10.0.0.2"])),
        reported=draw(numbers),
        tn=draw(numbers),
        tmax=draw(numbers),
        dmax=draw(numbers),
    )
    for metric_name in draw(st.lists(names, max_size=5, unique=True)):
        host.add_metric(draw(metrics(metric_name, plain)))
    return host


@st.composite
def like(draw, previous, name, plain=False):
    """A host laid out like ``previous`` (same metrics, same static
    attributes, fresh VALs), or differing from it in exactly one static
    attribute: one metric's UNITS, TMAX or SLOPE, or the metric order."""
    host = draw(hosts(name, plain))
    host.metrics = {}
    for metric in previous.metrics.values():
        fresh = draw(metrics(metric.name, plain))
        host.add_metric(dataclasses.replace(metric, val=fresh.val, tn=fresh.tn))
    change = draw(st.sampled_from(["none", "units", "tmax", "slope", "order"]))
    if not host.metrics or change == "none":
        return host
    if change == "order":
        order = draw(st.permutations(list(host.metrics)))
        host.metrics = {name: host.metrics[name] for name in order}
        return host
    metric = host.metrics[draw(st.sampled_from(list(host.metrics)))]
    if change == "units":
        metric.units = draw(st.sampled_from(["", "%", "KB", "B"]).filter(
            lambda u: u != metric.units))
    elif change == "tmax":
        metric.tmax = draw(numbers.filter(lambda t: t != metric.tmax))
    else:
        metric.slope = draw(st.sampled_from(list(Slope)).filter(
            lambda s: s is not metric.slope))
    return host


@st.composite
def clusters(draw, plain=None):
    """A cluster; half are free of anything the writer escapes.  Hosts
    often take the layout of the host before them (:func:`like`)."""
    cluster = ClusterElement(name=draw(names), localtime=draw(numbers))
    if plain is None:
        plain = draw(st.booleans())
    previous = None
    for host_name in draw(st.lists(names, max_size=5, unique=True)):
        if previous is not None and draw(st.booleans()):
            host = draw(like(previous, host_name, plain))
        else:
            host = draw(hosts(host_name, plain))
        cluster.add_host(host)
        previous = host
    return cluster


@st.composite
def cluster_documents(draw):
    document = GangliaDocument(version="2.5.4", source="gmond")
    for cluster in draw(st.lists(clusters(), max_size=3, unique_by=lambda c: c.name)):
        document.add_cluster(cluster)
    return write_document(document)


# -- damage ---------------------------------------------------------------------


def _nth(text, pattern, data):
    """A random match of ``pattern`` in ``text``, or None."""
    found = list(re.finditer(pattern, text))
    return data.draw(st.sampled_from(found)) if found else None


def cut(text, data):
    return text[: data.draw(st.integers(0, len(text)))]


def stray_lt(text, data):
    at = data.draw(st.integers(0, len(text)))
    return text[:at] + "<" + text[at:]


def gt_in_val(text, data):
    m = _nth(text, r'VAL="', data)
    return text if m is None else text[: m.end()] + ">" + text[m.end():]


def amp_in_val(text, data):
    m = _nth(text, r'VAL="[^"]*', data)
    return text if m is None else text[: m.end()] + "&amp;" + text[m.end():]


def reordered(text, data):
    m = _nth(text, r'(VAL="[^"]*") (TYPE="[^"]*")', data)
    return text if m is None else (
        text[: m.start()] + f"{m.group(2)} {m.group(1)}" + text[m.end():]
    )


def duplicate_metric(text, data):
    m = _nth(text, r"<METRIC [^>]*>\n", data)
    if m is None:
        return text
    twin = re.sub(r'VAL="[^"]*"', 'VAL="twin"', m.group(0))
    return text[: m.end()] + twin + text[m.end():]


def duplicate_host(text, data):
    m = _nth(text, r"<HOST .*?</HOST>\n|<HOST [^>]*/>\n", data)
    return text if m is None else text[: m.end()] + m.group(0) + text[m.end():]


def nested_host(text, data):
    m = _nth(text, r"<HOST [^>]*[^/]>\n", data)
    inner = '<HOST NAME="inner" REPORTED="0" TN="0" TMAX="20" DMAX="0"/>\n'
    return text if m is None else text[: m.end()] + inner + text[m.end():]


def self_closed_parent(text, data):
    m = _nth(text, r"(<HOST [^>]*[^/])>\n<METRIC", data)
    return text if m is None else (
        text[: m.start()] + m.group(1) + "/>\n<METRIC" + text[m.end():]
    )


def missing_attribute(text, data):
    m = _nth(text, r' (NAME|VAL|TYPE)="[^"]*"', data)
    return text if m is None else text[: m.start()] + text[m.end():]


DAMAGES = [cut, stray_lt, gt_in_val, amp_in_val, reordered, duplicate_metric,
           duplicate_host, nested_host, self_closed_parent, missing_attribute]


# -- the parse differential ------------------------------------------------------


def tree_oracle(text, pool, validate):
    """What :func:`parse_columnar` must return: the tree's columns."""
    document = parse_document(text, validate)
    if document.grids or any(c.is_summary for c in document.clusters.values()):
        raise ColumnarFallback(document)
    return [columns_from_cluster(c, pool) for c in document.clusters.values()]


def outcome(parse, text, validate):
    """``(exception class and message, or None; result; pool strings)``,
    parsed into a fresh pool."""
    pool = InternPool()
    try:
        result = parse(text, pool, validate)
    except Exception as exc:  # class and message are what must agree
        return (type(exc), str(exc)), None, pool.strings
    return None, result, pool.strings


def assert_same_columns(a, b):
    """Field-for-field equal (each side's pool is compared elsewhere)."""
    for field in dataclasses.fields(a):
        if field.name == "pool":
            continue
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype, field.name
            np.testing.assert_array_equal(x, y)  # NaN == NaN here
        elif field.compare:
            assert x == y, field.name


def span_misses(text):
    """``<METRIC `` tags the row pattern misses, over every CLUSTER span."""
    total = 0
    for m in re.finditer(r"<CLUSTER [^<>]*[^/<>]>", text):
        end = text.find("</CLUSTER>", m.end())
        total += text.count("<METRIC ", m.end(), end) - len(
            _ROW_RE.findall(text, m.end(), end)
        )
    return total


def check_against_oracle(text, validate=False):
    """The parse differential; returns the document, or None on a raise."""
    error, document, strings = outcome(parse_columnar, text, validate)
    oracle_error, clusters, oracle_strings = outcome(tree_oracle, text, validate)
    assert error == oracle_error
    assert strings == oracle_strings  # same strings, same ids
    if document is None:
        return None
    assert len(document.clusters) == len(clusters)
    for a, b in zip(document.clusters, clusters):
        assert_same_columns(a, b)
    rows = sum(c.row_count for c in document.clusters)
    # the bulk lane builds every row or none, and never under validation
    assert document.fast_lane_hits in ((0,) if validate else (0, rows))
    assert document.fast_lane_misses == (0 if validate else span_misses(text))
    return document


@settings(deadline=None)
@given(cluster_documents(), st.booleans())
def test_parse_matches_tree_oracle_on_writer_output(text, validate):
    document = check_against_oracle(text, validate)
    # the writer spells every special character as an entity: a document
    # holding one takes the tree route whole, and no row is ever a miss
    rows = sum(c.row_count for c in document.clusters)
    taken = not validate and "&" not in text
    assert document.fast_lane_hits == (rows if taken else 0)
    assert document.fast_lane_misses == 0


@settings(deadline=None)
@given(clusters(plain=True))
def test_hosts_sharing_a_layout_take_the_bulk_lane(cluster):
    """Hosts that repeat, or differ by one static attribute from, the
    layout before them are coded right and never leave the bulk lane."""
    document = GangliaDocument(version="2.5.4", source="gmond")
    document.add_cluster(cluster)
    parsed = check_against_oracle(write_document(document))
    assert parsed.fast_lane_hits == parsed.clusters[0].row_count


@settings(deadline=None)
@given(cluster_documents(), st.sampled_from(DAMAGES), st.data(), st.booleans())
def test_parse_matches_tree_oracle_on_damaged_text(text, damage, data, validate):
    check_against_oracle(damage(text, data), validate)


def test_reordered_attributes_are_misses_and_parse_generically():
    text = write_document(_one_host_document())
    damaged = re.sub(r'(VAL="[^"]*") (TYPE="[^"]*")', r"\2 \1", text, count=1)
    document = check_against_oracle(damaged)
    assert document.fast_lane_misses == 1
    assert document.fast_lane_hits == 0


def _one_host_document():
    host = HostElement(name="h0", ip="10.0.0.1", reported=9.0, tn=1.0)
    host.add_metric(MetricElement(name="load_one", val="0.5", mtype=MetricType.FLOAT))
    host.add_metric(MetricElement(name="os", val="Linux", mtype=MetricType.STRING))
    cluster = ClusterElement(name="c", localtime=10.0)
    cluster.add_host(host)
    document = GangliaDocument(version="2.5.4", source="gmond")
    document.add_cluster(cluster)
    return document


def _pseudo_cluster_xml(hosts, seed, churn_rounds=1):
    from repro.net.fabric import Fabric
    from repro.net.tcp import TcpNetwork
    from repro.sim.engine import Engine

    engine, fabric = Engine(), Fabric()
    pseudo = PseudoGmond(
        engine, fabric, TcpNetwork(engine, fabric), "meteor",
        num_hosts=hosts, rng=RngRegistry(seed).stream("pg"),
    )
    texts = []
    for i in range(churn_rounds):
        texts.append(pseudo.current_xml(15.0 * i))
        pseudo.mutate(fraction=1.0, now=15.0 * i + 7.0)
    return texts


def test_pseudo_gmond_cluster_rides_the_bulk_lane_whole():
    """The count row: every pseudo-gmond row is a bulk-lane hit."""
    for text in _pseudo_cluster_xml(40, seed=31, churn_rounds=2):
        document = check_against_oracle(text)
        cluster = document.clusters[0]
        assert document.fast_lane_hits == cluster.row_count > 0
        assert document.fast_lane_misses == 0


# -- the render property ---------------------------------------------------------


def host_xml(host):
    writer = XmlWriter()
    writer.host(host)
    return writer.result()


def cluster_xml(cluster):
    writer = XmlWriter()
    writer.cluster(cluster)
    return writer.result()


steps = st.lists(
    st.sampled_from(["tmax", "dmax", "source", "value", "tn", "add", "drop", "nan"]),
    min_size=1,
    max_size=6,
)


@settings(deadline=None)
@given(clusters(), steps, st.data())
def test_templates_render_what_the_writer_writes(cluster, plan, data):
    pool = InternPool()
    arena = FragmentArena()
    for step in ["install", *plan]:
        members = list(cluster.hosts.values())
        metric_list = [m for h in members for m in h.metrics.values()]
        metric = data.draw(st.sampled_from(metric_list)) if metric_list else None
        if step == "tmax" and metric:
            metric.tmax = data.draw(numbers)
        elif step == "dmax" and metric:
            metric.dmax = data.draw(numbers)
        elif step == "source" and metric:
            metric.source = data.draw(st.sampled_from(["gmond", "x<y", "s'q"]))
        elif step == "value" and metric:
            metric.val = data.draw(texts)
        elif step == "tn" and metric:
            metric.tn = data.draw(st.sampled_from([-0.0, 0.0, 7.25]))
        elif step == "add":
            name = data.draw(names.filter(lambda n: n not in cluster.hosts))
            cluster.add_host(data.draw(hosts(name)))
        elif step == "drop" and members:
            del cluster.hosts[data.draw(st.sampled_from(members)).name]
        elif step == "nan" and metric:
            # the writer refuses NaN; so do the templates
            saved, metric.tn = metric.tn, float("nan")
            with pytest.raises(ValueError):
                cluster_xml(cluster)
            with pytest.raises(ValueError):
                FragmentArena().install(columns_from_cluster(cluster, pool))
            metric.tn = saved
            continue
        cols = columns_from_cluster(cluster, pool)
        arena.install(cols)
        expected = cluster_xml(cluster)
        assert arena.detail_fragment()[0].text() == expected
        assert render_cluster(cols) == expected
        for host in cluster.hosts.values():
            assert arena.host_fragment(host.name) == host_xml(host)
            for m in host.metrics.values():
                writer = XmlWriter()
                writer.metric(m)
                assert (
                    metric_line(arena.host_fragment(host.name), m.name)
                    == writer.result()
                )
        # parsed columns of the same bytes render the same bytes
        document = GangliaDocument(version="2.5.4", source="gmond")
        document.add_cluster(cluster)
        parsed = parse_columnar(write_document(document), pool, validate=False)
        fresh = FragmentArena()
        fresh.install(parsed.clusters[0])
        assert fresh.detail_fragment()[0].text() == expected


def test_one_template_per_pseudo_gmond_layout():
    """The count row: hosts of one pseudo-gmond cluster share a layout,
    so the arena builds one template, not one per host, and a 100 %
    churn install builds none."""
    pool = InternPool()
    arena = FragmentArena()
    for text in _pseudo_cluster_xml(40, seed=31, churn_rounds=3):
        arena.install(parse_columnar(text, pool, validate=False).clusters[0])
        assert arena.templates_built == 1
