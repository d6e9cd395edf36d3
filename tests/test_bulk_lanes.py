"""The leaf path's bulk lanes, pinned against the per-element loops.

- Parse: :meth:`ColumnarBuilder.bulk_cluster` cuts a CLUSTER span in
  per-cluster passes.  Against the same parse with that lane forced off
  (the generic per-tag loop) it must give equal columns and an equal
  intern pool, or raise the same exception class -- on writer output
  and on damaged writer output.  ``fast_lane_hits`` counts exactly the
  rows of the clusters the lane took, ``fast_lane_misses`` the
  ``<METRIC `` tags its row pattern missed in the spans it declined.
- Render: the arena's per-layout row templates must reproduce
  :meth:`XmlWriter.host` byte for byte across successive installs.

Example counts follow the active Hypothesis profile (tests/conftest.py),
so CI can run these with ``REPRO_HYPOTHESIS_PROFILE=thorough``.
"""

import dataclasses
import re
import string
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.layout import InternPool, columns_from_cluster
from repro.gmond.pseudo import PseudoGmond
from repro.metrics.catalog import Slope
from repro.metrics.types import MetricType
from repro.serve.arena import FragmentArena
from repro.serve.render import render_cluster
from repro.sim.rng import RngRegistry
from repro.wire.model import (
    ClusterElement,
    GangliaDocument,
    HostElement,
    MetricElement,
)
from repro.wire.parser import _ROW_RE, ColumnarBuilder, parse_columnar
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
def clusters(draw):
    """A cluster; half are free of anything the writer escapes."""
    cluster = ClusterElement(name=draw(names), localtime=draw(numbers))
    plain = draw(st.booleans())
    for host_name in draw(st.lists(names, max_size=5, unique=True)):
        cluster.add_host(draw(hosts(host_name, plain)))
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


DAMAGES = [cut, stray_lt, gt_in_val, amp_in_val, reordered, duplicate_metric,
           duplicate_host, nested_host, self_closed_parent]


# -- the parse differential ------------------------------------------------------


def parse_both(text):
    """(outcome with the bulk lane, outcome with it forced off).

    An outcome is ``(exception class or None, document, pool strings,
    per-span bulk results)``.
    """
    outcomes = []
    for bulk in (True, False):
        calls = []
        original = ColumnarBuilder.bulk_cluster

        def spy(self, text, start, end):
            result = original(self, text, start, end)
            calls.append((start, end, result))
            return result

        pool = InternPool()
        lane = mock.patch.object(ColumnarBuilder, "bulk_cluster", spy if bulk else None)
        with lane:
            try:
                document = parse_columnar(text, pool, validate=False)
            except Exception as exc:  # the class is what must agree
                outcomes.append((type(exc), None, pool.strings, calls))
                continue
        outcomes.append((None, document, pool.strings, calls))
    return outcomes


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


def check_lanes_agree(text):
    bulk, generic = parse_both(text)
    assert bulk[0] is generic[0]
    assert bulk[2] == generic[2]  # same strings, same ids
    if bulk[1] is None:
        return None, None
    assert generic[1].fast_lane_hits == generic[1].fast_lane_misses == 0
    assert len(bulk[1].clusters) == len(generic[1].clusters)
    for a, b in zip(bulk[1].clusters, generic[1].clusters):
        assert_same_columns(a, b)
    # every cluster of a parsed document was offered once, in order
    calls = bulk[3]
    assert len(calls) == len(bulk[1].clusters)
    assert bulk[1].fast_lane_hits == sum(
        c.row_count
        for c, (_, _, taken) in zip(bulk[1].clusters, calls)
        if taken is not None
    )
    assert bulk[1].fast_lane_misses == sum(
        text.count("<METRIC ", start, end) - len(_ROW_RE.findall(text, start, end))
        for start, end, taken in calls
        if taken is None
    )
    return bulk[1], calls


@settings(deadline=None)
@given(cluster_documents())
def test_bulk_lane_matches_generic_loop_on_writer_output(text):
    document, calls = check_lanes_agree(text)
    # the writer spells every special character as an entity: exactly
    # the clusters holding one go generic, and no row is ever a miss
    for start, end, taken in calls:
        assert (taken is None) == ("&" in text[start:end])
    assert document.fast_lane_misses == 0


@settings(deadline=None)
@given(cluster_documents(), st.sampled_from(DAMAGES), st.data())
def test_bulk_lane_matches_generic_loop_on_damaged_text(text, damage, data):
    check_lanes_agree(damage(text, data))


def test_reordered_attributes_are_misses_and_parse_generically():
    text = write_document(_one_host_document())
    damaged = re.sub(r'(VAL="[^"]*") (TYPE="[^"]*")', r"\2 \1", text, count=1)
    document, _ = check_lanes_agree(damaged)
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
        document, _ = check_lanes_agree(text)
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
        assert arena.detail_fragment()[0] == expected
        assert render_cluster(cols) == expected
        for host in cluster.hosts.values():
            assert arena.host_fragment(host.name) == host_xml(host)
            for m in host.metrics.values():
                writer = XmlWriter()
                writer.metric(m)
                assert arena.metric_line(host.name, m.name) == writer.result()
        # parsed columns of the same bytes render the same bytes
        document = GangliaDocument(version="2.5.4", source="gmond")
        document.add_cluster(cluster)
        parsed = parse_columnar(write_document(document), pool, validate=False)
        fresh = FragmentArena()
        fresh.install(parsed.clusters[0])
        assert fresh.detail_fragment()[0] == expected


def test_one_template_per_pseudo_gmond_layout():
    """The count row: hosts of one pseudo-gmond cluster share a layout,
    so the arena builds one template, not one per host, and a 100 %
    churn install builds none."""
    pool = InternPool()
    arena = FragmentArena()
    for text in _pseudo_cluster_xml(40, seed=31, churn_rounds=3):
        arena.install(parse_columnar(text, pool, validate=False).clusters[0])
        assert arena.templates_built == 1
