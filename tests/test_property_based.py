"""Property-based tests (hypothesis) on the core data structures.

Invariants pinned here:

1. XML round-trip: ``parse(write(doc)) == doc`` (via re-serialization)
   for arbitrary well-formed documents.
2. Summaries are additive: summarizing a cluster equals merging the
   summaries of any partition of its hosts (§2.2's additive reduction).
3. Summary merge is commutative and associative on disjoint sets.
4. RRD consolidation: every AVERAGE row lies within [min, max] of the
   inputs, and fetch never fabricates rows outside the requested span.
5. Escape/unescape is an exact inverse.
6. Path query parse/render round-trips.
"""

import dataclasses
import math
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.layout import InternPool
from repro.core.query import GmetadQuery
from repro.core.summarize import merge_summaries, summarize_cluster
from repro.metrics.types import MetricType, format_value
from repro.rrd.consolidate import ConsolidationFunction
from repro.rrd.database import RraSpec, RrdDatabase
from repro.wire.escape import escape_attr, unescape_attr
from repro.wire.model import (
    ClusterElement,
    GangliaDocument,
    GridElement,
    HostElement,
    MetricElement,
)
from repro.serve.arena import FragmentArena
from repro.wire.parser import ColumnarFallback, parse_columnar, parse_document
from repro.wire.writer import write_document

# -- strategies -------------------------------------------------------------

names = st.text(
    alphabet=string.ascii_lowercase + string.digits + "_-.",
    min_size=1,
    max_size=12,
).filter(lambda s: s[0].isalpha())

numeric_types = st.sampled_from(
    [MetricType.FLOAT, MetricType.DOUBLE, MetricType.UINT16, MetricType.INT32]
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def metric_elements(draw):
    mtype = draw(numeric_types)
    value = draw(finite_floats)
    return MetricElement(
        name=draw(names),
        val=format_value(value, mtype),
        mtype=mtype,
        units=draw(st.sampled_from(["", "KB", "%", "jobs/s"])),
        tn=draw(st.floats(min_value=0, max_value=1000)),
        tmax=draw(st.floats(min_value=1, max_value=1000)),
    )


@st.composite
def hosts(draw):
    host = HostElement(
        name=draw(names),
        ip=f"10.0.0.{draw(st.integers(1, 254))}",
        reported=draw(st.floats(min_value=0, max_value=1e6)),
        tn=draw(st.floats(min_value=0, max_value=200)),
    )
    for metric in draw(st.lists(metric_elements(), max_size=5)):
        host.add_metric(metric)
    return host


@st.composite
def clusters(draw):
    cluster = ClusterElement(
        name=draw(names),
        localtime=draw(st.floats(min_value=0, max_value=1e6)),
    )
    for host in draw(st.lists(hosts(), max_size=6)):
        cluster.add_host(host)
    return cluster


@st.composite
def documents(draw):
    doc = GangliaDocument(version="2.5.4", source="gmetad")
    for cluster in draw(st.lists(clusters(), max_size=3)):
        doc.add_cluster(cluster)
    grid = GridElement(name=draw(names), authority="http://a:8651/")
    for cluster in draw(st.lists(clusters(), max_size=2)):
        grid.add_cluster(cluster)
    doc.add_grid(grid)
    return doc


# -- 1: XML round trip --------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(documents())
def test_xml_round_trip_is_stable(doc):
    xml = write_document(doc)
    reparsed = parse_document(xml, validate=True)
    assert write_document(reparsed) == xml


@settings(max_examples=60, deadline=None)
@given(documents())
def test_fast_and_validating_parse_agree(doc):
    xml = write_document(doc)
    strict = parse_document(xml, validate=True)
    fast = parse_document(xml, validate=False)
    assert write_document(strict) == write_document(fast)
    # the columnar lanes: the fast lane (validation off) and the
    # validating path yield equal columns and equal arena renderings,
    # so parsing a trusted feed without validation installs the same
    cluster_doc = GangliaDocument(version=doc.version, source=doc.source)
    for cluster in doc.clusters.values():
        cluster_doc.add_cluster(cluster)
    cluster_xml = write_document(cluster_doc)
    pool = InternPool()
    try:
        strict_cols = parse_columnar(cluster_xml, pool, validate=True)
    except ColumnarFallback:
        with pytest.raises(ColumnarFallback):
            parse_columnar(cluster_xml, pool, validate=False)
        return
    fast_cols = parse_columnar(cluster_xml, pool, validate=False)
    assert strict_cols.fast_lane_hits == 0
    assert fast_cols.fast_lane_hits == sum(
        c.row_count for c in fast_cols.clusters
    )
    assert len(strict_cols.clusters) == len(fast_cols.clusters)
    for a, b in zip(strict_cols.clusters, fast_cols.clusters):
        for field in dataclasses.fields(a):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if isinstance(x, np.ndarray):
                np.testing.assert_array_equal(x, y)  # NaN == NaN here
            elif field.compare:
                assert x == y, field.name
        arenas = FragmentArena(), FragmentArena()
        for arena, cols in zip(arenas, (a, b)):
            arena.install(cols)
        assert arenas[0].detail_fragment() == arenas[1].detail_fragment()
        assert arenas[0].cluster_frame("2.5.4") == arenas[1].cluster_frame(
            "2.5.4"
        )


# -- 2/3: summaries are additive ------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(clusters(), st.randoms(use_true_random=False))
def test_summary_equals_merge_of_any_partition(cluster, rng):
    whole, _ = summarize_cluster(cluster, heartbeat_window=80.0)
    host_names = list(cluster.hosts)
    rng.shuffle(host_names)
    cut = rng.randrange(len(host_names) + 1)
    part_a = ClusterElement(name="a")
    part_b = ClusterElement(name="b")
    for i, name in enumerate(host_names):
        (part_a if i < cut else part_b).add_host(cluster.hosts[name])
    summary_a, _ = summarize_cluster(part_a, heartbeat_window=80.0)
    summary_b, _ = summarize_cluster(part_b, heartbeat_window=80.0)
    merged, _ = merge_summaries([summary_a, summary_b])
    assert merged.hosts_up == whole.hosts_up
    assert merged.hosts_down == whole.hosts_down
    assert set(merged.metrics) == set(whole.metrics)
    for name, summary in whole.metrics.items():
        assert merged.metrics[name].num == summary.num
        assert math.isclose(
            merged.metrics[name].total, summary.total, rel_tol=1e-9, abs_tol=1e-9
        )


@settings(max_examples=40, deadline=None)
@given(st.lists(clusters(), min_size=2, max_size=4))
def test_summary_merge_is_order_independent(cluster_list):
    summaries = [summarize_cluster(c)[0] for c in cluster_list]
    forward, _ = merge_summaries(summaries)
    backward, _ = merge_summaries(list(reversed(summaries)))
    assert forward.hosts_up == backward.hosts_up
    assert set(forward.metrics) == set(backward.metrics)
    for name in forward.metrics:
        assert math.isclose(
            forward.metrics[name].total,
            backward.metrics[name].total,
            rel_tol=1e-9,
            abs_tol=1e-9,
        )


# -- 4: RRD consolidation bounds ---------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=50.0),  # inter-arrival
            st.floats(min_value=-100.0, max_value=100.0),  # value
        ),
        min_size=1,
        max_size=200,
    )
)
def test_rrd_rows_bounded_by_inputs(samples):
    db = RrdDatabase(
        step=15.0,
        rra_specs=[
            RraSpec(ConsolidationFunction.AVERAGE, 1, 32),
            RraSpec(ConsolidationFunction.AVERAGE, 4, 32),
        ],
        downtime_fill="nan",
    )
    t = 0.0
    values = []
    for gap, value in samples:
        t += gap
        db.update(t, value)
        values.append(value)
    db.flush(t + 60.0)
    lo, hi = min(values), max(values)
    for rra in db.rras:
        rows = rra.recent_rows()
        known = rows[~__import__("numpy").isnan(rows)]
        assert ((known >= lo - 1e-9) & (known <= hi + 1e-9)).all()


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1000.0),
    st.floats(min_value=0.0, max_value=1000.0),
)
def test_rrd_fetch_respects_bounds(start, span):
    db = RrdDatabase(
        step=15.0,
        rra_specs=[RraSpec(ConsolidationFunction.AVERAGE, 1, 64)],
    )
    for i in range(100):
        db.update(i * 15.0, float(i))
    times, _, _ = db.fetch(start, start + span)
    assert all(start < t <= start + span for t in times)


# -- 5: escaping -------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.text(max_size=60))
def test_escape_round_trip(text):
    assert unescape_attr(escape_attr(text)) == text


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=60))
def test_escaped_text_has_no_raw_specials(text):
    escaped = escape_attr(text)
    assert "<" not in escaped and '"' not in escaped


#: fragments that concatenate into entity-like payloads -- the inputs a
#: multi-pass unescape corrupts when one pass's output joins adjacent
#: text into an entity a later pass decodes
_ENTITY_FRAGMENTS = st.sampled_from(
    [
        "&", ";", "amp;", "lt;", "gt;", "quot;", "apos;",
        "&amp;", "&lt;", "&gt;", "&quot;", "&apos;",
        "&amp;lt;", "&amp;amp;", "&amp;apos;",
        "<", ">", '"', "'", "a",
    ]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ENTITY_FRAGMENTS, max_size=8).map("".join))
def test_escape_roundtrip_entity_like(text):
    """Round-trip holds on adversarial entity-spelling inputs.

    Strings like ``&amp;lt;`` are the ordering-bug class: a cascading
    unescape would decode them twice (``&amp;lt;`` -> ``&lt;`` ->
    ``<``).  The single-pass decoder must return them verbatim.
    """
    assert unescape_attr(escape_attr(text)) == text


def test_unescape_does_not_cascade():
    """Entity-like payloads decode exactly one layer, never two."""
    assert unescape_attr("&amp;lt;") == "&lt;"
    assert unescape_attr("&amp;gt;") == "&gt;"
    assert unescape_attr("&amp;amp;") == "&amp;"
    assert unescape_attr("&amp;quot;") == "&quot;"
    assert unescape_attr("&amp;amp;lt;") == "&amp;lt;"
    # stray ampersands that spell no entity pass through untouched
    assert unescape_attr("&amp ;lt;") == "&amp ;lt;"
    assert unescape_attr("fish & chips") == "fish & chips"


# -- 6: query parse/render ------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(
    st.lists(names, max_size=3),
    st.booleans(),
)
def test_query_parse_render_round_trip(segments, summary):
    query = GmetadQuery(path=tuple(segments), summary=summary)
    assert GmetadQuery.parse(query.render()) == query
