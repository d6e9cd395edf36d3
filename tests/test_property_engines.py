"""Property-based equivalence tests: engines vs. brute-force references.

Pins the query engines to independent reference implementations on
randomized datastores:

1. the exact-path engine's serialized result set equals a naive
   walk-and-filter over the same snapshot;
2. the regex engine's matches equal a brute-force scan with the same
   patterns;
3. a store's scalar write path (``SeriesBank.update_one``) produces
   archives identical to a standalone ``RrdDatabase`` for arbitrary
   sample streams.
"""

import math
import string

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datastore import Datastore, SourceSnapshot
from repro.core.query import GmetadQuery, QueryEngine
from repro.core.query_regex import RegexQueryEngine
from repro.core.summarize import summarize_cluster
from repro.metrics.types import MetricType, format_value
from repro.rrd.bank import SeriesBank
from repro.rrd.consolidate import ConsolidationFunction
from repro.rrd.database import RraSpec, RrdDatabase
from repro.wire.model import ClusterElement, HostElement, MetricElement
from repro.wire.parser import parse_document

short_names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=4)


@st.composite
def datastores(draw):
    """A datastore with 1-4 cluster sources of random shape."""
    store = Datastore()
    n_sources = draw(st.integers(1, 4))
    for s in range(n_sources):
        cluster = ClusterElement(name=f"c{s}")
        for h in range(draw(st.integers(0, 4))):
            host = HostElement(name=f"c{s}h{h}", tn=draw(st.floats(0, 200)))
            for name in draw(st.sets(short_names, max_size=4)):
                value = draw(st.floats(-100, 100))
                host.add_metric(
                    MetricElement(
                        name,
                        format_value(value, MetricType.FLOAT),
                        MetricType.FLOAT,
                    )
                )
            cluster.add_host(host)
        summary, _ = summarize_cluster(cluster)
        cluster.summary = summary
        store.install(
            SourceSnapshot(
                name=f"c{s}", kind="cluster", summary=summary, cluster=cluster
            ),
            now=0.0,
        )
    return store


@settings(max_examples=40, deadline=None)
@given(datastores(), st.integers(0, 3), st.integers(0, 4), short_names)
def test_path_queries_match_naive_filter(store, s, h, metric_name):
    """For every (source, host, metric) coordinate, the engine's answer
    round-trips to exactly what a naive walk finds."""
    engine = QueryEngine(store, "G", "http://g/")
    source, host = f"c{s}", f"c{s}h{h}"
    query = GmetadQuery.parse(f"/{source}/{host}/{metric_name}")
    xml, stats = engine.execute(query, now=0.0)
    # reference: walk the raw snapshot
    snapshot = store.source(source)
    expected = None
    if snapshot is not None and snapshot.cluster is not None:
        host_element = snapshot.cluster.hosts.get(host)
        if host_element is not None:
            expected = host_element.metrics.get(metric_name)
    if expected is None:
        assert not stats.found
        return
    assert stats.found
    doc = parse_document(xml, validate=True)
    got = doc.clusters[source].hosts[host].metrics
    assert list(got) == [metric_name]
    assert got[metric_name].val == expected.val


@settings(max_examples=40, deadline=None)
@given(datastores(), short_names, short_names)
def test_regex_engine_matches_brute_force(store, host_pat, metric_pat):
    """Regex search results equal a brute-force scan with re.fullmatch."""
    import re

    engine = RegexQueryEngine(store)
    query = f"~/c\\d/{re.escape(host_pat)}.*/{re.escape(metric_pat)}.*"
    got = {m.path for m in engine.search(query)}
    expected = set()
    for source_name in store.source_names():
        snapshot = store.sources[source_name]
        if not re.fullmatch(r"c\d", source_name):
            continue
        for host_name, host in snapshot.cluster.hosts.items():
            if not host_name.startswith(host_pat):
                continue
            for metric_name in host.metrics:
                if metric_name.startswith(metric_pat):
                    expected.add((source_name, host_name, metric_name))
    assert got == expected


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=120.0),
            st.one_of(st.none(), st.floats(-50, 50)),
        ),
        min_size=1,
        max_size=120,
    )
)
def test_bank_update_one_equals_database_update(samples):
    """Scalar writes into a bank slot are observationally identical to a
    standalone database fed the same stream."""
    specs = [
        RraSpec(ConsolidationFunction.AVERAGE, 1, 16),
        RraSpec(ConsolidationFunction.AVERAGE, 4, 16),
        RraSpec(ConsolidationFunction.AVERAGE, 16, 8),
    ]
    db = RrdDatabase(step=15.0, rra_specs=specs)
    bank = SeriesBank(step=15.0, rra_specs=specs)
    i = bank.add_series(3) + 1  # a slot between neighbours
    t = 0.0
    for gap, value in samples:
        t += gap
        db.update(t, value)
        bank.update_one(i, t, value)
    assert bank.last_update_time_of(i) == db.last_update_time
    assert bank.updates_of(i) == db.updates
    assert bank.latest(i) == db.latest() or (
        np.isnan(bank.latest(i)) and np.isnan(db.latest())
    )
    for span in (60.0, 600.0, 6000.0):
        for got, want in zip(bank.fetch(i, t - span, t), db.fetch(t - span, t)):
            np.testing.assert_array_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(datastores())
def test_summary_dump_and_full_dump_agree_on_counts(store):
    """The summary-form report's HOSTS counts equal the full form's
    actual host liveness, for every source."""
    engine = QueryEngine(store, "G", "http://g/")
    full_xml, _ = engine.execute(GmetadQuery.parse("/"), 0.0)
    summary_xml, _ = engine.execute(GmetadQuery.parse("/?filter=summary"), 0.0)
    full = parse_document(full_xml, validate=True)
    summarized = parse_document(summary_xml, validate=True)
    for name, cluster in summarized.grids["G"].clusters.items():
        reference = full.grids["G"].clusters[name]
        live = sum(1 for h in reference.hosts.values() if h.is_up(80.0))
        assert cluster.summary.hosts_up == live
        assert cluster.summary.hosts_total == len(reference.hosts)
