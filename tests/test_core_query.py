"""Unit tests for the path query language and engine (§2.3)."""

import pytest

from repro.columnar import InternPool
from repro.core.datastore import Datastore, SourceSnapshot
from repro.core.query import (
    FULL_DUMP_QUERY,
    SUMMARY_POLL_QUERY,
    GmetadQuery,
    QueryEngine,
    QueryError,
)
from repro.metrics.types import MetricType
from repro.wire.model import (
    ClusterElement,
    GridElement,
    HostElement,
    MetricElement,
    MetricSummary,
    SummaryInfo,
)
from repro.wire.parser import parse_document


class TestQueryParsing:
    @pytest.mark.parametrize(
        "text,path,summary",
        [
            ("/", (), False),
            ("/?filter=summary", (), True),
            ("/meteor", ("meteor",), False),
            ("/meteor/", ("meteor",), False),
            ("/meteor/compute-0-0/", ("meteor", "compute-0-0"), False),
            ("/meteor/compute-0-0/load_one", ("meteor", "compute-0-0", "load_one"), False),
            ("/meteor?filter=summary", ("meteor",), True),
        ],
    )
    def test_valid_queries(self, text, path, summary):
        query = GmetadQuery.parse(text)
        assert query.path == path
        assert query.summary is summary

    @pytest.mark.parametrize(
        "text",
        ["", "meteor", "/a/b/c/d", "/x?filter=median", "/x?color=red"],
    )
    def test_invalid_queries(self, text):
        with pytest.raises(QueryError):
            GmetadQuery.parse(text)

    def test_non_string_rejected(self):
        with pytest.raises(QueryError):
            GmetadQuery.parse(42)

    def test_render(self):
        assert GmetadQuery(("a", "b")).render() == "/a/b"
        assert GmetadQuery((), True).render() == "/?filter=summary"

    def test_poll_query_constants(self):
        assert GmetadQuery.parse(SUMMARY_POLL_QUERY).summary
        assert GmetadQuery.parse(FULL_DUMP_QUERY) == GmetadQuery()


@pytest.fixture
def store():
    """A datastore with one full local cluster and one remote grid."""
    datastore = Datastore()
    cluster = ClusterElement(name="meteor", localtime=100.0)
    for i in range(3):
        host = HostElement(name=f"compute-0-{i}", tn=1.0, reported=99.0)
        host.add_metric(
            MetricElement("load_one", f"{0.5 + i}", MetricType.FLOAT)
        )
        host.add_metric(MetricElement("cpu_num", "2", MetricType.UINT16))
        cluster.add_host(host)
    summary = SummaryInfo(hosts_up=3)
    summary.add_metric(MetricSummary("load_one", 4.5, 3, MetricType.FLOAT))
    summary.add_metric(MetricSummary("cpu_num", 6, 3, MetricType.UINT16))
    cluster.summary = summary
    datastore.install(
        SourceSnapshot.from_cluster(
            cluster, InternPool(), name="meteor", summary=summary,
            authority="http://gmeta-sdsc:8651/",
        ),
        now=100.0,
    )
    grid = GridElement(name="ATTIC", authority="http://gmeta-attic:8651/")
    nested = ClusterElement(name="attic-c0")
    nested.summary = SummaryInfo(hosts_up=5)
    nested.summary.add_metric(
        MetricSummary("load_one", 2.5, 5, MetricType.FLOAT)
    )
    grid.add_cluster(nested)
    grid.summary = SummaryInfo(hosts_up=5)
    grid.summary.add_metric(MetricSummary("load_one", 2.5, 5, MetricType.FLOAT))
    datastore.install(
        SourceSnapshot(
            name="attic", kind="grid", summary=grid.summary, grid=grid,
            authority=grid.authority,
        ),
        now=100.0,
    )
    return datastore


@pytest.fixture
def engine_under_test(store):
    return QueryEngine(
        store, grid_name="SDSC", authority="http://gmeta-sdsc:8651/"
    )


def run(engine, text, now=120.0):
    xml, stats = engine.execute(GmetadQuery.parse(text), now)
    return parse_document(xml, validate=True), stats, xml


class TestWholeTreeQueries:
    def test_full_dump_contains_local_detail_and_remote_structure(
        self, engine_under_test
    ):
        doc, stats, _ = run(engine_under_test, "/")
        grid = doc.grids["SDSC"]
        assert grid.authority == "http://gmeta-sdsc:8651/"
        meteor = grid.clusters["meteor"]
        assert len(meteor.hosts) == 3  # full resolution
        attic = grid.grids["ATTIC"]
        assert attic.clusters["attic-c0"].is_summary

    def test_summary_dump_is_all_summaries(self, engine_under_test):
        doc, _, xml = run(engine_under_test, "/?filter=summary")
        grid = doc.grids["SDSC"]
        assert grid.clusters["meteor"].is_summary
        assert grid.clusters["meteor"].summary.hosts_up == 3
        attic = grid.grids["ATTIC"]
        assert attic.is_summary
        assert "<HOST " not in xml

    def test_summary_dump_much_smaller_than_full(self, engine_under_test):
        _, _, full = run(engine_under_test, "/")
        _, _, summary = run(engine_under_test, "/?filter=summary")
        assert len(summary) < len(full) / 2

    def test_grid_carries_authority_pointer(self, engine_under_test):
        doc, _, _ = run(engine_under_test, "/?filter=summary")
        attic = doc.grids["SDSC"].grids["ATTIC"]
        assert attic.authority == "http://gmeta-attic:8651/"


class TestSummaryReplyReuse:
    """A repeated whole-tree summary dump hands back the joined reply."""

    QUERY = GmetadQuery.parse(SUMMARY_POLL_QUERY)

    @staticmethod
    def memo_engine(store):
        return QueryEngine(
            store, grid_name="SDSC", authority="http://gmeta-sdsc:8651/",
            memoize=True,
        )

    def test_repeat_is_the_same_reply_with_all_cached_stats(self, store):
        engine = self.memo_engine(store)
        first, first_stats = engine.execute(self.QUERY, 120.0)
        second, second_stats = engine.execute(self.QUERY, 120.4)
        # what the reuse stands in for: a re-join of the fragments the
        # first dump cached on the snapshots
        rejoined, rejoined_stats = self.memo_engine(store).execute(
            self.QUERY, 120.4
        )
        assert first_stats.bytes_from_cache == 0
        assert second is first
        assert rejoined == first
        assert second_stats == rejoined_stats
        assert second_stats.bytes_from_cache > 0

    def test_new_second_or_new_content_rebuilds(self, store):
        engine = self.memo_engine(store)
        first, _ = engine.execute(self.QUERY, 120.0)
        later, _ = engine.execute(self.QUERY, 121.0)
        assert 'LOCALTIME="121"' in later and 'LOCALTIME="120"' in first
        summary = SummaryInfo(hosts_up=2)
        cluster = ClusterElement(name="meteor", localtime=121.0)
        cluster.summary = summary
        store.install(
            SourceSnapshot(
                name="meteor", kind="cluster", summary=summary, cluster=cluster
            ),
            now=121.0,
        )
        after, _ = engine.execute(self.QUERY, 121.0)
        meteor = parse_document(after).grids["SDSC"].clusters["meteor"]
        assert meteor.summary.hosts_up == 2
        assert after != later


class TestPathQueries:
    def test_cluster_query_full(self, engine_under_test):
        doc, stats, _ = run(engine_under_test, "/meteor")
        assert len(doc.clusters["meteor"].hosts) == 3
        assert stats.hash_lookups == 1

    def test_cluster_summary_filter(self, engine_under_test):
        doc, _, xml = run(engine_under_test, "/meteor?filter=summary")
        assert doc.clusters["meteor"].is_summary
        assert "<HOST " not in xml

    def test_host_query_wrapped_in_cluster_shell(self, engine_under_test):
        doc, stats, _ = run(engine_under_test, "/meteor/compute-0-1")
        meteor = doc.clusters["meteor"]
        assert list(meteor.hosts) == ["compute-0-1"]
        assert meteor.hosts["compute-0-1"].metrics["load_one"].numeric() == 1.5
        assert stats.hash_lookups == 2

    def test_metric_query_returns_single_metric(self, engine_under_test):
        doc, stats, _ = run(engine_under_test, "/meteor/compute-0-0/load_one")
        host = doc.clusters["meteor"].hosts["compute-0-0"]
        assert list(host.metrics) == ["load_one"]
        assert stats.hash_lookups == 3

    def test_grid_source_query_returns_summary(self, engine_under_test):
        doc, _, _ = run(engine_under_test, "/attic?filter=summary")
        assert doc.grids["ATTIC"].is_summary

    def test_grid_source_full_returns_nested_summaries(self, engine_under_test):
        doc, _, _ = run(engine_under_test, "/attic")
        assert doc.grids["ATTIC"].clusters["attic-c0"].is_summary

    def test_nested_cluster_in_grid_source(self, engine_under_test):
        doc, _, _ = run(engine_under_test, "/attic/attic-c0")
        nested = doc.grids["ATTIC"].clusters["attic-c0"]
        assert nested.summary.hosts_up == 5


class TestNotFound:
    @pytest.mark.parametrize(
        "query",
        [
            "/nope",
            "/meteor/ghost-host",
            "/meteor/compute-0-0/ghost_metric",
            "/attic/ghost-cluster",
            "/attic/attic-c0/too-deep",
        ],
    )
    def test_unknown_paths_yield_empty_document(self, engine_under_test, query):
        doc, stats, xml = run(engine_under_test, query)
        assert not stats.found
        assert doc.clusters == {} and doc.grids == {}
        assert "not found" in xml

    def test_resolve_raises_not_found(self, engine_under_test):
        _, stats = engine_under_test.execute(GmetadQuery.parse("/nope"), 0.0)
        assert not stats.found


class TestResolve:
    def test_resolve_levels(self, engine_under_test, store):
        doc, _, _ = run(engine_under_test, "/meteor")
        assert list(doc.clusters) == ["meteor"]
        doc, _, _ = run(engine_under_test, "/meteor/compute-0-2")
        assert list(doc.clusters["meteor"].hosts) == ["compute-0-2"]
        doc, _, _ = run(engine_under_test, "/meteor/compute-0-2/cpu_num")
        metric = doc.clusters["meteor"].hosts["compute-0-2"].metrics["cpu_num"]
        assert metric.val == "2"
