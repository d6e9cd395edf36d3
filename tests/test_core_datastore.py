"""Unit tests for the gmetad hash-table datastore."""

import pytest

from repro.columnar import InternPool
from repro.core.datastore import Datastore, SourceSnapshot
from repro.core.query import GmetadQuery, QueryEngine
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


def cluster_snapshot(name="meteor", load=1.0):
    cluster = ClusterElement(name=name)
    host = HostElement(name=f"{name}-h0", tn=0.0)
    host.add_metric(MetricElement("load_one", str(load), MetricType.FLOAT))
    cluster.add_host(host)
    summary = SummaryInfo(hosts_up=1)
    summary.add_metric(
        MetricSummary("load_one", total=load, num=1, mtype=MetricType.FLOAT)
    )
    return SourceSnapshot.from_cluster(
        cluster, InternPool(), name=name, summary=summary,
        authority="http://me:8651/",
    )


def lookup(store, path):
    """The parsed reply to one path query, or None when not found."""
    xml, stats = QueryEngine(store, "G", "http://g:8651/").execute(
        GmetadQuery.parse(path), now=0.0
    )
    return parse_document(xml) if stats.found else None


def lookup_metric(store, source, host, metric):
    doc = lookup(store, f"/{source}/{host}/{metric}")
    if doc is None:
        return None
    return doc.clusters[source].hosts[host].metrics[metric]


def grid_snapshot(name="attic"):
    grid = GridElement(name=name.upper(), authority=f"http://{name}:8651/")
    nested = ClusterElement(name=f"{name}-c0")
    nested.summary = SummaryInfo(hosts_up=3)
    grid.add_cluster(nested)
    summary = SummaryInfo(hosts_up=3)
    return SourceSnapshot(
        name=name, kind="grid", summary=summary, grid=grid,
        authority=grid.authority,
    )


class TestSnapshotValidation:
    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            SourceSnapshot(name="x", kind="blob", summary=SummaryInfo())

    def test_cluster_kind_requires_cluster(self):
        with pytest.raises(ValueError):
            SourceSnapshot(name="x", kind="cluster", summary=SummaryInfo())

    def test_grid_kind_requires_grid(self):
        with pytest.raises(ValueError):
            SourceSnapshot(name="x", kind="grid", summary=SummaryInfo())

    def test_cluster_element_holding_hosts_rejected(self):
        tree = cluster_snapshot().columns
        cluster = tree.materialize_into(tree.shell_cluster())
        with pytest.raises(ValueError, match="hostless shell"):
            SourceSnapshot(
                name="meteor", kind="cluster", summary=SummaryInfo(),
                cluster=cluster,
            )

    def test_from_cluster_keeps_hosts_in_columns(self):
        snapshot = cluster_snapshot()
        assert snapshot.cluster.hosts == {}
        assert snapshot.columns.host_names == ["meteor-h0"]


class TestInstallAndLookup:
    def test_install_and_level_lookups(self):
        store = Datastore()
        store.install(cluster_snapshot(), now=10.0)
        assert store.source("meteor").up
        assert store.source("meteor").last_success == 10.0
        assert list(lookup(store, "/meteor").clusters) == ["meteor"]
        assert lookup(store, "/meteor/meteor-h0") is not None
        metric = lookup_metric(store, "meteor", "meteor-h0", "load_one")
        assert metric.numeric() == 1.0

    def test_missing_lookups_return_none(self):
        store = Datastore()
        store.install(cluster_snapshot(), now=0.0)
        assert store.source("nope") is None
        assert lookup(store, "/nope") is None
        assert lookup(store, "/meteor/ghost") is None
        assert lookup_metric(store, "meteor", "meteor-h0", "ghost") is None

    def test_reinstall_replaces_atomically(self):
        store = Datastore()
        store.install(cluster_snapshot(load=1.0), now=0.0)
        store.install(cluster_snapshot(load=7.0), now=15.0)
        metric = lookup_metric(store, "meteor", "meteor-h0", "load_one")
        assert metric.numeric() == 7.0
        assert store.source("meteor").last_success == 15.0

    def test_generation_bumps_on_install(self):
        store = Datastore()
        g0 = store.generation
        store.install(cluster_snapshot(), now=0.0)
        assert store.generation == g0 + 1

    def test_find_nested_in_grid_source(self):
        store = Datastore()
        store.install(grid_snapshot(), now=0.0)
        nested = store.find_nested("attic", "attic-c0")
        assert nested is not None
        assert nested.summary.hosts_up == 3
        assert store.find_nested("attic", "ghost") is None
        # cluster sources have no nested level
        store.install(cluster_snapshot(), now=0.0)
        assert store.find_nested("meteor", "anything") is None


class TestFailures:
    def test_mark_failure_keeps_stale_snapshot(self):
        store = Datastore()
        store.install(cluster_snapshot(), now=0.0)
        count = store.mark_failure("meteor", now=30.0, error="timeout")
        assert count == 1
        snapshot = store.source("meteor")
        assert not snapshot.up
        assert snapshot.last_error == "timeout"
        # stale data still answerable (forensics)
        assert lookup(store, "/meteor/meteor-h0") is not None

    def test_consecutive_failures_accumulate(self):
        store = Datastore()
        store.install(cluster_snapshot(), now=0.0)
        for i in range(3):
            count = store.mark_failure("meteor", now=float(i), error="t")
        assert count == 3

    def test_failure_before_any_success_creates_placeholder(self):
        store = Datastore()
        store.mark_failure("never-seen", now=0.0, error="t")
        assert store.source("never-seen") is not None
        assert not store.source("never-seen").up

    def test_success_resets_failure_count(self):
        store = Datastore()
        store.install(cluster_snapshot(), now=0.0)
        store.mark_failure("meteor", now=1.0, error="t")
        store.install(cluster_snapshot(), now=2.0)
        assert store.source("meteor").consecutive_failures == 0
        assert store.source("meteor").up

    def test_up_down_source_lists(self):
        store = Datastore()
        store.install(cluster_snapshot("a"), now=0.0)
        store.install(cluster_snapshot("b"), now=0.0)
        store.mark_failure("b", now=1.0, error="t")
        assert store.up_sources() == ["a"]
        assert store.down_sources() == ["b"]


class TestRollup:
    def test_root_summary_merges_sources(self):
        store = Datastore()
        store.install(cluster_snapshot("a", load=1.0), now=0.0)
        store.install(cluster_snapshot("b", load=3.0), now=0.0)
        merged, operations = store.root_summary()
        assert merged.hosts_up == 2
        assert merged.metrics["load_one"].total == pytest.approx(4.0)
        assert operations > 0

    def test_rollup_cached_until_generation_changes(self):
        store = Datastore()
        store.install(cluster_snapshot("a"), now=0.0)
        first, _ = store.root_summary()
        second, operations = store.root_summary()
        assert second is first
        assert operations == 0
        store.install(cluster_snapshot("b"), now=1.0)
        third, operations = store.root_summary()
        assert third is not first
        assert operations > 0

    def test_rollup_invalidated_by_remove_source(self):
        store = Datastore()
        store.install(cluster_snapshot("a"), now=0.0)
        store.install(cluster_snapshot("b"), now=0.0)
        before, _ = store.root_summary()
        assert before.hosts_up == 2
        assert store.remove_source("b")
        after, operations = store.root_summary()
        assert after is not before
        assert operations > 0
        assert after.hosts_up == 1

    def test_rollup_invalidated_by_mark_failure(self):
        store = Datastore()
        store.install(cluster_snapshot("a"), now=0.0)
        cached, _ = store.root_summary()
        store.mark_failure("a", now=1.0, error="t")
        recomputed, operations = store.root_summary()
        # the merged payload is equal, but it was genuinely re-derived:
        # a failure may change what the meta view reports about liveness
        assert recomputed is not cached
        # repeated failures keep invalidating (generation keeps moving)
        store.mark_failure("a", now=2.0, error="t")
        again, _ = store.root_summary()
        assert again is not recomputed

    def test_rollup_invalidated_by_placeholder_creation(self):
        store = Datastore()
        store.install(cluster_snapshot("a"), now=0.0)
        before, _ = store.root_summary()
        store.mark_failure("ghost", now=1.0, error="t", kind="grid")
        after, _ = store.root_summary()
        assert after is not before
        assert after.hosts_up == before.hosts_up  # empty placeholder


class TestVersioning:
    def test_touch_success_moves_no_version(self):
        store = Datastore()
        store.install(grid_snapshot(), now=0.0)
        store.mark_failure("attic", now=1.0, error="t")
        content, detail = store.content_version, store.detail_version
        assert store.touch_success("attic", now=2.0)
        snapshot = store.source("attic")
        assert snapshot.up and snapshot.consecutive_failures == 0
        assert (store.content_version, store.detail_version) == (
            content, detail,
        )

    def test_patch_localtime_moves_detail_only(self):
        store = Datastore()
        store.install(grid_snapshot(), now=0.0)
        content, detail = store.content_version, store.detail_version
        assert store.patch_localtime("attic", 120.0)
        assert store.source("attic").grid.localtime == 120.0
        assert store.content_version == content
        assert store.detail_version == detail + 1

    def test_install_moves_both_versions(self):
        store = Datastore()
        content, detail = store.content_version, store.detail_version
        store.install(cluster_snapshot(), now=0.0)
        assert store.content_version == content + 1
        assert store.detail_version == detail + 1

    def test_patch_localtime_needs_a_grid_source(self):
        store = Datastore()
        store.install(cluster_snapshot(), now=0.0)
        assert not store.patch_localtime("meteor", 120.0)
        assert not store.patch_localtime("ghost", 120.0)


class TestKindAwarePlaceholders:
    def test_grid_source_failure_fabricates_grid_placeholder(self):
        store = Datastore()
        store.mark_failure("child", now=0.0, error="t", kind="grid")
        snapshot = store.source("child")
        assert snapshot.kind == "grid"
        assert snapshot.grid is not None and snapshot.cluster is None

    def test_cluster_default_preserved(self):
        store = Datastore()
        store.mark_failure("gmond-src", now=0.0, error="t")
        assert store.source("gmond-src").kind == "cluster"


class TestFindClusterFallThrough:
    def test_nested_cluster_found_through_grid_sources(self):
        store = Datastore()
        store.install(grid_snapshot(), now=0.0)
        # "attic-c0" is not a top-level source; it lives one level down
        # inside the "attic" grid snapshot
        found = lookup(store, "/attic/attic-c0")
        assert found is not None
        assert found.grids["ATTIC"].clusters["attic-c0"].summary.hosts_up == 3

    def test_direct_sources_still_win(self):
        store = Datastore()
        store.install(grid_snapshot(), now=0.0)
        store.install(cluster_snapshot(), now=0.0)
        assert list(lookup(store, "/meteor").clusters) == ["meteor"]
        assert lookup(store, "/nope") is None
