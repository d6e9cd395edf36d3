"""Unit/integration tests for the N-level and 1-level gmetad daemons."""

import pytest

from repro.bench.topology import build_paper_tree
from repro.core.gmetad import Gmetad
from repro.core.gmetad_1level import OneLevelGmetad
from repro.core.gmetad_base import document_element_count
from repro.core.tree import GmetadConfig
from repro.gmond.pseudo import PseudoGmond
from repro.net.address import Address
from repro.rrd.store import SUMMARY_HOST
from repro.wire.parser import parse_document
from tests.helpers import host_tree


@pytest.fixture
def world(engine, fabric, tcp, rngs):
    """One pseudo cluster + helper to build daemons around it."""

    class World:
        def __init__(self):
            self.pseudo = PseudoGmond(
                engine, fabric, tcp, "meteor", num_hosts=6,
                rng=rngs.stream("pg"),
            )

        def gmetad(self, cls=Gmetad, name="sdsc", sources=None, **kwargs):
            config = GmetadConfig(
                name=name, host=f"gmeta-{name}", archive_mode="full", **kwargs
            )
            for source_name, addresses in (sources or {}).items():
                config.add_source(source_name, addresses)
            return cls(engine, fabric, tcp, config)

    return World()


class TestNLevelIngest:
    def test_cluster_source_kept_at_full_detail(
        self, world, engine
    ):
        daemon = world.gmetad(sources={"meteor": [world.pseudo.address]})
        daemon.start()
        engine.run_for(40.0)
        snapshot = daemon.datastore.source("meteor")
        assert snapshot.kind == "cluster"
        assert snapshot.columns.host_count == 6
        # summary attached and consistent with host count
        assert snapshot.summary.hosts_total == 6
        assert snapshot.summary.metrics["load_one"].num == 6

    def test_summary_sum_matches_host_values(self, world, engine):
        daemon = world.gmetad(sources={"meteor": [world.pseudo.address]})
        daemon.start()
        engine.run_for(40.0)
        snapshot = daemon.datastore.source("meteor")
        expected = sum(
            host.metrics["load_one"].numeric()
            for host in host_tree(snapshot).hosts.values()
        )
        assert snapshot.summary.metrics["load_one"].total == pytest.approx(
            expected, rel=1e-6
        )

    def test_local_detail_archived_per_host(self, world, engine):
        daemon = world.gmetad(sources={"meteor": [world.pseudo.address]})
        daemon.start()
        engine.run_for(40.0)
        keys = daemon.rrd_store.keys_for_host("meteor", "meteor", "meteor-0-0")
        assert len(keys) >= 25  # numeric metrics of one host

    def test_summary_archives_written(self, world, engine):
        daemon = world.gmetad(sources={"meteor": [world.pseudo.address]})
        daemon.start()
        engine.run_for(40.0)
        summary_keys = [
            k for k in daemon.rrd_store.keys() if k.host == SUMMARY_HOST
        ]
        assert any(k.metric == "load_one" for k in summary_keys)
        assert any(k.metric == "load_one.num" for k in summary_keys)

    def test_cpu_charged_in_all_categories(self, world, engine):
        daemon = world.gmetad(sources={"meteor": [world.pseudo.address]})
        daemon.start()
        engine.run_for(40.0)
        breakdown = daemon.cpu.category_breakdown(engine.now)
        for category in ("parse", "summarize", "archive", "network"):
            assert breakdown[category] > 0, category

    @pytest.mark.parametrize(
        "gates",
        [
            {"incremental": False},
            {"incremental": True},
            {"incremental": True, "columnar": True},
        ],
        ids=["eager", "incremental", "columnar"],
    )
    def test_summary_form_cluster_ingests_as_summary(
        self, world, engine, gates
    ):
        """A ``/<cluster>?filter=summary`` answer on a cluster source is
        summary data: passed through unsummarized, archived as summary
        series only, and installed -- not a crash in the detail archiver."""
        child = world.gmetad(sources={"meteor": [world.pseudo.address]})
        child.start()
        engine.run_for(40.0)
        xml, _ = child.serve_query("/meteor?filter=summary")
        daemon = world.gmetad(
            name="root", sources={"meteor": [child.address]}, **gates
        )
        daemon._on_data("meteor", xml, 0.0)
        snapshot = daemon.datastore.source("meteor")
        assert snapshot.kind == "cluster" and snapshot.cluster.is_summary
        expected = child.datastore.source("meteor").summary
        assert snapshot.summary.hosts_total == expected.hosts_total == 6
        assert list(snapshot.summary.metrics) == list(expected.metrics)
        keys = daemon.rrd_store.keys()
        assert keys and all(k.host == SUMMARY_HOST for k in keys)
        breakdown = daemon.cpu.category_breakdown(engine.now)
        assert breakdown["summarize"] == 0.0

    def test_source_down_marked_after_timeouts(self, world, engine, fabric):
        daemon = world.gmetad(sources={"meteor": [world.pseudo.address]})
        daemon.start()
        engine.run_for(40.0)
        fabric.set_host_up(world.pseudo.server_host, False)
        engine.run_for(60.0)
        snapshot = daemon.datastore.source("meteor")
        assert not snapshot.up
        assert snapshot.consecutive_failures >= 1
        # stale data kept for forensics
        assert snapshot.columns.host_count == 6


class TestNLevelHierarchy:
    """Child gmetad -> parent gmetad reporting."""

    @pytest.fixture
    def pair(self, world, engine):
        child = world.gmetad(
            name="sdsc", sources={"meteor": [world.pseudo.address]}
        )
        parent = world.gmetad(
            name="root", sources={"sdsc": [child.address]}
        )
        child.start()
        parent.start()
        engine.run_for(50.0)
        return parent, child

    def test_parent_sees_grid_source_in_summary_form(self, pair):
        parent, child = pair
        snapshot = parent.datastore.source("sdsc")
        assert snapshot.kind == "grid"
        assert snapshot.grid.name == child.config.gridname
        meteor = snapshot.grid.clusters["meteor"]
        assert meteor.is_summary  # no per-host data crossed the edge
        assert snapshot.summary.hosts_total == 6

    def test_parent_archives_only_summaries(self, pair):
        parent, _ = pair
        assert all(k.host == SUMMARY_HOST for k in parent.rrd_store.keys())

    def test_parent_keeps_authority_pointer(self, pair):
        parent, child = pair
        snapshot = parent.datastore.source("sdsc")
        assert snapshot.authority == child.config.authority_url

    def test_upstream_report_is_o_of_m(self, pair, engine, world):
        """Upstream bytes must not scale with host count (O(m) bound)."""
        parent, child = pair
        small_xml, _ = child.serve_query("/?filter=summary")
        # grow the cluster 4x and compare the upstream report size
        big_pseudo = PseudoGmond(
            engine, world.pseudo.engine and parent.fabric, parent.tcp,
            "bigmeteor", num_hosts=24, rng=world.pseudo._rng,
        )
        child.add_data_source(
            __import__("repro.core.tree", fromlist=["DataSourceConfig"]).DataSourceConfig(
                "bigmeteor", [big_pseudo.address], poll_interval=15.0, timeout=5.0
            )
        )
        engine.run_for(40.0)
        big_xml, _ = child.serve_query("/?filter=summary")
        # two sources now; the report roughly doubles but must stay far
        # below per-host scaling (24+6 hosts x ~30 metrics x ~100B)
        assert len(big_xml) < 3 * len(small_xml)

    def test_three_level_chain(self, world, engine):
        leaf = world.gmetad(name="attic", sources={"meteor": [world.pseudo.address]})
        mid = world.gmetad(name="sdsc", sources={"attic": [leaf.address]})
        top = world.gmetad(name="root", sources={"sdsc": [mid.address]})
        for daemon in (leaf, mid, top):
            daemon.start()
        engine.run_for(80.0)
        snapshot = top.datastore.source("sdsc")
        assert snapshot.kind == "grid"
        # the attic grid appears one level down, merged
        attic = snapshot.grid.grids["attic"]
        assert attic.is_summary
        assert attic.summary.hosts_total == 6
        rollup, _ = top.datastore.root_summary()
        assert rollup.hosts_total == 6


class TestNLevelServing:
    def test_serves_valid_xml_for_all_query_forms(self, world, engine):
        daemon = world.gmetad(sources={"meteor": [world.pseudo.address]})
        daemon.start()
        engine.run_for(40.0)
        for query in ("/", "/?filter=summary", "/meteor",
                      "/meteor?filter=summary", "/meteor/meteor-0-0",
                      "/meteor/meteor-0-0/load_one"):
            xml, seconds = daemon.serve_query(query)
            parse_document(xml, validate=True)
            assert seconds > 0

    def test_garbage_request_gets_full_dump(self, world, engine):
        daemon = world.gmetad(sources={"meteor": [world.pseudo.address]})
        daemon.start()
        engine.run_for(40.0)
        xml, _ = daemon.serve_query("GET / HTTP/1.0")
        doc = parse_document(xml)
        assert "meteor" in doc.grids[daemon.config.gridname].clusters

    def test_resolve_convenience(self, world, engine):
        daemon = world.gmetad(sources={"meteor": [world.pseudo.address]})
        daemon.start()
        engine.run_for(40.0)
        xml, _ = daemon.serve_query("/meteor/meteor-0-2")
        assert list(parse_document(xml).clusters["meteor"].hosts) == ["meteor-0-2"]


    @pytest.mark.parametrize("accept", ["", "&accept=bin1"])
    def test_summary_of_a_source_that_never_answered(
        self, engine, fabric, tcp, accept
    ):
        """A viewer asks over TCP for the summary of a cluster whose only
        gmond never answered: the reply is the empty-summary shell the
        whole-tree dump serves for it, and the simulation runs on."""
        config = GmetadConfig(
            name="sdsc", host="gmeta-sdsc", columnar_serve=True, binary_wire=True
        )
        config.add_source("meteor", [Address("gone", 8649)])
        daemon = Gmetad(engine, fabric, tcp, config)
        daemon.start()
        fabric.add_host("viewer")
        engine.run_for(40.0)
        assert daemon.datastore.source("meteor").columns is None
        replies = []
        tcp.request(
            "viewer", daemon.address, "/meteor?filter=summary" + accept,
            lambda payload, rtt: replies.append(str(payload)),
        )
        engine.run_for(20.0)
        assert engine.now == 60.0 and len(replies) == 1
        cluster = parse_document(replies[0], validate=True).clusters["meteor"]
        dump = parse_document(daemon.serve_query("/?filter=summary")[0])
        shell = dump.grids[config.gridname].clusters["meteor"]
        assert cluster.summary == shell.summary
        assert (cluster.summary.hosts_up, cluster.summary.hosts_down) == (0, 0)
        assert not cluster.summary.metrics and not cluster.hosts


class TestOneLevel:
    def test_flattens_unions_from_children(self, world, engine, fabric, tcp, rngs):
        pseudo2 = PseudoGmond(
            engine, fabric, tcp, "nashi", num_hosts=4, rng=rngs.stream("pg2")
        )
        child = world.gmetad(
            OneLevelGmetad, name="sdsc",
            sources={"meteor": [world.pseudo.address],
                     "nashi": [pseudo2.address]},
        )
        parent = world.gmetad(
            OneLevelGmetad, name="root", sources={"sdsc": [child.address]}
        )
        child.start()
        parent.start()
        engine.run_for(60.0)
        # the parent has BOTH clusters at full detail, keyed by cluster
        assert parent.datastore.source_names() == ["meteor", "nashi"]
        assert parent.datastore.source("meteor").columns.host_count == 6
        assert parent.datastore.source("nashi").columns.host_count == 4
        assert parent.cluster_origin["meteor"] == "sdsc"

    def test_duplicate_archives_at_every_level(self, world, engine):
        """§2.1: 'every monitor between a cluster and the root will keep
        identical metric archives for that cluster.'"""
        child = world.gmetad(
            OneLevelGmetad, name="sdsc",
            sources={"meteor": [world.pseudo.address]},
        )
        parent = world.gmetad(
            OneLevelGmetad, name="root", sources={"sdsc": [child.address]}
        )
        child.start()
        parent.start()
        engine.run_for(60.0)
        child_keys = set(child.rrd_store.keys_for_host("meteor", "meteor", "meteor-0-0"))
        parent_keys = set(parent.rrd_store.keys_for_host("meteor", "meteor", "meteor-0-0"))
        assert child_keys and child_keys == parent_keys

    def test_serves_everything_regardless_of_query(self, world, engine):
        daemon = world.gmetad(
            OneLevelGmetad, name="sdsc",
            sources={"meteor": [world.pseudo.address]},
        )
        daemon.start()
        engine.run_for(40.0)
        full, _ = daemon.serve_query("/")
        subtree, _ = daemon.serve_query("/meteor/meteor-0-0")
        assert full == subtree  # no query engine in 2.5.1

    def test_no_summaries_computed(self, world, engine):
        daemon = world.gmetad(
            OneLevelGmetad, name="sdsc",
            sources={"meteor": [world.pseudo.address]},
        )
        daemon.start()
        engine.run_for(40.0)
        assert daemon.datastore.source("meteor").summary.metrics == {}
        assert daemon.cpu.category_breakdown(engine.now)["summarize"] == 0.0

    def test_source_down_marks_delivered_clusters(self, world, engine, fabric):
        daemon = world.gmetad(
            OneLevelGmetad, name="sdsc",
            sources={"meteor": [world.pseudo.address]},
        )
        daemon.start()
        engine.run_for(40.0)
        fabric.set_host_up(world.pseudo.server_host, False)
        engine.run_for(60.0)
        assert not daemon.datastore.source("meteor").up

    def test_cluster_that_leaves_a_union_is_forgotten(self):
        """A child drops a cluster from its union: every 1-level daemon
        above it stops serving, touching and archiving that cluster."""
        fed = build_paper_tree(
            "1level", hosts_per_cluster=2, freeze_values=True,
            incremental=True, archive_mode="full",
        ).start()
        fed.engine.run_for(120.0)
        attic = fed.gmetad("attic")
        attic.remove_data_source("attic-c0")
        fed.engine.run_for(600.0)
        for name in ("sdsc", "root"):
            daemon = fed.gmetad(name)
            assert "attic-c0" not in daemon.datastore.sources, name
            assert "attic-c0" not in daemon.cluster_origin, name
            assert 'CLUSTER NAME="attic-c0"' not in daemon.serve_query("/")[0]
            assert 'CLUSTER NAME="attic-c1"' in daemon.serve_query("/")[0]
            # the archive stops at the poll that saw the cluster leave
            for key in daemon.rrd_store.keys_for_host(
                "attic-c0", "attic-c0", "attic-c0-0-0"
            ):
                last = daemon.rrd_store.database(key).last_update_time
                assert last < 200.0, (name, key, last)
            assert daemon.archiver.replay("attic-c0", fed.engine.now) == 0


class TestElementCounting:
    def test_document_element_count(self, world):
        doc = parse_document(world.pseudo.current_xml())
        count = document_element_count(doc)
        # 1 cluster + 6 hosts + 6*33 metrics
        assert count == 1 + 6 + 6 * 33
