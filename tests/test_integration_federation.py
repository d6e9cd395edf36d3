"""End-to-end integration tests on the paper's six-gmetad federation.

These pin the cross-module invariants the experiments rely on:
summaries at the root agree with the leaf data that produced them,
failures propagate as DOWN counts, gmetad fails over between redundant
gmond endpoints, and both designs expose the same global state.
"""

import pytest

from repro.bench.topology import build_paper_tree
from repro.core.gmetad import Gmetad
from repro.core.tree import GmetadConfig
from repro.faults.injector import FaultInjector
from repro.gmond.cluster import SimulatedCluster
from repro.net.fabric import Fabric
from repro.net.tcp import TcpNetwork
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.wire.parser import parse_document


class TestSummaryConsistency:
    """Root-level summaries must equal the leaf-level ground truth."""

    def test_root_rollup_counts_every_host(self, warm_nlevel_federation):
        federation = warm_nlevel_federation
        rollup, _ = federation.gmetad("root").datastore.root_summary()
        expected = 12 * federation.hosts_per_cluster
        assert rollup.hosts_total == expected
        assert rollup.hosts_down == 0

    def test_root_sum_equals_sum_of_leaf_sums(self, warm_nlevel_federation):
        federation = warm_nlevel_federation
        leaf_total = 0.0
        for name in ("physics", "math", "attic", "sdsc"):
            daemon = federation.gmetad(name)
            for source_name in daemon.datastore.source_names():
                snapshot = daemon.datastore.source(source_name)
                if snapshot.kind == "cluster":
                    leaf_total += snapshot.summary.metrics["cpu_num"].total
        rollup, _ = federation.gmetad("root").datastore.root_summary()
        # cpu_num is constant per host, so stale-vs-fresh snapshots agree
        assert rollup.metrics["cpu_num"].total == pytest.approx(
            leaf_total, rel=1e-9
        )

    def test_intermediate_levels_consistent(self, warm_nlevel_federation):
        federation = warm_nlevel_federation
        ucsd_rollup, _ = federation.gmetad("ucsd").datastore.root_summary()
        assert ucsd_rollup.hosts_total == 6 * federation.hosts_per_cluster

    def test_served_xml_matches_datastore(self, warm_nlevel_federation):
        federation = warm_nlevel_federation
        root = federation.gmetad("root")
        xml, _ = root.serve_query("/?filter=summary")
        doc = parse_document(xml, validate=True)
        grid = doc.grids[root.config.gridname]
        total = sum(g.summary.hosts_total for g in grid.grids.values())
        rollup, _ = root.datastore.root_summary()
        assert total == rollup.hosts_total

    def test_both_designs_expose_same_global_host_count(
        self, warm_nlevel_federation, warm_1level_federation
    ):
        one_level_root = warm_1level_federation.gmetad("root")
        xml, _ = one_level_root.serve_query("/")
        doc = parse_document(xml)
        hosts_1level = sum(len(c.hosts) for c in doc.clusters.values())
        rollup, _ = warm_nlevel_federation.gmetad("root").datastore.root_summary()
        assert hosts_1level == rollup.hosts_total


class TestFreshness:
    def test_queries_served_from_latest_parsed_snapshot(self):
        """§2.3.1: results reflect the last *completed* poll."""
        federation = build_paper_tree("nlevel", hosts_per_cluster=4)
        federation.start()
        federation.engine.run_for(60.0)
        sdsc = federation.gmetad("sdsc")
        snapshot_time = sdsc.datastore.source("sdsc-c0").last_success
        # queries between polls keep answering with that snapshot
        xml1, _ = sdsc.serve_query("/sdsc-c0")
        federation.engine.run_for(3.0)  # less than a poll interval
        xml2, _ = sdsc.serve_query("/sdsc-c0")
        assert xml1 == xml2
        assert sdsc.datastore.source("sdsc-c0").last_success == snapshot_time
        federation.stop()


class TestClusterFailurePropagation:
    def test_dead_cluster_marked_down_up_the_tree(self):
        federation = build_paper_tree("nlevel", hosts_per_cluster=4)
        federation.start()
        federation.engine.run_for(60.0)
        injector = FaultInjector(federation.engine, federation.fabric)
        injector.crash_host(federation.pseudos["attic-c0"].server_host, at=0.0)
        federation.engine.run_for(90.0)
        attic = federation.gmetad("attic")
        assert "attic-c0" in attic.datastore.down_sources()
        # stale summary still counted upstream (forensics), tree intact
        root_rollup, _ = federation.gmetad("root").datastore.root_summary()
        assert root_rollup.hosts_total == 12 * 4
        federation.stop()

    def test_dead_hosts_counted_down_at_root(self):
        federation = build_paper_tree("nlevel", hosts_per_cluster=4)
        federation.start()
        federation.engine.run_for(60.0)
        pseudo = federation.pseudos["math-c1"]
        pseudo.set_host_down(0)
        pseudo.set_host_down(1)
        federation.engine.run_for(150.0)  # > heartbeat window + polls
        rollup, _ = federation.gmetad("root").datastore.root_summary()
        assert rollup.hosts_down == 2
        assert rollup.hosts_up == 12 * 4 - 2
        federation.stop()

    def test_recovered_hosts_counted_up_again(self):
        federation = build_paper_tree("nlevel", hosts_per_cluster=4)
        federation.start()
        federation.engine.run_for(60.0)
        pseudo = federation.pseudos["math-c1"]
        pseudo.set_host_down(0)
        federation.engine.run_for(150.0)
        pseudo.set_host_down(0, down=False)
        federation.engine.run_for(60.0)
        rollup, _ = federation.gmetad("root").datastore.root_summary()
        assert rollup.hosts_down == 0
        federation.stop()

    def test_partition_heals_without_permanent_fissure(self):
        """'failures do not cause permanent fissures in the monitoring
        tree' -- polling resumes after the partition heals."""
        federation = build_paper_tree("nlevel", hosts_per_cluster=4)
        federation.start()
        federation.engine.run_for(60.0)
        injector = FaultInjector(federation.engine, federation.fabric)
        injector.partition(
            ["gmeta-root"], ["gmeta-sdsc"], at=0.0, duration=120.0
        )
        federation.engine.run_for(90.0)
        root = federation.gmetad("root")
        assert "sdsc" in root.datastore.down_sources()
        federation.engine.run_for(90.0)  # healed; next polls succeed
        assert "sdsc" in root.datastore.up_sources()
        federation.stop()


class TestGmondFailover:
    """Real gmond agents + gmetad fail-over between redundant endpoints."""

    def build(self):
        engine = Engine()
        fabric = Fabric()
        tcp = TcpNetwork(engine, fabric)
        rngs = RngRegistry(7)
        cluster = SimulatedCluster.build(
            engine, fabric, tcp, rngs, name="meteor", num_hosts=5
        )
        cluster.start()
        config = GmetadConfig(name="mon", host="gmeta-mon", archive_mode="full")
        config.add_source("meteor", cluster.gmond_addresses(count=3))
        daemon = Gmetad(engine, fabric, tcp, config)
        daemon.start()
        return engine, fabric, cluster, daemon

    def test_monitoring_survives_polled_node_death(self):
        engine, fabric, cluster, daemon = self.build()
        engine.run_for(60.0)
        assert daemon.datastore.source("meteor").up
        # kill the node gmetad is polling
        fabric.set_host_up("meteor-0-0", False)
        cluster.agent("meteor-0-0").stop()
        engine.run_for(120.0)  # > heartbeat window + a couple of polls
        snapshot = daemon.datastore.source("meteor")
        assert snapshot.up  # failover succeeded (Fig. 1)
        assert daemon.pollers["meteor"].failovers >= 1
        # the dead node eventually shows as down in the summary
        assert snapshot.summary.hosts_down >= 1
        assert snapshot.summary.hosts_up == 4

    def test_failover_data_identical_from_any_node(self):
        """Redundant global knowledge: the replacement node serves the
        same cluster picture the dead node did."""
        engine, fabric, cluster, daemon = self.build()
        engine.run_for(60.0)
        hosts_before = set(daemon.datastore.source("meteor").columns.host_names)
        fabric.set_host_up("meteor-0-0", False)
        engine.run_for(60.0)
        hosts_after = set(daemon.datastore.source("meteor").columns.host_names)
        assert hosts_before == hosts_after == {
            f"meteor-0-{i}" for i in range(5)
        }
