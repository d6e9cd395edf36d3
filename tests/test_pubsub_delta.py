"""Unit tests for delta encoding: flatten, diff, apply, DeltaStream,
and the per-source delta engine held to the whole-datastore re-flatten."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.layout import InternPool, columns_from_cluster
from repro.columnar.summarize import summarize_columns
from repro.core.datastore import Datastore, SourceSnapshot
from repro.core.summarize import merge_summaries, summarize_cluster
from repro.metrics.types import MetricType
from repro.pubsub import messages
from repro.pubsub.client import DeltaStream
from repro.pubsub.delta import (
    DeltaEngine,
    DeltaOp,
    apply_ops,
    diff_states,
    flatten_datastore,
    key_segments,
)
from repro.wire import binfmt
from repro.wire.model import (
    ClusterElement,
    GridElement,
    HostElement,
    MetricElement,
)


class TestDeltaOp:
    def test_wire_forms(self):
        assert DeltaOp("set", "a/b", "1").wire() == ["s", "a/b", "1"]
        assert DeltaOp("del", "a/b").wire() == ["d", "a/b"]

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError):
            DeltaOp("mov", "a")

    def test_roundtrip_through_message(self):
        ops = [DeltaOp("set", "x", "1"), DeltaOp("del", "y")]
        msg = messages.decode(messages.encode(messages.delta("s1", 3, 2, ops)))
        assert messages.ops_of(msg) == ops
        assert (msg["seq"], msg["prev"]) == (3, 2)


class TestKeySegments:
    def test_summary_mark_stripped(self):
        assert key_segments("sdsc/c0?summary/load_one") == (
            "sdsc", "c0", "load_one",
        )

    def test_plain_path(self):
        assert key_segments("c0/host/metric") == ("c0", "host", "metric")


class TestDiffApply:
    def test_identical_states_no_ops(self):
        state = {"a": "1", "b": "2"}
        assert diff_states(state, dict(state)) == []

    def test_set_and_del_sorted_by_path(self):
        ops = diff_states({"b": "1", "z": "9"}, {"b": "2", "a": "0"})
        assert [op.wire() for op in ops] == [
            ["s", "a", "0"], ["s", "b", "2"], ["d", "z"],
        ]

    def test_apply_reconstructs_target(self):
        old = {"a": "1", "b": "2", "c": "3"}
        new = {"a": "1", "b": "x", "d": "4"}
        state = dict(old)
        apply_ops(state, diff_states(old, new))
        assert state == new


class TestFlattenAndEngine:
    @pytest.fixture
    def daemon(self, engine, fabric, tcp, rngs):
        from repro.core.gmetad import Gmetad
        from repro.core.tree import GmetadConfig
        from repro.gmond.pseudo import PseudoGmond

        pseudo = PseudoGmond(
            engine, fabric, tcp, "meteor", num_hosts=3,
            rng=rngs.stream("pg"),
            refresh_interval=float("inf"),  # frozen values
        )
        config = GmetadConfig(
            name="sdsc", host="gmeta-sdsc", archive_mode="account"
        )
        config.add_source("meteor", [pseudo.address])
        return Gmetad(engine, fabric, tcp, config).start()

    def test_flatten_covers_all_levels(self, daemon, engine):
        engine.run_for(40.0)
        state = flatten_datastore(daemon.datastore)
        assert state["meteor"].startswith("src|cluster|up")
        assert state["meteor?summary"].startswith("hosts|3|")
        assert "meteor?summary/load_one" in state
        assert state["meteor/meteor-0-0"] == "host|up"
        assert "meteor/meteor-0-0/load_one" in state

    def test_exclude_sources_drops_subtree(self, daemon, engine):
        engine.run_for(40.0)
        state = flatten_datastore(
            daemon.datastore, exclude_sources=["meteor"]
        )
        assert state == {}

    def test_unchanged_values_produce_no_deltas(self, daemon, engine):
        """The property that makes push cheap: deltas track the change
        rate, not the poll rate -- repeated polls of frozen values
        produce zero ops despite TN/REPORTED churning in the XML."""
        delta_engine = DeltaEngine(daemon.datastore)
        engine.run_for(20.0)
        assert len(delta_engine.advance()) > 0  # initial population
        polls_before = daemon.polls_ingested + daemon.polls_not_modified
        engine.run_for(45.0)
        # polling continued (frozen sources may answer NOT-MODIFIED)
        assert daemon.polls_ingested + daemon.polls_not_modified > polls_before
        assert delta_engine.advance() == []


HW = 80.0

#: metric name -> TYPE; ``os_name`` is the one non-numeric metric
TYPES = {
    "load_one": MetricType.FLOAT,
    "mem_free": MetricType.UINT32,
    "os_name": MetricType.STRING,
    "disk_free": MetricType.DOUBLE,
}


def build_cluster(name, hosts):
    """``hosts``: host name -> (tn, {metric: VAL}), in document order."""
    cluster = ClusterElement(name=name, localtime=1000.0)
    for host_name, (tn, metrics) in hosts.items():
        host = HostElement(name=host_name, ip="10.0.0.1", reported=990.0, tn=tn)
        for metric, val in metrics.items():
            host.add_metric(MetricElement(metric, val, TYPES[metric]))
        cluster.add_host(host)
    return cluster


class Scripted:
    """One datastore driven by hand, one engine on it, checked per step."""

    def __init__(self):
        self.datastore = Datastore()
        self.pool = InternPool()
        self.engine = DeltaEngine(self.datastore, HW)
        self.published = {}
        self.now = 0.0

    def _install(self, snapshot):
        self.now += 15.0
        self.datastore.install(snapshot, self.now)
        return snapshot

    def install_columns(self, name, hosts):
        cols = columns_from_cluster(build_cluster(name, hosts), self.pool)
        summary, _ = summarize_columns(cols, HW)
        shell = cols.shell_cluster()
        shell.summary = summary
        return self._install(SourceSnapshot(
            name=name, kind="cluster", summary=summary, cluster=shell,
            columns=cols,
        ))

    def install_tree(self, name, hosts):
        """A cluster that arrives as a tree, converted into a pool of
        its own (so the engine sees a new layout)."""
        cluster = build_cluster(name, hosts)
        summary, _ = summarize_cluster(cluster, HW)
        cluster.summary = summary
        return self._install(SourceSnapshot.from_cluster(
            cluster, InternPool(), name=name, summary=summary,
        ))

    def install_grid(self, name, nested):
        grid = GridElement(name=name, authority=f"http://{name}/")
        for cluster_name, hosts in nested.items():
            cluster = ClusterElement(name=cluster_name)
            cluster.summary, _ = summarize_cluster(
                build_cluster(cluster_name, hosts), HW
            )
            grid.add_cluster(cluster)
        summary, _ = merge_summaries([c.summary for c in grid.clusters.values()])
        grid.summary = summary
        return self._install(SourceSnapshot(
            name=name, kind="grid", summary=summary, grid=grid,
        ))

    def step(self, exclude=()):
        """Advance the engine; it must equal the oracle, op for op."""
        ops = self.engine.advance(exclude_sources=exclude)
        expected = flatten_datastore(
            self.datastore, HW, exclude
        )
        assert ops == diff_states(self.published, expected)
        assert list(self.engine.state.items()) == list(expected.items())
        assert self.datastore.materializations == 0
        self.published = expected
        return ops


def paths(ops):
    return [(op.op, op.path) for op in ops]


def hosts_of(n, tn=5.0, load="0.5"):
    return {
        f"h{i}": (tn, {"load_one": load, "mem_free": str(1000 + i),
                       "os_name": "Linux"})
        for i in range(n)
    }


class TestEngineEqualsOracle:
    def test_scripted_sequence(self):
        world = Scripted()
        alpha = hosts_of(3)
        world.install_columns("alpha", alpha)
        world.install_tree("beta", hosts_of(2))
        world.install_grid("grid1", {"c1": hosts_of(2), "c2": hosts_of(1)})
        assert len(world.step()) == len(world.published)  # initial population
        assert world.step() == []  # nothing moved

        # value churn: one row, and the summary it feeds
        alpha["h0"][1]["load_one"] = "0.75"
        world.install_columns("alpha", alpha)
        assert paths(world.step()) == [
            ("set", "alpha/h0/load_one"),
            ("set", "alpha?summary/load_one"),
        ]

        # a re-poll with equal values is silent
        world.install_columns("alpha", alpha)
        assert world.step() == []

        # TN crosses the heartbeat window: the host goes down
        alpha["h1"] = (HW + 10.0, alpha["h1"][1])
        world.install_columns("alpha", alpha)
        assert ("set", "alpha/h1") in paths(world.step())
        assert world.engine.state["alpha/h1"] == "host|down"

        # a host joins, then another leaves (layout changes)
        alpha["h9"] = (1.0, {"load_one": "2", "mem_free": "7", "os_name": "BSD"})
        world.install_columns("alpha", alpha)
        assert ("set", "alpha/h9/os_name") in paths(world.step())
        del alpha["h0"]
        world.install_columns("alpha", alpha)
        assert ("del", "alpha/h0/load_one") in paths(world.step())

        # a metric appears on one host
        alpha["h2"][1]["disk_free"] = "12.5"
        world.install_columns("alpha", alpha)
        assert ("set", "alpha/h2/disk_free") in paths(world.step())

        # a NaN, then a VAL that does not parse as a number
        alpha["h2"][1]["disk_free"] = "NaN"
        world.install_columns("alpha", alpha)
        world.step()
        alpha["h2"][1]["disk_free"] = "n/a"
        world.install_columns("alpha", alpha)
        assert ("set", "alpha/h2/disk_free") in paths(world.step())
        alpha["h2"][1]["disk_free"] = "7"
        world.install_columns("alpha", alpha)
        assert ("set", "alpha?summary/disk_free") in paths(world.step())

        # the summary metric that only h2 fed disappears
        del alpha["h2"][1]["disk_free"]
        world.install_columns("alpha", alpha)
        assert ("del", "alpha?summary/disk_free") in paths(world.step())

        # mark_failure flips ``up`` on the same snapshot, moving no stamp
        snapshot = world.datastore.sources["alpha"]
        world.datastore.mark_failure("alpha", world.now, "timeout")
        assert world.datastore.sources["alpha"] is snapshot
        assert paths(world.step()) == [("set", "alpha")]
        world.datastore.touch_success("alpha", world.now)
        assert paths(world.step()) == [("set", "alpha")]

        # a grid source's LOCALTIME patch moves a stamp but no key
        assert world.datastore.patch_localtime("grid1", 4242.0)
        assert world.step() == []

        # relayed: every key goes; back: every key returns
        dropped = world.step(exclude={"alpha"})
        assert dropped and all(op.op == "del" for op in dropped)
        restored = world.step()
        assert restored and all(op.op == "set" for op in restored)

        # a tree source replaced in place, then removed
        world.install_tree("beta", hosts_of(3, load="0.9"))
        world.step()
        assert world.datastore.remove_source("beta")
        removed = world.step()
        assert removed and all(op.path.startswith("beta") for op in removed)

        # removed and re-added: the source moves to the end of the order
        assert world.datastore.remove_source("alpha")
        world.step()
        world.install_columns("alpha", alpha)
        world.step()
        assert list(world.engine.state)[-1].startswith("alpha")

    def test_failed_source_placeholders(self):
        world = Scripted()
        world.datastore.mark_failure("ghost", 0.0, "refused")
        world.datastore.mark_failure("gridghost", 0.0, "refused", kind="grid")
        world.step()
        world.install_grid("ghost", {"c": hosts_of(1)})  # kind changes
        world.install_columns("gridghost", hosts_of(2))
        world.step()

    def test_full_sync_frame_is_byte_equal_to_the_oracle(self):
        world = Scripted()
        alpha = hosts_of(4)
        world.install_columns("alpha", alpha)
        world.install_grid("grid1", {"c1": hosts_of(2)})
        world.step()
        alpha["h3"] = (HW * 2, {"load_one": "9"})
        world.install_columns("alpha", alpha)
        world.step()
        state = world.engine.state
        oracle = flatten_datastore(world.datastore, HW)
        frame = binfmt.encode_message(messages.full_sync("s1", 7, state))
        assert frame == binfmt.encode_message(messages.full_sync("s1", 7, oracle))

    def test_augment_is_diffed_on_its_own(self):
        world = Scripted()
        extra = {"__repl__/gen": "1"}
        world.engine.augment = lambda: dict(extra)
        world.install_columns("alpha", hosts_of(1))
        ops = world.engine.advance()
        assert ("set", "__repl__/gen") in paths(ops)
        assert list(world.engine.state)[-1] == "__repl__/gen"
        extra["__repl__/gen"] = "2"
        assert paths(world.engine.advance()) == [("set", "__repl__/gen")]
        extra.clear()
        assert paths(world.engine.advance()) == [("del", "__repl__/gen")]

    def test_keys_scanned_counts_published_keys_plus_ops(self):
        world = Scripted()
        alpha = hosts_of(2)
        world.install_columns("alpha", alpha)
        ops = world.step()
        assert world.engine.keys_scanned == len(world.published) + len(ops)
        alpha["h1"][1]["load_one"] = "3"
        world.install_columns("alpha", alpha)
        before = world.engine.keys_scanned
        ops = world.step()
        assert world.engine.keys_scanned - before == len(world.published) + len(ops)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(
                ["val", "tn", "add", "drop", "metric", "fail", "ok",
                 "exclude", "remove", "tree", "nothing"]
            ),
            st.integers(0, 4),
            st.sampled_from(["0.5", "1.5", "NaN", "x", "1e3", "0.50"]),
        ),
        max_size=14,
    ))
    def test_random_churn_matches_oracle(self, script):
        world = Scripted()
        alpha = hosts_of(3)
        world.install_columns("alpha", alpha)
        world.install_grid("grid1", {"c1": hosts_of(1)})
        world.step()
        for action, i, val in script:
            exclude = ()
            names = sorted(alpha)
            host = names[i % len(names)] if names else None
            if action == "val" and host:
                alpha[host][1]["load_one"] = val
            elif action == "tn" and host:
                tn = 0.0 if alpha[host][0] > HW else HW + 1.0
                alpha[host] = (tn, alpha[host][1])
            elif action == "add":
                alpha[f"n{i}"] = (1.0, {"load_one": val, "mem_free": "5"})
            elif action == "drop" and host and len(alpha) > 1:
                del alpha[host]
            elif action == "metric" and host:
                metrics = alpha[host][1]
                if metrics.pop("disk_free", None) is None:
                    metrics["disk_free"] = val
            elif action == "fail":
                world.datastore.mark_failure("alpha", world.now, "down")
            elif action == "ok":
                world.datastore.touch_success("alpha", world.now)
            elif action == "exclude":
                exclude = ("alpha",)
            elif action == "remove":
                world.datastore.remove_source("alpha")
            elif action == "tree":
                world.install_tree("alpha", alpha)
            if action in ("val", "tn", "add", "drop", "metric"):
                world.install_columns("alpha", alpha)
            world.step(exclude)


class TestBrokerNeverBuildsADom:
    def test_columnar_serve_broker_with_read_tier(self, engine, fabric, tcp, rngs):
        from repro.core.gmetad import Gmetad
        from repro.core.tree import GmetadConfig
        from repro.gmond.pseudo import PseudoGmond
        from repro.obs.config import ObservabilityConfig
        from repro.readtier.config import ReadTierConfig
        from repro.readtier.replica import ReadReplica

        config = GmetadConfig(
            name="sdsc", host="gmeta-sdsc", archive_mode="account",
            columnar=True, columnar_serve=True, binary_wire=True,
            observability=ObservabilityConfig(),
            read_tier=ReadTierConfig(columnar_serve=True, binary_feed=True),
        )
        for i, name in enumerate(("meteor", "torus")):
            pseudo = PseudoGmond(
                engine, fabric, tcp, name, num_hosts=4 + i,
                rng=rngs.stream(f"pg:{name}"), refresh_interval=5.0,
            )
            config.add_source(name, [pseudo.address])
        daemon = Gmetad(engine, fabric, tcp, config).start()
        broker = daemon.attach_pubsub()
        replica = ReadReplica(
            engine, fabric, tcp, daemon, name="r1", host="gmeta-sdsc-r1"
        ).start()
        engine.run_for(30.0)
        publishes, pushed = broker.publishes, broker.bytes_pushed
        engine.run_for(75.0)
        assert broker.publishes - publishes >= 3
        assert broker.bytes_pushed > pushed  # churned values went out
        assert replica.synced
        assert any(
            snapshot.columns is not None
            for snapshot in daemon.datastore.sources.values()
        )
        assert daemon.datastore.materializations == 0
        assert daemon.obs.registry.snapshot()["serve_materializations"] == 0
        # the published state is still the re-flatten of a built tree
        oracle = flatten_datastore(
            daemon.datastore,
            daemon.config.heartbeat_window,
        )
        oracle.update(broker.feed.state())
        state = broker.current_state()
        assert list(state.items()) == list(oracle.items())
        assert binfmt.encode_message(
            messages.full_sync("r", broker.seq, state)
        ) == binfmt.encode_message(messages.full_sync("r", broker.seq, oracle))


class TestDeltaStream:
    def full(self, seq, state):
        return messages.full_sync("s1", seq, state)

    def delta(self, seq, prev, ops):
        return messages.delta("s1", seq, prev, ops)

    def test_delta_before_sync_is_unsynced(self):
        stream = DeltaStream()
        outcome = stream.apply_message(
            self.delta(1, 0, [DeltaOp("set", "a", "1")])
        )
        assert outcome == "unsynced"
        assert not stream.synced

    def test_full_then_deltas(self):
        stream = DeltaStream()
        assert stream.apply_message(self.full(2, {"a": "1"})) == "synced"
        assert stream.apply_message(
            self.delta(3, 2, [DeltaOp("set", "b", "2")])
        ) == "applied"
        assert stream.mirror == {"a": "1", "b": "2"}
        assert stream.last_seq == 3

    def test_duplicate_ignored(self):
        stream = DeltaStream()
        stream.apply_message(self.full(5, {}))
        msg = self.delta(5, 4, [DeltaOp("set", "a", "1")])
        assert stream.apply_message(msg) == "duplicate"
        assert stream.mirror == {}

    def test_missed_sequence_detected_as_gap(self):
        stream = DeltaStream()
        stream.apply_message(self.full(1, {"a": "1"}))
        # seq 2 lost in transit; seq 3 arrives with prev=2
        outcome = stream.apply_message(
            self.delta(3, 2, [DeltaOp("set", "a", "3")])
        )
        assert outcome == "gap"
        assert stream.mirror == {"a": "1"}  # not applied
        assert stream.gaps_detected == 1

    def test_full_sync_repairs_gap(self):
        stream = DeltaStream()
        stream.apply_message(self.full(1, {"a": "1"}))
        stream.apply_message(self.delta(3, 2, [DeltaOp("set", "a", "3")]))
        assert stream.apply_message(self.full(3, {"a": "3"})) == "synced"
        assert stream.mirror == {"a": "3"}
        assert stream.last_seq == 3

    def test_stale_full_sync_not_installed(self):
        stream = DeltaStream()
        stream.apply_message(self.full(7, {"a": "new"}))
        assert stream.apply_message(self.full(4, {"a": "old"})) == "duplicate"
        assert stream.mirror == {"a": "new"}
