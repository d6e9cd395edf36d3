"""Integration tests: broker + clients on the simulated fabric.

Covers the acceptance properties of the pub-sub subsystem: mirror
consistency with the poll-mode datastore, backpressure degradation to
full sync, lease-based soft state, recovery after injected partitions
(including reconnect after missed sequence numbers), and in-tree
subscription folding across a two-level gmetad hierarchy.
"""

import pytest

from repro.core.gmetad import Gmetad
from repro.core.tree import GmetadConfig
from repro.faults.injector import FaultInjector
from repro.gmond.pseudo import PseudoGmond
from repro.net.address import Address
from repro.net.tcp import Response
from repro.pubsub import messages
from repro.pubsub.client import PushClient
from repro.pubsub.delta import DeltaOp, flatten_datastore


@pytest.fixture
def world(engine, fabric, tcp, rngs):
    """Builder helpers for gmetads and pseudo clusters on one fabric."""

    class World:
        def pseudo(self, name, hosts=4, refresh=15.0):
            return PseudoGmond(
                engine, fabric, tcp, name, num_hosts=hosts,
                rng=rngs.stream(f"pg:{name}"), refresh_interval=refresh,
            )

        def gmetad(self, name, sources):
            config = GmetadConfig(
                name=name, host=f"gmeta-{name}", archive_mode="account"
            )
            for source_name, addresses in sources.items():
                config.add_source(source_name, addresses)
            return Gmetad(engine, fabric, tcp, config).start()

        def client(self, broker, path, host, **kwargs):
            return PushClient(
                engine, fabric, tcp, broker.address,
                path=path, host=host, sub_id=host, **kwargs
            ).start()

    return World()


def scoped_flatten(daemon, subscription):
    """The poll-mode datastore snapshot, scoped to one subscription."""
    state = flatten_datastore(
        daemon.datastore, daemon.config.heartbeat_window
    )
    return {k: v for k, v in state.items() if subscription.matches_key(k)}


class TestSingleBroker:
    def test_mirror_tracks_datastore(self, world, engine):
        pseudo = world.pseudo("meteor")
        daemon = world.gmetad("sdsc", {"meteor": [pseudo.address]})
        broker = daemon.attach_pubsub()
        client = world.client(broker, "/meteor", "viewer")
        engine.run_for(100.0)
        assert client.stream.synced
        assert client.full_syncs_received == 1  # the subscribe response
        assert client.deltas_received > 0
        assert client.stream.gaps_detected == 0
        sub = broker.registry.get(client.sub_id)
        assert client.state == scoped_flatten(daemon, sub)

    def test_dispatch_scopes_ops_exactly_as_sees(self, world, engine):
        """Each subscription gets the ops ``_sees`` admits, in order: the
        hidden namespace goes to ``/__repl__`` subscriptions only, and a
        source literally named ``__repl__`` keeps its odd visibility."""
        pseudo = world.pseudo("meteor")
        daemon = world.gmetad("sdsc", {"meteor": [pseudo.address]})
        broker = daemon.attach_pubsub()
        paths = ["/", "/meteor", "/__repl__", "/__repl__/gen", r"~/.*/.*"]
        captured = {}

        class Capture:
            def __init__(self, sub_id):
                self.sub_id = sub_id

            def enqueue_delta(self, seq, ops):
                captured[self.sub_id] = ops

        for i, path in enumerate(paths):
            broker.registry.subscribe(
                f"s{i}", path, Address("viewer", 9000 + i), engine.now
            )
            broker.channels[f"s{i}"] = Capture(f"s{i}")
        ops = [
            DeltaOp("set", path, "1")
            for path in sorted([
                "__repl__", "__repl__/gen", "__repl__/meta/meteor",
                "__repl__?summary", "__repl__?summary/load_one",
                "__replx", "meteor", "meteor/h0", "meteor/h0/load_one",
                "meteor?summary", "zeta",
            ])
        ]
        broker._dispatch(ops)
        for i in range(len(paths)):
            sub = broker.registry.get(f"s{i}")
            expected = [op for op in ops if broker._sees(sub, op.path)]
            assert captured.get(f"s{i}", []) == expected
        assert captured["s2"][0].path == "__repl__"
        assert not any(op.path.startswith("__repl__/") for op in captured["s0"])

    def test_frozen_values_send_no_deltas(self, world, engine):
        """Push volume tracks the change rate: with frozen metric
        values the poll cycle keeps running but nothing is pushed."""
        pseudo = world.pseudo("meteor", refresh=float("inf"))
        daemon = world.gmetad("sdsc", {"meteor": [pseudo.address]})
        broker = daemon.attach_pubsub()
        client = world.client(broker, "/meteor", "viewer")
        engine.run_for(30.0)  # first polls populate the datastore
        deltas_before = client.deltas_received
        polls_before = daemon.polls_ingested + daemon.polls_not_modified
        engine.run_for(60.0)
        # polling continued (unchanged sources may answer NOT-MODIFIED)
        assert daemon.polls_ingested + daemon.polls_not_modified > polls_before
        assert client.deltas_received == deltas_before

    def test_two_clients_are_scoped_and_isolated(self, world, engine):
        p0 = world.pseudo("c0")
        p1 = world.pseudo("c1")
        daemon = world.gmetad(
            "root", {"c0": [p0.address], "c1": [p1.address]}
        )
        broker = daemon.attach_pubsub()
        a = world.client(broker, "/c0", "viewer-a")
        b = world.client(broker, "/c1", "viewer-b")
        engine.run_for(80.0)
        assert a.state and b.state
        assert all(k.split("/")[0].split("?")[0] == "c0" for k in a.state)
        assert all(k.split("/")[0].split("?")[0] == "c1" for k in b.state)
        assert a.state == scoped_flatten(daemon, broker.registry.get("viewer-a"))
        assert b.state == scoped_flatten(daemon, broker.registry.get("viewer-b"))

    def test_source_down_pushed_as_delta(self, world, engine, fabric):
        pseudo = world.pseudo("meteor")
        daemon = world.gmetad("sdsc", {"meteor": [pseudo.address]})
        broker = daemon.attach_pubsub()
        client = world.client(broker, "/meteor", "viewer")
        engine.run_for(40.0)
        assert client.state["meteor"] == "src|cluster|up"
        fabric.set_host_up(pseudo.server_host, False)
        engine.run_for(90.0)
        assert client.state["meteor"] == "src|cluster|down"

    def test_checkpoint_full_syncs(self, world, engine):
        pseudo = world.pseudo("meteor")
        daemon = world.gmetad("sdsc", {"meteor": [pseudo.address]})
        broker = daemon.attach_pubsub(checkpoint_interval=25.0)
        client = world.client(broker, "/meteor", "viewer")
        engine.run_for(90.0)
        assert broker.checkpoints >= 3
        assert client.full_syncs_received >= 3
        sub = broker.registry.get(client.sub_id)
        assert client.state == scoped_flatten(daemon, sub)


class TestSoftState:
    def test_unrenewed_lease_is_reaped_then_recovered(self, world, engine):
        pseudo = world.pseudo("meteor")
        daemon = world.gmetad("sdsc", {"meteor": [pseudo.address]})
        broker = daemon.attach_pubsub(sweep_interval=2.0)
        # lease far shorter than the renew interval: the broker reaps
        # the subscription, and the next renew attempt re-subscribes
        client = world.client(
            broker, "/meteor", "viewer", lease=10.0, renew_interval=40.0
        )
        engine.run_for(20.0)
        assert len(broker.registry) == 0
        assert broker.registry.expirations == 1
        engine.run_for(25.0)  # renew tick at t=40 finds the lease gone
        assert len(broker.registry) == 1
        assert client.reconnects >= 1
        assert client.full_syncs_received >= 2  # initial + re-subscribe
        engine.run_for(38.0)  # reaped again at ~50, re-subscribed at ~80
        state = flatten_datastore(
            daemon.datastore, daemon.config.heartbeat_window
        )
        assert client.state == {
            k: v
            for k, v in state.items()
            if k == "meteor" or k.startswith(("meteor/", "meteor?"))
        }

    def test_stopped_client_unsubscribes(self, world, engine):
        pseudo = world.pseudo("meteor")
        daemon = world.gmetad("sdsc", {"meteor": [pseudo.address]})
        broker = daemon.attach_pubsub()
        client = world.client(broker, "/meteor", "viewer")
        engine.run_for(30.0)
        assert len(broker.registry) == 1
        client.stop()
        engine.run_for(5.0)
        assert len(broker.registry) == 0
        assert client.sub_id not in broker.channels


class TestPartitionRecovery:
    def test_missed_sequences_recovered_via_full_sync(
        self, world, engine, fabric
    ):
        """A subscriber cut off while sequence numbers advance must
        converge back to the poll-mode datastore state via full sync."""
        pseudo = world.pseudo("meteor")
        daemon = world.gmetad("sdsc", {"meteor": [pseudo.address]})
        broker = daemon.attach_pubsub(
            max_queue=2, notify_timeout=4.0, retry_interval=4.0
        )
        client = world.client(
            broker, "/meteor", "viewer", lease=120.0, renew_interval=35.0
        )
        engine.run_for(40.0)
        assert client.stream.synced and client.deltas_received > 0
        seq_at_cut = client.stream.last_seq
        fulls_before = client.stream.full_syncs_applied

        FaultInjector(engine, fabric).partition(
            ["viewer"], ["gmeta-sdsc"], at=1.0, duration=60.0
        )
        engine.run_for(65.0)  # partition ran its course (t=41..101)
        # sequence numbers advanced while the subscriber was dark
        assert broker.seq > seq_at_cut + 1
        engine.run_for(35.0)  # recovery settles

        stats = broker.stats()
        assert stats["send_timeouts"] > 0  # deliveries failed visibly
        assert stats["deltas_dropped"] > 0  # queue overflowed, degraded
        assert client.stream.full_syncs_applied > fulls_before
        assert client.stream.last_seq == broker.seq
        # the recovered mirror equals the poll-mode datastore snapshot
        sub = broker.registry.get(client.sub_id)
        assert client.state == scoped_flatten(daemon, sub)

    def test_lease_outlived_by_partition_reconnects(
        self, world, engine, fabric
    ):
        """Partition longer than the lease: the broker reaps the
        subscription; the client re-subscribes after the heal."""
        pseudo = world.pseudo("meteor")
        daemon = world.gmetad("sdsc", {"meteor": [pseudo.address]})
        broker = daemon.attach_pubsub(sweep_interval=5.0)
        client = world.client(
            broker, "/meteor", "viewer", lease=30.0, renew_interval=10.0
        )
        engine.run_for(20.0)
        assert client.stream.synced

        FaultInjector(engine, fabric).partition(
            ["viewer"], ["gmeta-sdsc"], at=1.0, duration=50.0
        )
        engine.run_for(45.0)  # inside the partition, lease expired
        assert client.sub_id not in broker.registry
        assert not client.connected
        # the timeout diagnostics name the broker endpoint that died
        assert client.last_timeout is not None
        assert client.last_timeout.address == broker.address
        engine.run_for(60.0)  # healed; renew ticks re-subscribe
        assert client.connected
        assert client.sub_id in broker.registry
        assert client.reconnects >= 1
        sub = broker.registry.get(client.sub_id)
        assert client.state == scoped_flatten(daemon, sub)


class TestFolding:
    def build_tree(self, world, n_subscribers):
        pseudo = world.pseudo("attic-c0", hosts=3)
        child = world.gmetad("attic", {"attic-c0": [pseudo.address]})
        child_broker = child.attach_pubsub()
        parent = world.gmetad(
            "sdsc", {"attic": [Address.gmetad("gmeta-attic")]}
        )
        parent_broker = parent.attach_pubsub(
            upstreams={"attic": child_broker.address}
        )
        clients = [
            world.client(parent_broker, "/attic/attic-c0", f"viewer-{i}")
            for i in range(n_subscribers)
        ]
        return child, child_broker, parent, parent_broker, clients

    def test_many_subscribers_fold_to_one_upstream(self, world, engine):
        child, child_broker, parent, parent_broker, clients = self.build_tree(
            world, n_subscribers=3
        )
        engine.run_for(120.0)
        # the tentpole invariant: N local subscribers, ONE tree edge
        assert len(child_broker.registry) == 1
        only = child_broker.registry.subscriptions()[0]
        assert only.sub_id.startswith("relay:sdsc:attic:")
        assert [l.path for l in parent_broker.upstream_links] == ["/attic-c0"]

    def test_full_resolution_crosses_the_relay(self, world, engine):
        child, child_broker, parent, parent_broker, clients = self.build_tree(
            world, n_subscribers=2
        )
        engine.run_for(120.0)
        reference = clients[0].state
        # per-host metric keys only exist in the child's datastore; the
        # parent polls summaries -- so these prove end-to-end relaying
        detail = [k for k in reference if k.count("/") == 3]
        assert detail, "no full-resolution keys crossed the relay"
        link = parent_broker.upstream_links[0]
        child_state = flatten_datastore(
            child.datastore, child.config.heartbeat_window
        )
        scoped = {
            f"attic/{k}": v
            for k, v in child_state.items()
            if k == "attic-c0" or k.startswith(("attic-c0/", "attic-c0?"))
        }
        assert link.synced
        for client in clients:
            assert client.state == scoped == reference

    def test_unsubscribing_all_drops_the_relay(self, world, engine):
        child, child_broker, parent, parent_broker, clients = self.build_tree(
            world, n_subscribers=2
        )
        engine.run_for(60.0)
        assert len(child_broker.registry) == 1
        for client in clients:
            client.stop()
        engine.run_for(10.0)
        assert parent_broker.upstream_links == []
        assert len(child_broker.registry) == 0


class TestDroppedChannelRetry:
    def test_mid_checkpoint_reconnect_kills_stale_retry(
        self, world, engine, fabric, tcp
    ):
        """Regression: a subscriber that reconnects while its old
        channel's checkpoint sync is stuck in timeout-retry must not
        receive the stale sync later.  The retired channel's pending
        ``pump`` closures survive ``_drop_channel``; without the
        ``dropped`` flag they deliver a full sync built for the OLD
        delta chain at the subscriber's notify address, desyncing the
        fresh stream the reconnect just established."""
        pseudo = world.pseudo("meteor", refresh=float("inf"))
        daemon = world.gmetad("sdsc", {"meteor": [pseudo.address]})
        broker = daemon.attach_pubsub(notify_timeout=3.0, retry_interval=4.0)
        for host in ("sub-host", "sub-ctl"):
            fabric.add_host(host)
        received = []

        def on_push(client, payload):
            message = messages.decode(payload)
            received.append(message)
            return Response(messages.encode(messages.ok(message.get("seq", 0))))

        tcp.listen(Address("sub-host", 8700), on_push)

        def subscribe(from_host):
            replies = []
            request = messages.subscribe(
                "sub-1", "/meteor", 300.0, "sub-host", 8700
            )
            tcp.request(
                from_host,
                broker.address,
                messages.encode(request),
                on_response=lambda p, rtt: replies.append(messages.decode(p)),
                timeout=5.0,
            )
            engine.run_for(2.0)
            return replies

        assert subscribe("sub-host")[0]["t"] == "full"
        engine.run_for(30.0)
        old = broker.channels["sub-1"]

        # subscriber goes dark mid-checkpoint: the sync delivery times
        # out and the channel schedules a retry closure
        fabric.set_host_up("sub-host", False)
        broker._checkpoint()
        engine.run_for(5.0)
        assert old.send_timeouts >= 1

        # the subscriber reconnects (control request from another host,
        # same sub_id and notify endpoint): channel replaced
        replies = subscribe("sub-ctl")
        assert replies and replies[0]["t"] == "full"
        assert broker.channels["sub-1"] is not old
        assert old.dropped

        # notify endpoint comes back: the retired channel's retry must
        # die quietly -- no stale sync, no delivery at all
        fabric.set_host_up("sub-host", True)
        pushed_before = len(received)
        engine.run_for(30.0)
        assert len(received) == pushed_before
        assert old.full_syncs_sent == 0
