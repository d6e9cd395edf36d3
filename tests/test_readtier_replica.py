"""Read-tier replica tests: byte identity, the generation barrier, and
the frag-stamp consistency invariant under churn.

The acceptance property of the tier is exact: with ``read_tier`` on, a
synced replica at the same ingest version triple serves byte-identical
answers to the ingest gmetad for every query form.  With ``read_tier``
off (the default) nothing changes -- the feed does not even exist.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gmetad import Gmetad
from repro.core.tree import GmetadConfig
from repro.gmond.pseudo import PseudoGmond
from repro.net.fabric import Fabric
from repro.net.tcp import TcpNetwork
from repro.pubsub.delta import flatten_datastore
from repro.readtier.config import ReadTierConfig
from repro.readtier.feed import (
    GEN_KEY,
    REPL_PREFIX,
    detail_key,
    meta_key,
    summary_key,
)
from repro.readtier.replica import FeedError, ReadReplica
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.wire.conditional import NotModified, TaggedXml, with_generation
from repro.wire.parser import ParseError


QUERIES = [
    "/",
    "/?filter=summary",
    "/meteor",
    "/meteor?filter=summary",
    "/torus",
    "/torus/torus-node-1",
    "/torus/torus-node-1/load_one",
]


@pytest.fixture
def world(engine, fabric, tcp, rngs):
    class World:
        def __init__(self):
            self.pseudos = {}

        def build(
            self, read_tier=ReadTierConfig(), sources=("meteor", "torus"),
            validate_xml=False,
        ):
            config = GmetadConfig(
                name="sdsc", host="gmeta-sdsc", archive_mode="account",
                read_tier=read_tier,
            )
            for i, name in enumerate(sources):
                pseudo = PseudoGmond(
                    engine, fabric, tcp, name, num_hosts=3 + i,
                    rng=rngs.stream(f"pg:{name}"),
                )
                self.pseudos[name] = pseudo
                config.add_source(name, [pseudo.address])
            self.daemon = Gmetad(
                engine, fabric, tcp, config, validate_xml=validate_xml
            ).start()
            self.broker = self.daemon.attach_pubsub()
            return self.daemon

        def replica(self, name="r1", **kwargs):
            return ReadReplica(
                engine, fabric, tcp, self.daemon,
                name=name, host=f"gmeta-sdsc-{name}", **kwargs
            ).start()

    return World()


def assert_matched_generation(daemon, replica):
    assert replica.synced
    assert replica.ingest_versions == (
        daemon.datastore.generation,
        daemon.datastore.content_version,
        daemon.datastore.detail_version,
    )


def torn_open_tag(detail):
    return "<CLUSTER NAME='broken"


def cut_mid_metric(detail):
    return detail[: detail.index("<METRIC ") + len('<METRIC NAME="lo')]


def cut_mid_host(detail):
    return detail[: detail.index("<HOST ") + len('<HOST NAME="')]


def cluster_left_open(detail):
    return detail[: detail.index("</HOST>") + len("</HOST>\n")]


def unknown_metric_type(detail):
    return re.sub(r'TYPE="[^"]*"', 'TYPE="bogus"', detail, count=1)


#: damaged cluster detail fragments, each cut from a real feed record
TEARS = [
    torn_open_tag,
    cut_mid_metric,
    cut_mid_host,
    cluster_left_open,
    unknown_metric_type,
]


class TestByteIdentity:
    def test_replica_serves_ingest_bytes(self, world, engine):
        daemon = world.build()
        replica = world.replica()
        engine.run_for(120.0)
        assert_matched_generation(daemon, replica)
        for query in QUERIES:
            expected, _ = daemon.serve_query(query)
            got, _ = replica.serve_query(query)
            assert got == expected, query

    def test_identity_holds_across_metric_churn(self, world, engine):
        daemon = world.build()
        replica = world.replica()
        # sample at several quiesced points as metrics keep changing
        for _ in range(4):
            engine.run_for(45.0)
            if replica.ingest_versions != (
                daemon.datastore.generation,
                daemon.datastore.content_version,
                daemon.datastore.detail_version,
            ):
                continue  # mid-flight feed; compare only matched views
            for query in ("/", "/?filter=summary", "/meteor"):
                assert replica.serve_query(query)[0] == daemon.serve_query(query)[0]

    def test_source_death_replicates_as_placeholder(self, world, engine, fabric):
        daemon = world.build()
        replica = world.replica()
        engine.run_for(60.0)
        fabric.set_host_up(world.pseudos["meteor"].server_host, False)
        engine.run_for(90.0)
        assert_matched_generation(daemon, replica)
        assert not replica.datastore.sources["meteor"].up
        assert replica.serve_query("/")[0] == daemon.serve_query("/")[0]
        summary = "/?filter=summary"
        assert replica.serve_query(summary)[0] == daemon.serve_query(summary)[0]

    def test_conditional_serving_from_replica(self, world, engine):
        daemon = world.build()
        replica = world.replica()
        engine.run_for(120.0)
        token = replica.serve_generation("/")
        response = replica._serve_response("viewer", with_generation("/", token))
        assert isinstance(response.payload, NotModified)
        assert replica.not_modified_served == 1
        stale = replica._serve_response(
            "viewer", with_generation("/", "0:f0")
        )
        assert isinstance(stale.payload, TaggedXml)
        assert stale.payload.xml == daemon.serve_query("/")[0]

    def test_replica_epoch_differs_from_ingest(self, world, engine):
        """Fail-over between daemons can never produce a false 304."""
        daemon = world.build()
        replica = world.replica()
        engine.run_for(60.0)
        assert replica.serve_generation("/") != daemon.serve_generation("/")


class TestFeedGating:
    def test_read_tier_off_publishes_no_repl_keys(self, world, engine):
        daemon = world.build(read_tier=None)
        engine.run_for(60.0)
        assert world.broker.feed is None
        state = world.broker.current_state()
        assert not any(k.startswith(REPL_PREFIX) for k in state)
        # and the published state is exactly the baseline flatten
        assert state == flatten_datastore(
            daemon.datastore, daemon.config.heartbeat_window
        )

    def test_plain_subscribers_never_see_repl_keys(self, world, engine, fabric, tcp):
        from repro.pubsub.client import PushClient

        world.build()
        engine.run_for(30.0)
        viewer = PushClient(
            engine, fabric, tcp, world.broker.address,
            path="/", host="plain-viewer", sub_id="plain-viewer",
        ).start()
        engine.run_for(90.0)
        assert viewer.stream.synced
        assert viewer.state  # scoped to everything *visible*
        assert not any(k.startswith(REPL_PREFIX) for k in viewer.state)

    def test_feed_subscriber_sees_only_repl_keys(self, world, engine):
        world.build()
        replica = world.replica()
        engine.run_for(60.0)
        assert replica.client.state
        assert all(k.startswith(REPL_PREFIX) for k in replica.client.state)
        assert GEN_KEY in replica.client.state


class TestGenerationBarrier:
    def test_gap_recovers_via_full_sync(self, world, engine, fabric):
        daemon = world.build()
        replica = world.replica()
        engine.run_for(60.0)
        fabric.partition([daemon.config.host], [replica.host])
        engine.run_for(60.0)  # deltas lost; ingest moves on
        fabric.heal_partition([daemon.config.host], [replica.host])
        engine.run_for(90.0)
        assert_matched_generation(daemon, replica)
        assert replica.serve_query("/")[0] == daemon.serve_query("/")[0]

    def test_torn_batch_aborts_and_resyncs(self, world, engine):
        """A meta record without its fragments must not half-install."""
        daemon = world.build()
        replica = world.replica()
        engine.run_for(60.0)
        installs_before = replica.installs
        # forge a torn delta: meta for a new source, no fragments
        replica.client.stream.mirror[f"{REPL_PREFIX}/ghost"] = (
            '{"a":"","cs":0,"k":"cluster","u":1}'
        )
        replica._rebuild({"ghost"})
        assert replica.barrier_aborts == 1
        assert replica.installs == installs_before
        assert "ghost" not in replica.datastore.sources

    @pytest.mark.parametrize("gen", ["7:8", "a:b:c"])
    def test_garbled_version_triple_installs_nothing(self, world, engine, gen):
        """The triple is checked before the first install, not after."""
        world.build()
        replica = world.replica()
        engine.run_for(60.0)
        installs_before = replica.installs
        versions_before = replica.ingest_versions
        aborts_before = replica.barrier_aborts
        replica.client.stream.mirror[GEN_KEY] = gen
        replica._rebuild({"meteor"})
        assert replica.installs == installs_before
        assert replica.ingest_versions == versions_before
        assert replica.barrier_aborts == aborts_before + 1

    @pytest.mark.parametrize("tear", TEARS, ids=[t.__name__ for t in TEARS])
    def test_unparseable_fragment_aborts_whole_batch(self, world, engine, tear):
        """Damage that still raises with validation off aborts the whole
        batch: the feed parses on the fast lane, not unchecked."""
        world.build()
        replica = world.replica()
        engine.run_for(60.0)
        assert not replica.ingest.validate_xml
        mirror = replica.client.stream.mirror
        meta = '{"a":"","cs":0,"k":"cluster","u":1}'
        detail = tear(mirror[detail_key("meteor")])
        summary = mirror[summary_key("meteor")]
        # an unterminated tag is invisible to the tag scan without
        # validation, so the parse finds no cluster; every cut inside a
        # real record is a structural error the parser always raises
        expected = FeedError if tear is torn_open_tag else ParseError
        with pytest.raises(expected):
            replica._build_snapshot("zulu", meta, detail, summary)
        mirror[meta_key("zulu")] = meta
        mirror[detail_key("zulu")] = detail
        mirror[summary_key("zulu")] = summary
        installs_before = replica.installs
        rows_before = replica.feed_metric_rows
        meteor_before = replica.datastore.sources["meteor"]
        # "meteor" stages first and cleanly, but the batch also holds
        # the torn "zulu": nothing from the batch may install
        replica._rebuild({"meteor", "zulu"})
        assert replica.barrier_aborts == 1
        assert replica.installs == installs_before
        # rows count only for records that installed
        assert replica.feed_metric_rows == rows_before
        assert replica.datastore.sources["meteor"] is meteor_before
        assert "zulu" not in replica.datastore.sources


class TestFeedParseLane:
    """Validation sits at trust boundaries: the feed is the ingest
    daemon's own writer output, so it parses under the ingest's
    ``validate_xml`` and its METRIC rows ride the fast lane."""

    @pytest.mark.parametrize("validate_xml, share", [(False, 1.0), (True, 0.0)])
    def test_fast_lane_share_follows_ingest_validation(
        self, world, engine, validate_xml, share
    ):
        daemon = world.build(validate_xml=validate_xml)
        replica = world.replica()
        engine.run_for(60.0)
        assert_matched_generation(daemon, replica)
        assert replica.feed_metric_rows > 0
        assert replica.feed_fast_lane_hits == share * replica.feed_metric_rows
        for query in QUERIES:
            assert replica.serve_query(query)[0] == daemon.serve_query(query)[0]


churn_steps = st.lists(
    st.sampled_from(
        ["run", "kill_meteor", "revive_meteor", "cut_feed", "heal_feed"]
    ),
    min_size=1,
    max_size=6,
)


class TestFragStampInvariant:
    """S3: a replica never holds a fragment staler than its install."""

    @settings(max_examples=15, deadline=None)
    @given(churn_steps)
    def test_frag_stamps_track_installed_generation(self, steps):
        # hypothesis drives its own world (function-scoped sim fixtures
        # would leak state across examples)
        engine = Engine()
        fabric = Fabric()
        tcp = TcpNetwork(engine, fabric)
        rngs = RngRegistry(31)
        pseudo = PseudoGmond(
            engine, fabric, tcp, "meteor", num_hosts=3,
            rng=rngs.stream("meteor"),
        )
        config = GmetadConfig(
            name="sdsc", host="gmeta-sdsc", archive_mode="account",
            read_tier=ReadTierConfig(),
        )
        config.add_source("meteor", [pseudo.address])
        daemon = Gmetad(engine, fabric, tcp, config).start()
        daemon.attach_pubsub()
        replica = ReadReplica(
            engine, fabric, tcp, daemon, name="r1", host="gmeta-sdsc-r1"
        ).start()
        engine.run_for(45.0)
        feed_cut = False
        for step in steps:
            if step == "run":
                engine.run_for(20.0)
            elif step == "kill_meteor":
                fabric.set_host_up(pseudo.server_host, False)
                engine.run_for(20.0)
            elif step == "revive_meteor":
                fabric.set_host_up(pseudo.server_host, True)
                engine.run_for(20.0)
            elif step == "cut_feed" and not feed_cut:
                fabric.partition([daemon.config.host], [replica.host])
                feed_cut = True
                engine.run_for(20.0)
            elif step == "heal_feed" and feed_cut:
                fabric.heal_partition([daemon.config.host], [replica.host])
                feed_cut = False
                engine.run_for(20.0)
            # the invariant holds at EVERY point, mid-churn included:
            # a cached fragment under the current stamp is the fragment
            # installed with that stamp, never a predecessor's
            for snapshot in replica.datastore.sources.values():
                for form, stamp in (
                    ("full", snapshot.detail_stamp),
                    ("summary", snapshot.summary_stamp),
                ):
                    cached = snapshot.frag_cache.get(form)
                    if cached is not None:
                        assert cached[0] <= stamp
            # and whenever generations match, bytes match
            if not feed_cut:
                engine.run_for(60.0)
                if replica.ingest_versions == (
                    daemon.datastore.generation,
                    daemon.datastore.content_version,
                    daemon.datastore.detail_version,
                ):
                    assert (
                        replica.serve_query("/")[0]
                        == daemon.serve_query("/")[0]
                    )
