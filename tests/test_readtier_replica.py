"""Read-tier replica tests: byte identity, the generation barrier
(damaged or mismatched frame records install nothing), the frame-only
decode of cluster records, and the frag-stamp consistency invariant
under churn.

The acceptance property of the tier is exact: with ``read_tier`` on, a
synced replica at the same ingest version triple serves byte-identical
answers to the ingest gmetad for every query form.  With ``read_tier``
off (the default) nothing changes -- the feed does not even exist.
"""

import base64
import functools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import InternPool
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
from repro.wire import binfmt, parser
from repro.wire.binfmt import decode_document, encode_cluster_document
from repro.wire.conditional import NotModified, TaggedXml, with_generation


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
            validate_xml=False, **config_kwargs,
        ):
            config = GmetadConfig(
                name="sdsc", host="gmeta-sdsc", archive_mode="account",
                read_tier=read_tier, **config_kwargs,
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


#: meta record of a cluster source whose detail record is a frame
FRAMED_META = '{"a":"","cs":0,"d":"bin1","k":"cluster","u":1}'


def reframe(frame):
    return base64.b64encode(bytes(frame)).decode("ascii")


def cut_frame(mirror, daemon):
    frame = base64.b64decode(mirror[detail_key("meteor")])
    return reframe(frame[: len(frame) // 2]), mirror[summary_key("meteor")]


def bit_flipped_frame(mirror, daemon):
    frame = bytearray(base64.b64decode(mirror[detail_key("meteor")]))
    frame[len(frame) // 2] ^= 0x10
    return reframe(frame), mirror[summary_key("meteor")]


def not_base64(mirror, daemon):
    detail = mirror[detail_key("meteor")]
    return detail[:40] + "<HOST>" + detail[40:], mirror[summary_key("meteor")]


def summary_doc_frame(mirror, daemon):
    frame, _ = daemon.serve_binary("/?filter=summary")
    return reframe(frame), mirror[summary_key("meteor")]


def cluster_name_mismatch(mirror, daemon):
    return mirror[detail_key("torus")], mirror[summary_key("meteor")]


def unknown_metric_type(mirror, daemon):
    """A sound frame (CRC and length hold) naming a TYPE outside the DTD."""
    pool = InternPool()
    _, cdoc = decode_document(
        base64.b64decode(mirror[detail_key("meteor")]), pool
    )
    cols = cdoc.clusters[0]
    cols.type_ids = cols.type_ids.copy()
    cols.type_ids[0] = pool.intern("bogus")
    return (
        reframe(encode_cluster_document(cdoc)),
        mirror[summary_key("meteor")],
    )


#: damaged cluster records, each made from a real feed record: the
#: frame cut or bit-flipped, text that is not base64, a frame of the
#: wrong kind, a sound frame of another cluster, and a sound frame
#: whose content fails the decoder's vocabulary check
DAMAGES = [
    cut_frame,
    bit_flipped_frame,
    not_base64,
    summary_doc_frame,
    cluster_name_mismatch,
    unknown_metric_type,
]


def count_sync_requests(replica):
    """Count the replica's full-sync requests (the barrier's recovery)."""
    calls = []
    request_sync = replica.client.request_sync

    def counting():
        calls.append(1)
        request_sync()

    replica.client.request_sync = counting
    return calls


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

    @pytest.mark.parametrize(
        "damage", DAMAGES, ids=[d.__name__ for d in DAMAGES]
    )
    def test_unparseable_fragment_aborts_whole_batch(self, world, engine, damage):
        """A damaged or mismatched cluster record aborts the whole
        batch and requests a full sync: "meteor" stages first and
        cleanly, but nothing from a batch that also holds the damaged
        "zulu" installs."""
        daemon = world.build()
        replica = world.replica()
        engine.run_for(60.0)
        mirror = replica.client.stream.mirror
        detail, summary = damage(mirror, daemon)
        with pytest.raises((FeedError, ValueError)):
            replica._build_snapshot("zulu", FRAMED_META, detail, summary)
        mirror[meta_key("zulu")] = FRAMED_META
        mirror[detail_key("zulu")] = detail
        mirror[summary_key("zulu")] = summary
        installs_before = replica.installs
        frames_before = replica.feed_frames
        meteor_before = replica.datastore.sources["meteor"]
        syncs = count_sync_requests(replica)
        replica._rebuild({"meteor", "zulu"})
        assert replica.barrier_aborts == 1
        assert syncs == [1]
        assert replica.installs == installs_before
        # frames count only for records that installed
        assert replica.feed_frames == frames_before
        assert replica.datastore.sources["meteor"] is meteor_before
        assert "zulu" not in replica.datastore.sources


@functools.lru_cache(maxsize=None)
def synced_replica():
    """One synced replica, shared by the frame-damage examples (each
    example's batch aborts, so it leaves the replica as it found it)."""
    engine = Engine()
    fabric = Fabric()
    tcp = TcpNetwork(engine, fabric)
    pseudo = PseudoGmond(
        engine, fabric, tcp, "meteor", num_hosts=3,
        rng=RngRegistry(7).stream("meteor"),
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
    engine.run_for(60.0)
    assert replica.synced
    return replica


frame_damage = st.one_of(
    st.tuples(st.just("cut"), st.integers(min_value=0, max_value=2**20)),
    st.tuples(st.just("flip"), st.integers(min_value=0, max_value=2**23)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=8)),
)


@settings(deadline=None)
@given(frame_damage)
def test_damaged_frame_installs_nothing(damage):
    """Any cut, any single bit flip, any trailing bytes: the frame check
    refuses the record whole, nothing installs, a full sync is asked."""
    replica = synced_replica()
    frame = bytearray(meteor_frame(replica))
    op, arg = damage
    if op == "cut":
        frame = frame[: arg % len(frame)]
    elif op == "flip":
        bit = arg % (8 * len(frame))
        frame[bit // 8] ^= 1 << (bit % 8)
    else:
        frame += arg
    assert_refused(replica, frame)


def test_nul_in_a_val_installs_nothing():
    """A frame whose VAL column holds U+0000 is sound on the wire (its
    CRC matches) but refused at decode, by the same path as damage."""
    replica = synced_replica()
    kind, body = binfmt.open_frame(meteor_frame(replica))
    assert kind == binfmt.CLUSTER_DOC and 0 < body[-1] < 0x80
    # a one-cluster body ends in its last VAL's text
    assert_refused(replica, binfmt._seal(kind, body[:-1] + b"\0"))


def meteor_frame(replica) -> bytes:
    """The GBF1 frame of meteor's detail record in the replica's mirror."""
    return base64.b64decode(replica.client.stream.mirror[detail_key("meteor")])


def assert_refused(replica, frame) -> None:
    """Feed ``frame`` as a second source's detail record: the batch
    aborts whole, nothing installs and one full sync is asked."""
    mirror = replica.client.stream.mirror
    mirror[meta_key("zulu")] = FRAMED_META
    mirror[detail_key("zulu")] = reframe(frame)
    mirror[summary_key("zulu")] = mirror[summary_key("meteor")]
    installs = replica.installs
    aborts = replica.barrier_aborts
    meteor = replica.datastore.sources["meteor"]
    syncs = count_sync_requests(replica)
    try:
        replica._rebuild({"meteor", "zulu"})
    finally:
        for key in (meta_key("zulu"), detail_key("zulu"), summary_key("zulu")):
            del mirror[key]
        del replica.client.request_sync
    assert replica.barrier_aborts == aborts + 1
    assert syncs == [1]
    assert replica.installs == installs
    assert replica.datastore.sources["meteor"] is meteor
    assert "zulu" not in replica.datastore.sources


class TestFeedDecodeLane:
    """Cluster records ship as frames: a replica decodes them and parses
    no cluster XML, under the JSON feed and the binary feed alike."""

    @pytest.mark.parametrize("binary", [False, True], ids=["json", "bin1"])
    def test_cluster_records_take_no_xml_parse(
        self, world, engine, monkeypatch, binary
    ):
        daemon = world.build(binary_wire=binary)
        replica = world.replica(config=ReadTierConfig(binary_feed=binary))
        parses = {"parse_columnar": 0, "parse_document": 0}
        inside = []
        for name in parses:
            real = getattr(parser, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                if inside:
                    parses[_name] += 1
                return _real(*args, **kwargs)

            for module in list(sys.modules.values()):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counting)
        rebuild = replica._rebuild

        def tracked(changed):
            inside.append(True)
            try:
                rebuild(changed)
            finally:
                inside.pop()

        monkeypatch.setattr(replica, "_rebuild", tracked)
        engine.run_for(60.0)
        world.pseudos["meteor"].mutate(hosts=[0])
        engine.run_for(30.0)
        assert_matched_generation(daemon, replica)
        assert (world.broker.codecs.get("replica:r1") == "bin1") == binary
        assert replica.installs > 2
        assert parses["parse_columnar"] == 0
        # one XML parse per install: the summary record
        assert parses["parse_document"] == replica.installs
        assert replica.feed_frames == replica.installs
        assert replica.frame_counts()[0] == 0
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
