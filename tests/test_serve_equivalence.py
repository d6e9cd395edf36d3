"""Byte-identical equivalence: fragment arenas vs per-reply rendering.

Twin Fig. 2 federations are built from the same seed -- both running
the columnar ingest pipeline, one rendering every reply from the
columns (``columnar_serve=False``), one splicing :mod:`repro.serve`'s
fragment arenas (``columnar_serve=True``) -- and driven through
identical event sequences.  At every checkpoint every gmetad in both
trees must serve **byte-identical** XML for every request form
(whole-tree, summary filter, source / host / metric paths), while the
fast-path side holds ``datastore.materializations == 0``: no host tree
was ever built.

CPU charges are deliberately *not* compared: the optimisation's whole
point is that reused fragments bill at the cached serve rate, so the
fast-path twin charges less.  Byte identity plus the zero-
materialization invariant is the acceptance bar.

The suite also pins the per-host renderer against :class:`XmlWriter`
property-style (escaping, ``-0`` normalization, NaN, metric/attribute
ordering), the arena's invalidation behavior under targeted churn
(never a stale host), the lazy ``decode_to_xml`` path (satellite: no
DOM materialization on binary decode), the read tier's
``columnar_serve`` mode including GBF1 detail frames, and the arena-held
``bin1`` frame (one encode per install, never stale).
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.topology import build_paper_tree
from repro.columnar.layout import (
    ColumnarCluster,
    ColumnarDocument,
    InternPool,
    columns_from_cluster,
)
from repro.core.gmetad import Gmetad
from repro.core.tree import GmetadConfig
from repro.gmond.pseudo import PseudoGmond
from repro.metrics.types import MetricType, format_value
from repro.readtier.config import ReadTierConfig
from repro.readtier.replica import ReadReplica
from repro.serve.arena import FragmentArena
from repro.serve.render import render_cluster
from repro.wire.binfmt import (
    decode_to_xml,
    encode_cluster_document,
    materialize_document,
)
from repro.wire.model import (
    ClusterElement,
    HostElement,
    MetricElement,
    Slope,
)
from repro.wire.parser import parse_columnar
from repro.wire.writer import XmlWriter, write_document

HOSTS = 5
REQUESTS = ["/", "/?filter=summary"]
PATH_REQUESTS = [
    "/sdsc",
    "/ucsd",
    "/sdsc-c0",
    "/sdsc-c0?filter=summary",
    "/sdsc-c0/sdsc-c0-0-0",
    "/sdsc-c0/sdsc-c0-0-0/load_one",
]


def build_twins(incremental=False, **kwargs):
    """(dom, fast) federations built from the same seed.

    Both arms ingest columnar; only the serving side differs.
    """
    dom = build_paper_tree(
        "nlevel", hosts_per_cluster=HOSTS, incremental=incremental,
        columnar=True, columnar_serve=False, **kwargs
    ).start()
    fast = build_paper_tree(
        "nlevel", hosts_per_cluster=HOSTS, incremental=incremental,
        columnar=True, columnar_serve=True, **kwargs
    ).start()
    return dom, fast


def run_both(dom, fast, duration):
    dom.engine.run_for(duration)
    fast.engine.run_for(duration)
    assert dom.engine.now == fast.engine.now


def assert_identical_everywhere(dom, fast, requests=REQUESTS):
    for name in dom.gmetads:
        for request in requests:
            expected, _ = dom.gmetad(name).serve_query(request)
            actual, _ = fast.gmetad(name).serve_query(request)
            assert actual == expected, (
                f"{name} diverged on {request!r} at t={dom.engine.now}"
            )


def assert_zero_materializations(fast):
    """The tentpole invariant: serving never built a host DOM."""
    for name in fast.gmetads:
        g = fast.gmetad(name)
        assert g.datastore.materializations == 0, name


def assert_arenas_engaged(fast):
    """Guard against vacuous equality: leaves really hold arenas and
    answered at least one detail request out of them."""
    engaged = 0
    for g in fast.gmetads.values():
        if not g._serve_arenas:
            continue
        engaged += 1
        served = sum(
            a.frag_hits + a.frag_misses for a in g._serve_arenas.values()
        )
        assert served > 0, "arena installed but never consulted"
    assert engaged


def assert_arenas_hold_columns(server):
    """Every snapshot a columnar-serve daemon holds with columns carries
    the arena those columns were installed into -- the ``bin1`` detail
    frame is read off the arena, so no state may hold one without it."""
    for name, snapshot in server.datastore.sources.items():
        if snapshot.columns is None:
            continue
        assert snapshot.arena is not None, name
        assert snapshot.arena is server._serve_arenas[name], name
        assert snapshot.arena.cols is snapshot.columns, name


@pytest.mark.parametrize("incremental", [False, True])
def test_steady_churn_serves_identical_bytes(incremental):
    """Default workload: every pseudo re-randomizes each poll cycle."""
    dom, fast = build_twins(incremental)
    for _ in range(6):
        run_both(dom, fast, 30.0)
        assert_identical_everywhere(dom, fast)
    assert_identical_everywhere(dom, fast, PATH_REQUESTS)
    assert_zero_materializations(fast)
    assert_arenas_engaged(fast)
    for gmetad in fast.gmetads.values():
        assert_arenas_hold_columns(gmetad)


@pytest.mark.parametrize("incremental", [False, True])
def test_mutations_and_host_death(incremental):
    """Partial mutations, a host dying past the heartbeat window, and
    its recovery all serve identically -- and the arena's invalidation
    tracked the churn (changed hosts re-rendered, no stale bytes)."""
    dom, fast = build_twins(incremental, freeze_values=True)
    run_both(dom, fast, 45.0)
    for fed in (dom, fast):
        assert fed.pseudos["sdsc-c0"].mutate(hosts=[0, 2]) == 2
        fed.pseudos["attic-c2"].set_host_down(1)
    run_both(dom, fast, 120.0)  # past the heartbeat window: host is down
    assert_identical_everywhere(dom, fast, REQUESTS + PATH_REQUESTS)
    for fed in (dom, fast):
        fed.pseudos["attic-c2"].set_host_down(1, down=False)
    run_both(dom, fast, 60.0)
    assert_identical_everywhere(dom, fast, REQUESTS + PATH_REQUESTS)
    assert_zero_materializations(fast)
    invalidated = sum(
        a.frag_invalidations
        for g in fast.gmetads.values()
        for a in g._serve_arenas.values()
    )
    assert invalidated > 0  # the mutations really cycled fragments
    for gmetad in fast.gmetads.values():
        assert_arenas_hold_columns(gmetad)


def test_fast_path_matches_tree_baseline():
    """Transitivity anchor: the arena-served replies equal the original
    all-DOM federation's (tree ingest + tree serve), byte for byte."""
    tree = build_paper_tree(
        "nlevel", hosts_per_cluster=HOSTS, columnar=False
    ).start()
    fast = build_paper_tree(
        "nlevel", hosts_per_cluster=HOSTS, columnar=True,
        columnar_serve=True
    ).start()
    run_both(tree, fast, 90.0)
    assert_identical_everywhere(tree, fast, REQUESTS + PATH_REQUESTS)
    assert_zero_materializations(fast)


# -- single-daemon worlds ---------------------------------------------------


def _serve_world(engine, fabric, tcp, rngs, **config_kwargs):
    config = GmetadConfig(
        name="sdsc", host="gmeta-sdsc", archive_mode="account",
        columnar=True, columnar_serve=True, **config_kwargs
    )
    pseudos = {}
    for i, name in enumerate(("meteor", "torus")):
        pseudo = PseudoGmond(
            engine, fabric, tcp, name, num_hosts=3 + i,
            rng=rngs.stream(f"pg:{name}"),
        )
        pseudos[name] = pseudo
        config.add_source(name, [pseudo.address])
    daemon = Gmetad(engine, fabric, tcp, config).start()
    return daemon, pseudos


def test_binary_detail_frame_decodes_to_served_xml(
    engine, fabric, tcp, rngs
):
    """A bin1 ``/source`` answer is the XML reply, re-encoded: decoding
    the CLUSTER_DOC frame reproduces the serve bytes exactly."""
    daemon, pseudos = _serve_world(engine, fabric, tcp, rngs)
    engine.run_for(60.0)
    pseudos["meteor"].mutate(hosts=[1])
    engine.run_for(30.0)
    for source in ("meteor", "torus"):
        xml, _ = daemon.serve_query(f"/{source}")
        answer = daemon.serve_binary(f"/{source}")
        assert answer is not None
        frame, seconds = answer
        assert seconds > 0
        assert decode_to_xml(frame) == xml
    # deeper paths and summary forms still decline to the XML engine
    assert daemon.serve_binary("/meteor/meteor-0-0") is None
    assert daemon.serve_binary("/meteor?filter=summary") is None
    assert daemon.datastore.materializations == 0


def test_flag_off_declines_binary_detail(engine, fabric, tcp, rngs):
    """Without ``columnar_serve`` the detail form stays XML-only."""
    config = GmetadConfig(
        name="sdsc", host="gmeta-sdsc", archive_mode="account",
        columnar=True,
    )
    pseudo = PseudoGmond(
        engine, fabric, tcp, "meteor", num_hosts=3,
        rng=rngs.stream("pg:meteor"),
    )
    config.add_source("meteor", [pseudo.address])
    daemon = Gmetad(engine, fabric, tcp, config).start()
    engine.run_for(60.0)
    assert daemon.serve_binary("/meteor") is None
    assert not daemon._serve_arenas


# -- read tier --------------------------------------------------------------


REPLICA_QUERIES = [
    "/",
    "/?filter=summary",
    "/meteor",
    "/meteor?filter=summary",
    "/torus/torus-node-1",
    "/torus/torus-node-1/load_one",
]


def test_replica_columnar_serve_matches_daemon(engine, fabric, tcp, rngs):
    """Two replicas on one feed -- DOM-serving and arena-serving -- both
    serve the ingest daemon's exact bytes; the columnar one also answers
    GBF1 detail frames that decode to the same reply."""
    config = GmetadConfig(
        name="sdsc", host="gmeta-sdsc", archive_mode="account",
        columnar=True, read_tier=ReadTierConfig(),
    )
    pseudos = {}
    for i, name in enumerate(("meteor", "torus")):
        pseudo = PseudoGmond(
            engine, fabric, tcp, name, num_hosts=3 + i,
            rng=rngs.stream(f"pg:{name}"),
        )
        pseudos[name] = pseudo
        config.add_source(name, [pseudo.address])
    daemon = Gmetad(engine, fabric, tcp, config).start()
    daemon.attach_pubsub()
    replica_dom = ReadReplica(
        engine, fabric, tcp, daemon, name="rd", host="gmeta-sdsc-rd",
        config=ReadTierConfig(),
    ).start()
    replica_col = ReadReplica(
        engine, fabric, tcp, daemon, name="rc", host="gmeta-sdsc-rc",
        config=ReadTierConfig(columnar_serve=True),
    ).start()
    engine.run_for(60.0)
    pseudos["meteor"].mutate(hosts=[0])
    pseudos["torus"].set_host_down(2)
    engine.run_for(60.0)
    assert replica_dom.synced and replica_col.synced
    for request in REPLICA_QUERIES:
        expected, _ = daemon.serve_query(request)
        assert replica_dom.serve_query(request)[0] == expected, request
        assert replica_col.serve_query(request)[0] == expected, request
    xml, _ = replica_col.serve_query("/meteor")
    answer = replica_col.serve_binary("/meteor")
    assert answer is not None
    frame, _ = answer
    assert decode_to_xml(frame) == xml
    assert replica_col.binary_served == 1
    # the DOM-serving replica declines binary detail
    assert replica_dom.serve_binary("/meteor") is None


def test_replica_feed_builds_no_dom(engine, fabric, tcp, rngs, monkeypatch):
    """Shipped cluster fragments parse straight into columns: with the
    DOM-to-columns conversion disabled, a churned feed still installs
    and every query form stays byte-identical, with no materialization."""

    def no_dom_conversion(*args, **kwargs):
        raise AssertionError("replica feed converted a DOM to columns")

    import repro.columnar
    import repro.columnar.layout
    import repro.core.gmetad

    for module in (repro.columnar, repro.columnar.layout, repro.core.gmetad):
        monkeypatch.setattr(module, "columns_from_cluster", no_dom_conversion)
    config = GmetadConfig(
        name="sdsc", host="gmeta-sdsc", archive_mode="account",
        columnar=True, read_tier=ReadTierConfig(),
    )
    pseudos = {}
    for i, name in enumerate(("meteor", "torus")):
        pseudo = PseudoGmond(
            engine, fabric, tcp, name, num_hosts=3 + i,
            rng=rngs.stream(f"pg:{name}"),
        )
        pseudos[name] = pseudo
        config.add_source(name, [pseudo.address])
    daemon = Gmetad(engine, fabric, tcp, config).start()
    daemon.attach_pubsub()
    replica = ReadReplica(
        engine, fabric, tcp, daemon, name="rc", host="gmeta-sdsc-rc",
        config=ReadTierConfig(columnar_serve=True),
    ).start()
    engine.run_for(60.0)
    for step in range(3):
        pseudos["meteor"].mutate(hosts=[step % 3])
        pseudos["torus"].mutate(hosts=[(step + 1) % 4, (step + 2) % 4])
        engine.run_for(30.0)
    pseudos["torus"].set_host_down(2)
    engine.run_for(60.0)
    assert replica.synced
    assert replica.ingest_versions == (
        daemon.datastore.generation,
        daemon.datastore.content_version,
        daemon.datastore.detail_version,
    )
    for request in REPLICA_QUERIES:
        expected, _ = daemon.serve_query(request)
        assert replica.serve_query(request)[0] == expected, request
    assert all(
        snapshot.columns is not None
        for snapshot in replica.datastore.sources.values()
    )
    assert_arenas_hold_columns(replica)
    assert replica.datastore.materializations == 0


# -- the arena-held bin1 frame ----------------------------------------------


def count_encodes(monkeypatch):
    """Record every CLUSTER_DOC encode the fragment arenas make."""
    import repro.serve.arena as arena_module

    calls = []
    original = arena_module.encode_cluster_document

    def counting(doc):
        calls.append(doc)
        return original(doc)

    monkeypatch.setattr(arena_module, "encode_cluster_document", counting)
    return calls


def encode_installed(server, source):
    """The frame the installed columns encode to, encoded afresh."""
    return encode_cluster_document(
        ColumnarDocument(
            version=server.version, source="gmetad",
            clusters=[server.datastore.source(source).columns],
        )
    )


def test_bin1_frame_encodes_once_per_install(
    engine, fabric, tcp, rngs, monkeypatch
):
    """Two ``bin1 /source`` reads of one install encode once, return the
    same bytes at the same charge; the frame is the installed columns
    encoded and decodes to the XML view.  A new install re-encodes, and
    only when read: the poll itself encodes nothing."""
    daemon, pseudos = _serve_world(engine, fabric, tcp, rngs)
    engine.run_for(60.0)
    encodes = count_encodes(monkeypatch)
    arena = daemon.datastore.source("meteor").arena
    first, first_seconds = daemon.serve_binary("/meteor")
    second, second_seconds = daemon.serve_binary("/meteor")
    assert second == first
    assert second_seconds == first_seconds
    assert len(encodes) == 1
    assert (arena.frames_encoded, arena.frames_reused) == (1, 1)
    assert daemon.frame_counts() == (1, 1)
    assert first == encode_installed(daemon, "meteor")
    assert decode_to_xml(first) == daemon.serve_query("/meteor")[0]
    installed = daemon.datastore.source("meteor").columns
    pseudos["meteor"].mutate(hosts=[1])
    engine.run_for(30.0)
    assert daemon.datastore.source("meteor").columns is not installed
    assert len(encodes) == 1  # lazy: the install encoded nothing
    third, _ = daemon.serve_binary("/meteor")
    assert len(encodes) == 2
    assert third != first
    assert third == encode_installed(daemon, "meteor")
    assert decode_to_xml(third) == daemon.serve_query("/meteor")[0]
    assert daemon.datastore.materializations == 0


def test_removed_source_serves_no_stale_frame(engine, fabric, tcp, rngs):
    """Detaching a source drops its arena and frame; re-attached, it
    serves a frame of its new columns, not the old one."""
    daemon, pseudos = _serve_world(engine, fabric, tcp, rngs)
    engine.run_for(60.0)
    stale, _ = daemon.serve_binary("/meteor")
    source = next(s for s in daemon.config.data_sources if s.name == "meteor")
    daemon.remove_data_source("meteor")
    assert daemon.serve_binary("/meteor") is None
    assert "meteor" not in daemon._serve_arenas
    pseudos["meteor"].mutate(hosts=[0])
    daemon.add_data_source(source)
    engine.run_for(30.0)
    fresh, _ = daemon.serve_binary("/meteor")
    assert fresh != stale
    assert fresh == encode_installed(daemon, "meteor")
    assert daemon.datastore.source("meteor").arena.frames_encoded == 1


def test_quarantined_source_keeps_last_good_frame(engine, fabric, tcp, rngs):
    """``mark_corrupt`` keeps the last-good snapshot serving, so the
    held frame keeps serving too, without a re-encode."""
    daemon, _ = _serve_world(engine, fabric, tcp, rngs)
    engine.run_for(60.0)
    good, _ = daemon.serve_binary("/meteor")
    daemon.datastore.mark_corrupt("meteor", engine.now, "garbled poll")
    assert daemon.datastore.source("meteor").quarantined
    again, _ = daemon.serve_binary("/meteor")
    assert again == good
    assert daemon.frame_counts() == (1, 1)


def test_replica_bin1_frame_follows_feed_installs(
    engine, fabric, tcp, rngs, monkeypatch
):
    """On a columnar-serve replica: one encode per feed install however
    many ``bin1`` reads it serves, and a source the feed removes serves
    no frame."""
    config = GmetadConfig(
        name="sdsc", host="gmeta-sdsc", archive_mode="account",
        columnar=True, read_tier=ReadTierConfig(),
    )
    pseudo = PseudoGmond(
        engine, fabric, tcp, "meteor", num_hosts=3,
        rng=rngs.stream("pg:meteor"),
    )
    config.add_source("meteor", [pseudo.address])
    daemon = Gmetad(engine, fabric, tcp, config).start()
    daemon.attach_pubsub()
    replica = ReadReplica(
        engine, fabric, tcp, daemon, name="rc", host="gmeta-sdsc-rc",
        config=ReadTierConfig(columnar_serve=True),
    ).start()
    engine.run_for(60.0)
    encodes = count_encodes(monkeypatch)
    frames = {replica.serve_binary("/meteor")[0] for _ in range(3)}
    assert len(frames) == 1 and len(encodes) == 1
    frame = frames.pop()
    assert frame == encode_installed(replica, "meteor")
    assert decode_to_xml(frame) == replica.serve_query("/meteor")[0]
    installs = replica.installs
    pseudo.mutate(hosts=[2])
    engine.run_for(30.0)
    assert replica.installs > installs
    assert replica.serve_binary("/meteor")[0] == encode_installed(
        replica, "meteor"
    )
    assert len(encodes) == 2
    assert_arenas_hold_columns(replica)
    # the feed drops the source: no arena, no frame
    from repro.readtier.feed import meta_key

    del replica.client.stream.mirror[meta_key("meteor")]
    replica._rebuild({"meteor"})
    assert replica.serve_binary("/meteor") is None
    assert "meteor" not in replica._serve_arenas


# -- arena churn: never a stale host ---------------------------------------


def test_arena_never_serves_stale_fragments(engine, fabric, tcp, rngs):
    """Targeted churn against one arena: after every install the detail
    join must equal a from-scratch writer pass over a freshly
    materialized tree, and only the touched hosts re-rendered."""
    pseudo = PseudoGmond(
        engine, fabric, tcp, "churn", num_hosts=8,
        rng=rngs.stream("pg:churn"),
    )
    pool = InternPool()
    arena = FragmentArena()
    for cycle in range(6):
        touched = pseudo.mutate(hosts=[cycle % 8, (cycle + 3) % 8])
        assert touched == 2
        cols = parse_columnar(pseudo.current_xml(), pool).clusters[0]
        before = arena.frag_invalidations
        arena.install(cols)
        if cycle > 0:
            delta = arena.frag_invalidations - before
            assert 1 <= delta <= 2, "invalidation strayed from the churn"
        served, _ = arena.detail_fragment()
        writer = XmlWriter()
        writer.cluster(cols.materialize_into(cols.shell_cluster()))
        assert served == writer.result(), f"stale bytes at cycle {cycle}"


# -- satellite: decode_to_xml builds no DOM --------------------------------


def test_decode_to_xml_materializes_nothing(engine, fabric, tcp, rngs):
    """Regression for the lazy decode path: rendering a CLUSTER_DOC
    frame back to XML must not touch the materialization APIs."""
    pseudo = PseudoGmond(
        engine, fabric, tcp, "meteor", num_hosts=4,
        rng=rngs.stream("pg:meteor"),
    )
    cdoc = parse_columnar(pseudo.current_xml())
    frame = encode_cluster_document(
        ColumnarDocument(
            version=cdoc.version, source=cdoc.source, clusters=cdoc.clusters
        )
    )
    expected = decode_to_xml(frame)
    # the eager DOM route agrees -- then gets barred
    assert write_document(materialize_document(cdoc)) == expected

    def _boom(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("decode_to_xml materialized a DOM")

    original_host = ColumnarCluster.materialize_host
    original_into = ColumnarCluster.materialize_into
    ColumnarCluster.materialize_host = _boom
    ColumnarCluster.materialize_into = _boom
    try:
        assert decode_to_xml(frame) == expected
    finally:
        ColumnarCluster.materialize_host = original_host
        ColumnarCluster.materialize_into = original_into


# -- property: per-host rendering is the writer, byte for byte -------------

_tricky_text = st.text(
    alphabet=string.ascii_lowercase + string.digits + "_-." + '&<>"\'',
    min_size=1,
    max_size=12,
).filter(lambda s: s[0].isalpha())

_numeric_attrs = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    st.just(-0.0),  # the "-0" drift case: must normalize to "0"
    st.just(0.0),
    st.integers(min_value=0, max_value=1 << 20).map(float),
)


@st.composite
def _metrics(draw):
    if draw(st.booleans()):
        mtype = draw(st.sampled_from(
            [MetricType.FLOAT, MetricType.DOUBLE, MetricType.UINT32]
        ))
        val = format_value(draw(_numeric_attrs), mtype)
    else:
        mtype = MetricType.STRING
        val = draw(_tricky_text)
    return MetricElement(
        name=draw(_tricky_text),
        val=val,
        mtype=mtype,
        units=draw(st.sampled_from(["", "KB", "%", 'K&B"s', "jobs/s"])),
        tn=draw(_numeric_attrs.map(abs)),
        tmax=draw(_numeric_attrs.map(abs)),
        dmax=draw(_numeric_attrs.map(abs)),
        slope=draw(st.sampled_from(list(Slope))),
        source=draw(st.sampled_from(["gmond", "gmetric", "a&b"])),
    )


@st.composite
def _full_clusters(draw):
    cluster = ClusterElement(
        name=draw(_tricky_text),
        owner=draw(st.sampled_from(["", "UCB", 'o"w&ner'])),
        localtime=draw(_numeric_attrs.map(abs)),
        url=draw(st.sampled_from(["", "http://x/", "http://a?b&c"])),
    )
    for host in draw(st.lists(
        st.builds(
            HostElement,
            name=_tricky_text,
            ip=st.sampled_from(["", "10.0.0.9", "fe<80>::1"]),
            reported=_numeric_attrs.map(abs),
            tn=_numeric_attrs.map(abs),
            tmax=_numeric_attrs.map(abs),
            dmax=_numeric_attrs.map(abs),
        ),
        max_size=6,
    )):
        for metric in draw(st.lists(_metrics(), max_size=5)):
            host.add_metric(metric)
        cluster.add_host(host)
    return cluster


@settings(max_examples=80, deadline=None)
@given(_full_clusters())
def test_render_cluster_is_the_writer_byte_for_byte(cluster):
    """Escaping, -0 normalization, UNITS omission, attribute order,
    metric sorting, empty-host self-closing: all pinned to XmlWriter."""
    cols = columns_from_cluster(cluster, InternPool())
    writer = XmlWriter()
    writer.cluster(cluster)
    assert render_cluster(cols) == writer.result()


@settings(max_examples=80, deadline=None)
@given(_full_clusters())
def test_arena_fragments_match_writer_after_install(cluster):
    """The memoized arena path agrees with the one-shot renderer (and
    therefore the writer) on arbitrary clusters."""
    cols = columns_from_cluster(cluster, InternPool())
    arena = FragmentArena()
    arena.install(cols)
    served, _ = arena.detail_fragment()
    writer = XmlWriter()
    writer.cluster(cluster)
    assert served == writer.result()


def test_render_raises_on_nan_like_the_writer():
    """NaN in a numeric attribute is a hard error on both paths."""
    cluster = ClusterElement(name="c", localtime=10.0)
    host = HostElement(name="h", ip="", reported=float("nan"))
    cluster.add_host(host)
    cols = columns_from_cluster(cluster, InternPool())
    writer = XmlWriter()
    with pytest.raises(ValueError):
        writer.cluster(cluster)
    with pytest.raises(ValueError):
        render_cluster(cols)
