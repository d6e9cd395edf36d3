"""Chunk-list replies against the XmlWriter engine they replaced.

A reply leaves the daemon as an :class:`~repro.wire.reply.XmlReply`
chunk list: envelope tags, held per-source fragments, an arena's open
tag and host fragments, memoized path-reply text.  Every one of those
holdings can go stale.  This stateful test drives an N-level ingest
daemon (with a fragment arena per cluster, or rendering from columns),
a read replica fed from it, and a 1-level daemon through installs,
churn that keeps the layout, NOT-MODIFIED touches, quarantine,
failures and source removal, interleaved with the whole query catalog.
For every reply, on the wire and through ``serve_query``, it asserts:

- the wire payload's ``xml`` is ``serve_query``'s text, and
  ``size_bytes`` is its length;
- that text is what the old engine wrote: :class:`XmlWriter` over the
  materialized host trees (the oracle below);
- the reply's ``QueryStats`` and the arenas' counters follow the old
  rule, modelled here independently of the daemon's caches: which
  fragments a whole-tree dump has cached, which a replica primed, and
  which fresh arena bytes a detail reply consumes.

A memoized path reply that outlives its stamp, or fills a form a
whole-tree dump reads, fails the text or the stats check.
"""

from __future__ import annotations

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.gmetad import Gmetad
from repro.core.gmetad_1level import OneLevelGmetad
from repro.core.query import GmetadQuery, QueryError
from repro.core.resilience import ResilienceConfig
from repro.core.tree import GmetadConfig
from repro.net.fabric import Fabric
from repro.net.tcp import TcpNetwork
from repro.readtier.config import ReadTierConfig
from repro.readtier.feed import ReplicationFeed
from repro.readtier.replica import ReadReplica, _source_of
from repro.serve.fragments import summary_cluster_element
from repro.sim.engine import Engine
from repro.wire.conditional import NotModified, TaggedXml, with_generation
from repro.metrics.types import MetricType
from repro.wire.model import (
    ClusterElement,
    GangliaDocument,
    GridElement,
    HostElement,
    MetricElement,
    MetricSummary,
    SummaryInfo,
)
from repro.wire.reply import XmlReply
from repro.wire.writer import XML_PROLOG, XmlWriter, write_document
from tests.helpers import host_tree

CLUSTERS = ("c0", "c1", "c2")
GRIDS = ("g0", "g1")
SOURCES = CLUSTERS + GRIDS
METRICS = (
    ("load_one", MetricType.FLOAT, ""),
    ("cpu_num", MetricType.UINT16, "CPUs"),
    ("os_name", MetricType.STRING, ""),
    ("bytes_in", MetricType.DOUBLE, "bytes/sec"),
)
METRIC_NAMES = tuple(name for name, _, _ in METRICS) + ("no_metric",)
HOST_NAMES = ("h0", "h1", "h2", "h3", "no_host")
NESTED = ("g0-a", "g0-b", "g0-sub", "g1-a", "g1-b", "g1-sub", "no_child")
#: requests re-asked after every step
RECENT = 6

#: the query catalog; ``{s}`` is any source name, ``{h}``, ``{m}`` and
#: ``{n}`` a host, metric or nested name (present or not)
TEMPLATES = (
    "/",
    "/?filter=summary",
    "/{s}",
    "/{s}?filter=summary",
    "/{s}/{h}",
    "/{s}/{h}?filter=summary",
    "/{s}/{h}/{m}",
    "/{s}/{n}",
    "/{s}/{n}?filter=summary",
    "/no_source",
    "/a/b/c/d",
)


# -- content ---------------------------------------------------------------


def _value(rng: random.Random, mtype: MetricType) -> str:
    if mtype is MetricType.STRING:
        return rng.choice(["Linux", "a&b", "<x>", "plain"])
    if mtype in (MetricType.FLOAT, MetricType.DOUBLE):
        return f"{rng.uniform(0, 10):.2f}"
    return str(rng.randrange(64))


def make_cluster(name: str, hosts: int, rng: random.Random, now: float):
    cluster = ClusterElement(
        name=name, owner="ucb", localtime=now, url=f"http://{name}/"
    )
    for i in range(hosts):
        host = HostElement(
            name=f"h{i}", ip=f"10.0.0.{i}", reported=now - rng.randrange(120),
            tn=rng.randrange(20), tmax=20,
        )
        for metric, mtype, units in METRICS:
            host.add_metric(
                MetricElement(
                    name=metric, val=_value(rng, mtype), mtype=mtype,
                    units=units, tn=rng.randrange(60), tmax=60,
                )
            )
        cluster.add_host(host)
    return cluster


def make_grid(name: str, rng: random.Random, now: float) -> GridElement:
    """A child gmetad's summary answer: summary clusters, maybe a grid."""

    def summary() -> SummaryInfo:
        info = SummaryInfo(hosts_up=rng.randrange(9), hosts_down=rng.randrange(3))
        info.add_metric(
            MetricSummary(
                "load_one", round(rng.uniform(0, 50), 2), rng.randrange(1, 9),
                mtype=MetricType.FLOAT,
            )
        )
        return info

    grid = GridElement(
        name=name, authority=f"http://{name}.example/ganglia/", localtime=now
    )
    for suffix in ("a", "b")[: rng.randrange(1, 3)]:
        grid.add_cluster(
            ClusterElement(name=f"{name}-{suffix}", localtime=now, summary=summary())
        )
    if rng.random() < 0.5:
        grid.add_grid(
            GridElement(
                name=f"{name}-sub", authority=f"http://{name}-sub/",
                summary=summary(),
            )
        )
    return grid


def document(element, version="2.5.4", source="gmond") -> str:
    doc = GangliaDocument(version=version, source=source)
    if isinstance(element, GridElement):
        doc.add_grid(element)
    else:
        doc.add_cluster(element)
    return write_document(doc)


# -- the old engine's text ----------------------------------------------------


class _NotFound(Exception):
    pass


def _text(write) -> str:
    writer = XmlWriter()
    write(writer)
    return writer.result()


def full_cluster_text(snapshot) -> str:
    """A cluster source's full form: its host tree, or its shell."""
    cols = snapshot.columns
    if cols is None or cols.host_count == 0:
        return _text(lambda w: w.cluster(snapshot.cluster))
    return _text(lambda w: w.cluster(host_tree(snapshot)))


def summary_grid(snapshot) -> GridElement:
    return GridElement(
        name=snapshot.grid.name,
        authority=snapshot.authority or snapshot.grid.authority,
        summary=snapshot.summary,
    )


def source_text(snapshot, summary: bool) -> str:
    if snapshot.kind == "cluster":
        if not summary:
            return full_cluster_text(snapshot)
        element = summary_cluster_element(snapshot)
        return _text(lambda w: w.cluster(element, summary_only=True))
    if summary:
        return _text(lambda w: w.grid(summary_grid(snapshot), summary_only=True))
    return _text(lambda w: w.grid(snapshot.grid))


def path_text(datastore, query: GmetadQuery) -> str:
    """The old ``_write_path``, over materialized trees."""
    path = query.path
    snapshot = datastore.source(path[0])
    if snapshot is None:
        raise _NotFound
    if snapshot.kind == "cluster":
        if len(path) == 1:
            if query.summary:
                return _text(
                    lambda w: w.cluster(snapshot.cluster, summary_only=True)
                )
            return full_cluster_text(snapshot)
        cols = snapshot.columns
        h = None if cols is None else cols.host_index.get(path[1])
        if h is None:
            raise _NotFound
        host = cols.materialize_host(h)
        if len(path) == 3:
            metric = host.metrics.get(path[2])
            if metric is None:
                raise _NotFound
            host.metrics = {metric.name: metric}
        shell = cols.shell_cluster()
        shell.add_host(host)
        return _text(lambda w: w.cluster(shell))
    grid = snapshot.grid
    if len(path) == 1:
        if query.summary or grid.is_summary:
            return _text(lambda w: w.grid(summary_grid(snapshot), summary_only=True))
        return _text(lambda w: w.grid(grid))
    nested = datastore.find_nested(path[0], path[1])
    if nested is None or len(path) > 2:
        raise _NotFound

    def write(w: XmlWriter) -> None:
        w.open_tag(
            "GRID",
            [
                ("NAME", grid.name),
                ("AUTHORITY", snapshot.authority or grid.authority),
            ],
        )
        if isinstance(nested, ClusterElement):
            w.cluster(nested, summary_only=nested.is_summary)
        else:
            w.grid(nested, summary_only=nested.is_summary)
        w.close_tag("GRID")

    return _text(write)


def lookups(datastore, query: GmetadQuery) -> int:
    """Hash lookups the old engine counted before answering or failing."""
    path = query.path
    if not path:
        return 0
    snapshot = datastore.source(path[0])
    if snapshot is None or len(path) == 1:
        return 1
    if snapshot.kind == "grid":
        return 2
    cols = snapshot.columns
    if cols is None or path[1] not in cols.host_index or len(path) == 2:
        return 2
    return 3


# -- the old engine's bookkeeping ---------------------------------------------


class Model:
    """What one N-level server's old engine held: the stamps of the
    fragments its whole-tree dumps (and a replica's priming, and the
    feed) cached, and its last whole-tree summary reply.  Plus the one
    new rule: a summary-form or grid path reply renders once per
    (source, reply shape, stamp)."""

    def __init__(self) -> None:
        self.memo = {}
        self.summary_key = None
        self.summary_spliced = 0
        self.rendered = {}
        self.renders = 0

    def render(self, query: GmetadQuery, snapshot) -> None:
        """Count the render a path reply needs, if any."""
        if len(query.path) > 2:
            return
        if snapshot.kind == "cluster":
            if len(query.path) > 1 or not query.summary:
                return
            key, stamp = "summary", snapshot.summary_stamp
        elif len(query.path) == 2:
            key, stamp = "/" + query.path[1], snapshot.detail_stamp
        elif query.summary or snapshot.grid.is_summary:
            key, stamp = "summary", snapshot.summary_stamp
        else:
            key, stamp = "full", snapshot.detail_stamp
        if self.rendered.get((snapshot.name, key)) != stamp:
            self.rendered[(snapshot.name, key)] = stamp
            self.renders += 1

    def hit(self, snapshot, form: str) -> bool:
        stamp = snapshot.detail_stamp if form == "full" else snapshot.summary_stamp
        return self.memo.get((snapshot.name, form)) == stamp

    def fill(self, snapshot, form: str) -> None:
        stamp = snapshot.detail_stamp if form == "full" else snapshot.summary_stamp
        self.memo[(snapshot.name, form)] = stamp


def arena_state(server) -> dict:
    return {
        name: [arena.frag_hits, arena._fresh_bytes, arena._fresh_hosts]
        for name, arena in server._serve_arenas.items()
    }


def consume(expected: dict, snapshot) -> int:
    """A detail reply's take on the arena's fresh bytes (old rule):
    returns the reused bytes and updates the expected counters."""
    arena = snapshot.arena
    if arena is None or snapshot.columns is None or not snapshot.columns.host_count:
        return 0
    state = expected[snapshot.name]
    hosts = len(arena._frags)
    reused = arena._total_bytes - min(state[1], arena._total_bytes)
    state[0] += hosts - min(state[2], hosts)
    state[1] = state[2] = 0
    return reused


def predict(server, model: Model, query: GmetadQuery, now: float):
    """(text, stats dict, expected arena counters) the old engine would
    give; a ValueError the old writer raised is returned as the text."""
    datastore = server.datastore
    arenas = arena_state(server)
    engine = server.query_engine
    stats = {
        "hash_lookups": lookups(datastore, query),
        "bytes_from_cache": 0,
        "found": True,
    }
    head = XML_PROLOG + (
        f'<GANGLIA_XML VERSION="{engine.version}" SOURCE="gmetad">\n'
    )
    if not query.path:
        key = (f"{now:.0f}", datastore.content_version)
        repeat = query.summary and model.summary_key == key
        parts = []
        spliced = 0
        form = "summary" if query.summary else "full"
        for name in sorted(datastore.sources):
            snapshot = datastore.sources[name]
            text = source_text(snapshot, query.summary)
            parts.append(text)
            spliced += len(text)
            if repeat:
                continue
            if model.hit(snapshot, form):
                stats["bytes_from_cache"] += len(text)
            else:
                if not query.summary:
                    stats["bytes_from_cache"] += consume(arenas, snapshot)
                model.fill(snapshot, form)
        if repeat:
            stats["bytes_from_cache"] = model.summary_spliced
        elif query.summary:
            model.summary_key, model.summary_spliced = key, spliced
        grid = _text(
            lambda w: w.open_tag(
                "GRID",
                [
                    ("NAME", engine.grid_name),
                    ("AUTHORITY", engine.authority),
                    ("LOCALTIME", f"{now:.0f}"),
                ],
            )
        )
        text = head + grid + "".join(parts) + "</GRID>\n</GANGLIA_XML>\n"
    else:
        try:
            body = path_text(datastore, query)
        except ValueError as exc:
            return exc, None, arenas
        except _NotFound:
            body = None
        snapshot = datastore.source(query.path[0])
        if body is not None:
            model.render(query, snapshot)
        if snapshot is not None and snapshot.kind == "cluster":
            path = query.path
            cols = snapshot.columns
            if len(path) == 1 and not query.summary:
                stats["bytes_from_cache"] += consume(arenas, snapshot)
            elif len(path) >= 2 and snapshot.arena is not None:
                h = cols.host_index.get(path[1])
                if h is not None:
                    arenas[snapshot.name][0] += 1  # the host fragment read
                    if len(path) == 2:
                        host = cols.materialize_host(h)
                        stats["bytes_from_cache"] += len(
                            _text(lambda w: w.host(host))
                        )
        if body is None:
            stats["found"] = False
            text = (
                XML_PROLOG
                + f"<!-- not found: {query.render()} -->\n"
                + head[len(XML_PROLOG):]
                + "</GANGLIA_XML>\n"
            )
        else:
            text = head + body + "</GANGLIA_XML>\n"
    stats["bytes_serialized"] = len(text)
    return text, stats, arenas


def predict_one_level(daemon, model: Model):
    """The old 1-level dump: (text, cached bytes)."""
    parts = []
    cached = 0
    for name in sorted(daemon.datastore.sources):
        snapshot = daemon.datastore.sources[name]
        if snapshot.cluster is None:
            continue
        cols = snapshot.columns
        if (cols is None or not cols.host_count) and (
            snapshot.cluster.summary is not None
        ):
            continue
        text = full_cluster_text(snapshot)
        parts.append(text)
        if model.hit(snapshot, "full"):
            cached += len(text)
        else:
            model.fill(snapshot, "full")
    text = (
        XML_PROLOG
        + f'<GANGLIA_XML VERSION="{daemon.version}" SOURCE="gmetad">\n'
        + "".join(parts)
        + "</GANGLIA_XML>\n"
    )
    return text, cached


# -- the machine ----------------------------------------------------------------


class ReplyMachine(RuleBasedStateMachine):
    """Ingest daemon + replica + 1-level daemon under one clock."""

    #: whether the ingest daemon and the replica keep fragment arenas
    arenas = True

    def __init__(self) -> None:
        super().__init__()
        self.engine = Engine()
        fabric = Fabric()
        tcp = TcpNetwork(self.engine, fabric)
        self.daemon = Gmetad(
            self.engine, fabric, tcp,
            GmetadConfig(
                name="sdsc", host="gmeta-sdsc", archive_mode="account",
                columnar_serve=self.arenas, resilience=ResilienceConfig(),
                read_tier=ReadTierConfig(columnar_serve=self.arenas),
            ),
        )
        self.replica = ReadReplica(self.engine, fabric, tcp, self.daemon)
        self.feed = ReplicationFeed(self.daemon)
        self.one = OneLevelGmetad(
            self.engine, fabric, tcp,
            GmetadConfig(name="attic", host="gmeta-attic", archive_mode="account"),
        )
        self.models = {
            id(self.daemon): Model(),
            id(self.replica): Model(),
            id(self.one): Model(),
        }
        self.clusters = {}
        #: wire replies already read (their text is joined)
        self.joined = []
        #: (server attribute, request) of the latest distinct queries
        self.recent = []
        self.engine.run_for(100.0)
        self.stats = []
        for server in (self.daemon, self.replica):
            engine = server.query_engine
            real = engine.execute

            def execute(query, now, joined=True, _real=real):
                out = _real(query, now, joined)
                self.stats.append(out[1])
                return out

            engine.execute = execute

    # -- feed ---------------------------------------------------------------

    def _feed_state(self) -> dict:
        """The feed's records; models its cache fills on the daemon."""
        state = self.feed.state()
        model = self.models[id(self.daemon)]
        for snapshot in self.daemon.datastore.sources.values():
            model.fill(snapshot, "summary")
            cols = snapshot.columns
            if cols is None or not cols.host_count:
                model.fill(snapshot, "full")
        return state

    def _ingest(self, source: str, xml: str) -> None:
        self.daemon._on_data(source, xml, 0.0)
        self.one._on_data(source, xml, 0.0)

    # -- mutations ------------------------------------------------------------

    @initialize(seed=st.integers(0, 2**16))
    def populate(self, seed):
        """Start from two hosted clusters and a grid, replica in sync."""
        self.install_cluster("c0", 3, seed)
        self.install_cluster("c1", 2, seed + 1)
        self.install_grid("g0", seed)
        self.sync_replica()

    @rule(
        source=st.sampled_from(CLUSTERS),
        # hosted clusters first: a hostless one is the shrink target
        hosts=st.sampled_from((3, 1, 4, 0, 2)),
        seed=st.integers(0, 2**16),
    )
    def install_cluster(self, source, hosts, seed):
        rng = random.Random(seed)
        cluster = make_cluster(source, hosts, rng, self.engine.now)
        self.clusters[source] = cluster
        self._ingest(source, document(cluster))

    @rule(source=st.sampled_from(CLUSTERS), seed=st.integers(0, 2**16))
    def churn_cluster(self, source, seed):
        """Same layout, new values on one host: the arena's delta path."""
        cluster = self.clusters.get(source)
        if cluster is None or not cluster.hosts:
            return
        rng = random.Random(seed)
        host = rng.choice(sorted(cluster.hosts.values(), key=lambda h: h.name))
        host.reported = self.engine.now
        for metric in host.metrics.values():
            if rng.random() < 0.5:
                metric.val = _value(rng, metric.mtype)
        cluster.localtime = self.engine.now
        self._ingest(source, document(cluster))

    @rule(source=st.sampled_from(GRIDS), seed=st.integers(0, 2**16))
    def install_grid(self, source, seed):
        grid = make_grid(source, random.Random(seed), self.engine.now)
        self._ingest(source, document(grid, source="gmetad"))

    @rule(source=st.sampled_from(SOURCES), later=st.sampled_from((15, 0, 1)))
    def not_modified(self, source, later):
        """An unchanged poll whose report time moved ``later`` seconds
        past the clock (a grid source's LOCALTIME is patched)."""
        notice = NotModified(
            generation="x", localtime=float(f"{self.engine.now:.0f}") + later
        )
        self.daemon._on_not_modified(source, notice, 0.0)
        self.one._on_not_modified(source, notice, 0.0)

    @rule(source=st.sampled_from(SOURCES), cut=st.floats(0.3, 0.9))
    def quarantine(self, source, cut):
        """A damaged poll: salvage, or quarantine on the last good."""
        cluster = self.clusters.get(source)
        xml = document(cluster) if cluster is not None else "<GANGLIA_XML"
        self._ingest(source, xml[: int(len(xml) * cut)])

    @rule(source=st.sampled_from(SOURCES))
    def source_down(self, source):
        self.daemon._on_source_down(source, "timeout")
        self.one._on_source_down(source, "timeout")

    @rule(source=st.sampled_from(SOURCES))
    def remove_source(self, source):
        self.daemon.remove_data_source(source)
        self.one.remove_data_source(source)
        self.clusters.pop(source, None)

    @rule(seconds=st.sampled_from([0.4, 1.0, 15.0]))
    def tick(self, seconds):
        self.engine.run_for(seconds)

    @rule()
    def sync_replica(self):
        """Apply the feed's changes to the replica, as one batch."""
        state = self._feed_state()
        mirror = self.replica.client.stream.mirror
        changed = {
            _source_of(key)
            for key in set(state) | set(mirror)
            if state.get(key) != mirror.get(key)
        } - {None}
        self.replica.client.stream.mirror = dict(state)
        self.replica._rebuild(changed)
        model = self.models[id(self.replica)]
        for source in changed:
            snapshot = self.replica.datastore.source(source)
            if snapshot is not None:
                model.fill(snapshot, "summary")
                model.fill(snapshot, "full")

    # -- queries --------------------------------------------------------------

    @rule(
        server=st.sampled_from(["daemon", "replica"]),
        template=st.sampled_from(TEMPLATES),
        picks=st.tuples(*[st.integers(0, 9)] * 4),
        conditional=st.booleans(),
    )
    def query(self, server, template, picks, conditional):
        asked = (server, template.format(**self._names(getattr(self, server), picks)))
        self._query(*asked, conditional)
        if asked in self.recent:
            self.recent.remove(asked)
        self.recent = [asked] + self.recent[: RECENT - 1]

    @invariant()
    def recent_requests_answer_for_now(self):
        """After every step the recent requests are asked again:
        whatever changed since, a held fragment or memoized reply must
        not answer for the old state."""
        for asked in self.recent:
            self._query(*asked, False)

    def _query(self, server, request, conditional):
        server = getattr(self, server)
        try:
            query = GmetadQuery.parse(request)
        except QueryError:
            query = GmetadQuery()
        model = self.models[id(server)]
        # on the wire
        text, stats, arenas = predict(server, model, query, self.engine.now)
        wire = with_generation(request) if conditional else request
        if isinstance(text, ValueError):
            self._assert_raises(server._serve_response, "viewer", wire)
            self._assert_raises(server.serve_query, request)
            return
        joined = server.wire_chars_joined
        payload = server._serve_response("viewer", wire).payload
        if conditional:
            assert isinstance(payload, TaggedXml)
            reply = payload.body
            assert payload.size_bytes == reply.size_bytes + 32
        else:
            reply = payload
        assert isinstance(reply, XmlReply)
        assert server.wire_chars_joined == joined
        self._check(server, reply.xml, text, stats, arenas)
        assert reply.size_bytes == len(text)
        assert payload.xml == text
        # a reply joins once, even when a repeat hands the same one back
        if any(seen is reply for seen in self.joined):
            assert server.wire_chars_joined == joined
        else:
            assert server.wire_chars_joined == joined + len(text)
            self.joined.append(reply)
        # through serve_query
        text, stats, arenas = predict(server, model, query, self.engine.now)
        self._check(server, server.serve_query(request)[0], text, stats, arenas)

    @staticmethod
    def _names(server, picks) -> dict:
        """Path segments for a query: mostly names the server holds (a
        source, one of its hosts or nested elements, a metric), else a
        name from the whole pool, present or not."""

        def pick(held, pool, index):
            if held and index < 8:
                return held[index % len(held)]
            return pool[index % len(pool)]

        held = sorted(server.datastore.sources)
        source = pick(held, SOURCES + ("no_source",), picks[0])
        snapshot = server.datastore.source(source)
        hosts = nested = ()
        if snapshot is not None and snapshot.columns is not None:
            hosts = snapshot.columns.host_names
        if snapshot is not None and snapshot.grid is not None:
            nested = sorted(snapshot.grid.clusters) + sorted(snapshot.grid.grids)
        return {
            "s": source,
            "h": pick(hosts, HOST_NAMES, picks[1]),
            "m": pick(METRIC_NAMES[:-1], METRIC_NAMES, picks[2]),
            "n": pick(nested, NESTED, picks[3]),
        }

    def _check(self, server, got, text, stats, arenas) -> None:
        assert got == text
        reported = self.stats[-1]
        assert {
            "hash_lookups": reported.hash_lookups,
            "bytes_from_cache": reported.bytes_from_cache,
            "found": reported.found,
            "bytes_serialized": reported.bytes_serialized,
        } == stats
        assert arena_state(server) == arenas
        assert server.query_engine.path_renders == self.models[id(server)].renders

    @staticmethod
    def _assert_raises(call, *args) -> None:
        try:
            call(*args)
        except ValueError:
            return
        raise AssertionError("the old writer raised here; the reply did not")

    @rule(conditional=st.booleans())
    def query_one_level(self, conditional):
        one = self.one
        model = self.models[id(one)]
        text, cached = predict_one_level(one, model)
        wire = with_generation("/") if conditional else "/"
        payload = one._serve_response("viewer", wire).payload
        reply = payload.body if conditional else payload
        assert isinstance(reply, XmlReply)
        assert reply.size_bytes == len(text)
        assert payload.xml == text
        text, cached = predict_one_level(one, model)
        before = one.cpu.total_busy_seconds
        got, seconds = one.serve_query("/anything")
        assert got == text
        costs, capacity = one.costs, one.cpu.capacity
        expected = costs.serve_byte * (len(text) - cached) / capacity
        if cached:
            expected += costs.serve_byte_cached * cached / capacity
        assert seconds == expected
        assert one.cpu.total_busy_seconds > before

    @invariant()
    def replica_never_aborts(self):
        assert self.replica.barrier_aborts == 0


class ColumnReplyMachine(ReplyMachine):
    """The same, with every cluster rendered from its columns."""

    arenas = False


ReplyMachine.TestCase.settings = settings(
    stateful_step_count=30, deadline=None
)
ColumnReplyMachine.TestCase.settings = settings(
    stateful_step_count=30, deadline=None
)
TestArenaReplies = ReplyMachine.TestCase
TestColumnReplies = ColumnReplyMachine.TestCase


# -- the memo's edges, one at a time -----------------------------------------


def _machine() -> ReplyMachine:
    machine = ReplyMachine()
    machine.populate(seed=0)
    machine.install_grid("g0", 5)  # two nested clusters and a nested grid
    return machine


def test_grid_path_reply_follows_a_patched_report_time():
    """A NOT-MODIFIED poll patches a grid's LOCALTIME in place (only the
    detail stamp moves): the memoized ``/grid`` text must not outlive it."""
    machine = _machine()
    engine = machine.daemon.query_engine
    machine._query("daemon", "/g0", False)
    machine._query("daemon", "/g0", False)
    assert engine.path_renders == 1
    machine.not_modified("g0", 15)
    machine._query("daemon", "/g0", False)
    assert engine.path_renders == 2
    assert 'LOCALTIME="115"' in machine.daemon.serve_query("/g0")[0]


def test_nested_path_replies_are_kept_per_child():
    machine = _machine()
    for child in ("g0-a", "g0-b", "g0-sub", "g0-a", "g0-b"):
        machine._query("daemon", f"/g0/{child}", False)
        machine._query("replica", f"/g0/{child}", False)
    assert machine.daemon.query_engine.path_renders == 3


def test_path_replies_leave_the_dump_forms_alone():
    """A path reply fills only its own shape key: the next whole-tree
    summary dump still misses, renders and charges as it did before."""
    machine = _machine()
    machine.install_cluster("c0", 3, 9)
    for request in ("/c0?filter=summary", "/g0?filter=summary", "/g0"):
        machine._query("daemon", request, False)
    held = machine.daemon.datastore.source("c0").frag_cache
    assert "path:summary" in held and "summary" not in held
    machine._query("daemon", "/?filter=summary", False)
    machine._query("daemon", "/", False)
