"""One way to hold a cluster: every reader answers from the columns.

A datastore keeps a cluster's hosts only as columns, whichever XML
parser filled them.  Two builds of one federation differ only in the
parser gate (``columnar``) and the arena gate (``columnar_serve``);
every reader -- path and regex queries, the alarm engine, ``gstat``,
the static site, VO views and the viewer catalog -- must answer the
same on both, and no daemon may build a host tree.  The in-band
``__gmetad__`` cluster reports each build's own counters, so it differs
between them by design; it is held to the element it was built from.
"""

from __future__ import annotations

import pathlib

import pytest

from repro import ObservabilityConfig, build_paper_tree
from repro.core.alarms import AlarmEngine, standard_rules
from repro.core.datastore import SourceSnapshot
from repro.core.gmetad import Gmetad
from repro.core.query_regex import RegexQueryEngine
from repro.core.tree import GmetadConfig
from repro.frontend.site import generate_federation_site, generate_gmetad_pages
from repro.gmond.cluster import SimulatedCluster
from repro.obs.selfcluster import install_self_cluster
from repro.readtier.fleet import viewer_paths
from repro.sim.rng import RngRegistry
from repro.tools import gstat_from_agent, gstat_from_gmetad
from repro.vo.policy import ClusterSlice, VirtualOrganization, VoPolicy
from repro.vo.service import VoDirectory
from repro.wire.model import SummaryInfo
from repro.wire.parser import parse_columnar, parse_document
from repro.wire.writer import XmlWriter
from tests.helpers import host_tree

BUILDS = {
    "columnar": dict(columnar=True, columnar_serve=True),
    "tree": dict(columnar=False, columnar_serve=False),
}

#: path replies compared on every N-level daemon (``/sdsc-c0`` paths
#: resolve on sdsc; ``/attic/attic-c0`` is a grid source's nested path)
PATHS = [
    "/",
    "/?filter=summary",
    "/sdsc-c0",
    "/sdsc-c0?filter=summary",
    "/sdsc-c0/sdsc-c0-0-1",
    "/sdsc-c0/sdsc-c0-0-1/load_one",
    "/sdsc-c0/sdsc-c0-0-1/no_such_metric",
    "/sdsc-c0/no-such-host",
    "/nope",
    "/attic/attic-c0",
]

REGEX = [r"~/.*", r"~/sdsc-c\d/.*", r"~/sdsc-c\d/.*-0-[12]/load_.*", r"~/attic/.*"]

SELF_CLUSTER = "__gmetad__"


class Build:
    """One federation of each design plus a gmond-agent cluster."""

    def __init__(self, gates: dict, observability=None) -> None:
        self.nlevel = build_paper_tree(
            "nlevel", hosts_per_cluster=4, seed=7,
            observability=observability, **gates
        )
        self.onelevel = build_paper_tree(
            "1level", hosts_per_cluster=4, seed=7,
            observability=observability, **gates
        )
        fed = self.nlevel
        self.agents = SimulatedCluster.build(
            fed.engine, fed.fabric, fed.tcp, RngRegistry(5),
            name="agents", num_hosts=3,
        )
        self.notifications = []
        self.alarms = AlarmEngine(
            fed.gmetad("sdsc"), notify=self.notifications.append
        )
        for rule in standard_rules(load_threshold=0.5, silence=10.0):
            self.alarms.add_rule(rule)
        self.nlevel.start()
        self.onelevel.start()
        self.agents.start()
        self.alarms.start()
        self.nlevel.engine.run_for(95.0)
        self.onelevel.engine.run_for(95.0)

    def daemons(self):
        yield from sorted(self.nlevel.gmetads.items())
        yield from sorted(
            (f"1level-{name}", daemon)
            for name, daemon in self.onelevel.gmetads.items()
        )


@pytest.fixture(scope="module")
def builds():
    return {name: Build(gates) for name, gates in BUILDS.items()}


def both(builds, read):
    """``read(build)`` on both builds; asserts equal, returns it."""
    got = {name: read(build) for name, build in builds.items()}
    assert got["columnar"] == got["tree"]
    return got["columnar"]


def test_path_replies_equal(builds):
    def replies(build):
        return [
            (name, path, daemon.serve_query(path)[0])
            for name, daemon in build.daemons()
            for path in PATHS
        ]

    got = both(builds, replies)
    by_key = {(name, path): xml for name, path, xml in got}
    assert "<HOST NAME=\"sdsc-c0-0-1\"" in by_key[("sdsc", "/sdsc-c0/sdsc-c0-0-1")]
    assert "not found" in by_key[("sdsc", "/nope")]
    assert "not found" in by_key[("sdsc", "/sdsc-c0/sdsc-c0-0-1/no_such_metric")]
    assert '<CLUSTER NAME="attic-c0"' in by_key[("sdsc", "/attic/attic-c0")]
    assert "<HOST " in by_key[("1level-root", "/")]


def test_regex_search_and_alarms_equal(builds):
    def matches(build):
        engine = RegexQueryEngine(build.nlevel.gmetad("sdsc").datastore)
        return [
            (m.path, m.element) for query in REGEX for m in engine.search(query)
        ]

    got = both(builds, matches)
    paths = [path for path, _ in got]
    assert ("sdsc-c0", "sdsc-c0-0-1", "load_one") in paths
    assert ("attic", "attic-c0") in paths
    notifications = both(builds, lambda build: build.notifications)
    assert any(n.kind == "fire" for n in notifications)


def test_gstat_equal(builds):
    def text(build):
        return [
            gstat_from_gmetad(daemon, show_hosts=True)
            for _, daemon in build.daemons()
        ] + [gstat_from_agent(build.agents.agents[0])]

    got = both(builds, text)
    assert any("CLUSTER sdsc-c0 -- 4 up" in t for t in got)
    assert "CLUSTER agents -- 3 up, 0 down" in got[-1]
    assert "busiest:" in got[-1]


def test_site_vo_and_viewer_catalog_equal(builds, tmp_path):
    def site(build):
        pages = {}
        for label, fed in (("n", build.nlevel), ("1", build.onelevel)):
            root = tmp_path / f"{id(build)}-{label}"
            generate_federation_site(fed.gmetads, root)
            pages.update(
                (f"{label}/{p.relative_to(root)}", p.read_text())
                for p in sorted(root.rglob("*.html"))
            )
        return pages

    pages = both(builds, site)
    assert "n/sdsc/host-sdsc-c0-sdsc-c0-0-1.html" in pages

    def vo(build):
        policy = VoPolicy()
        atlas = policy.add(VirtualOrganization("atlas"))
        atlas.grant(ClusterSlice(cluster="sdsc-c0", prefix="sdsc-c0-0-"))
        atlas.grant(ClusterSlice(cluster="sdsc-c1", fraction=0.5))
        directory = VoDirectory(build.nlevel.gmetad("sdsc"), policy)
        return [
            directory.serve(query)[0]
            for query in (
                "/vo/atlas", "/vo/atlas/sdsc-c0", "/vo/atlas/sdsc-c1",
                "/vo/atlas/sdsc-c0/sdsc-c0-0-2",
            )
        ]

    replies = both(builds, vo)
    assert "sdsc-c0-0-2" in replies[3]
    catalogs = both(
        builds,
        lambda build: [viewer_paths(daemon) for _, daemon in build.daemons()],
    )
    assert "/sdsc-c0/sdsc-c0-0-0" in catalogs[4]


def test_no_daemon_builds_a_host_tree(builds):
    for build in builds.values():
        for name, daemon in build.daemons():
            assert daemon.datastore.materializations == 0, name
            for snapshot in daemon.datastore.sources.values():
                if snapshot.cluster is not None:
                    assert snapshot.cluster.hosts == {}, (name, snapshot.name)
    snapshot = builds["tree"].nlevel.gmetad("sdsc").datastore.source("sdsc-c0")
    with pytest.raises(ValueError):
        SourceSnapshot(
            name="sdsc-c0", kind="cluster", summary=SummaryInfo(),
            cluster=host_tree(snapshot),
        )


@pytest.mark.parametrize("build", sorted(BUILDS))
@pytest.mark.parametrize("design", ["nlevel", "1level"])
def test_inband_cluster_is_read_from_columns(design, build):
    federation = build_paper_tree(
        design, hosts_per_cluster=4, seed=7,
        observability=ObservabilityConfig(), **BUILDS[build]
    ).start()
    federation.engine.run_for(50.0)
    daemon = federation.gmetad("sdsc")
    cluster = install_self_cluster(daemon, federation.engine.now)
    expected = XmlWriter()
    expected.cluster(cluster)
    # the 1-level design answers every request with its whole dump
    for request in ("/", f"/{SELF_CLUSTER}"):
        xml, _ = daemon.serve_query(request)
        assert expected.result() in xml, request
    (host,) = cluster.hosts.values()
    found = RegexQueryEngine(daemon.datastore).search(
        f"~/{SELF_CLUSTER}/.*/cpu_.*"
    )
    assert [m.element for m in found] == [
        m for name, m in host.metrics.items() if name.startswith("cpu_")
    ]
    assert f"CLUSTER {SELF_CLUSTER} -- 1 up, 0 down" in gstat_from_gmetad(
        daemon, source=SELF_CLUSTER
    )
    snapshot = daemon.datastore.source(SELF_CLUSTER)
    assert snapshot.cluster.hosts == {} and snapshot.arena is None
    assert snapshot.columns.pool is not daemon._intern_pool


# -- a VAL that does not parse as a number --------------------------------

BAD_VALUES = """<?xml version="1.0" encoding="ISO-8859-1" standalone="yes"?>
<GANGLIA_XML VERSION="2.5.4" SOURCE="gmond">
<CLUSTER NAME="meteor" LOCALTIME="100">
<HOST NAME="h0" IP="10.0.0.1" REPORTED="99" TN="1" TMAX="20" DMAX="0">
<METRIC NAME="cpu_num" VAL="2" TYPE="uint16" TN="1" TMAX="1200" DMAX="0" SLOPE="zero" SOURCE="gmond"/>
<METRIC NAME="load_one" VAL="0.5" TYPE="float" TN="1" TMAX="70" DMAX="0" SLOPE="both" SOURCE="gmond"/>
</HOST>
<HOST NAME="h1" IP="10.0.0.2" REPORTED="99" TN="1" TMAX="20" DMAX="0">
<METRIC NAME="cpu_num" VAL="x" TYPE="uint16" TN="1" TMAX="1200" DMAX="0" SLOPE="zero" SOURCE="gmond"/>
<METRIC NAME="load_one" VAL="1.5" TYPE="float" TN="1" TMAX="70" DMAX="0" SLOPE="both" SOURCE="gmond"/>
</HOST>
<HOST NAME="h2" IP="10.0.0.3" REPORTED="99" TN="1" TMAX="20" DMAX="0">
<METRIC NAME="cpu_num" VAL="4" TYPE="uint16" TN="1" TMAX="1200" DMAX="0" SLOPE="zero" SOURCE="gmond"/>
<METRIC NAME="load_one" VAL="x" TYPE="float" TN="1" TMAX="70" DMAX="0" SLOPE="both" SOURCE="gmond"/>
</HOST>
</CLUSTER>
</GANGLIA_XML>
"""


@pytest.mark.parametrize("validate", [False, True])
@pytest.mark.parametrize("parser", ["columnar", "tree"])
def test_unparseable_numeric_val_reads_as_absent(
    parser, validate, engine, fabric, tcp, tmp_path
):
    config = GmetadConfig(name="mon", host="gmeta-mon", archive_mode="account")
    daemon = Gmetad(engine, fabric, tcp, config)
    if parser == "columnar":
        cdoc = parse_columnar(
            BAD_VALUES, pool=daemon._intern_pool, validate=validate
        )
        daemon.ingest_columnar("meteor", cdoc, 100.0)
    else:
        daemon.ingest("meteor", parse_document(BAD_VALUES, validate), 100.0)
    assert gstat_from_gmetad(daemon, show_hosts=True).splitlines() == [
        "CLUSTER meteor -- 3 up, 0 down, 6 CPUs, mean load 1.00",
        "  up   h0                       load  0.50",
        "  up   h1                       load  1.50",
        "  up   h2                       load   ?  ",
        "  busiest: h1(1.50), h0(0.50)",
    ]
    assert generate_gmetad_pages(daemon, tmp_path) == 5
    cluster_page = pathlib.Path(tmp_path / "cluster-meteor.html").read_text()
    assert "<td>h2</td><td>up</td><td></td><td>4</td>" in cluster_page
    assert 'VAL="x"' in daemon.serve_query("/meteor/h2/load_one")[0]
