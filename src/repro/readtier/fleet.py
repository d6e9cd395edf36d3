"""Tier assembly plus the simulated viewer fleet the benchmarks ramp.

:func:`build_read_tier` wires the whole serving tier onto one ingest
gmetad: enables the replication feed, attaches the pub-sub broker,
starts N :class:`~repro.readtier.replica.ReadReplica` processes and one
:class:`~repro.readtier.frontdoor.FrontDoor` over them.

:class:`ViewerFleet` models 10^4..10^6 concurrent web viewers without
10^6 simulator hosts: viewers are folded into a bounded set of
aggregator hosts (think campus NAT / proxy egress points), each running
an independent Poisson arrival process whose rate is its share of the
fleet's offered load.  Query targets are Zipf-skewed over the viewer
path catalog -- most viewers stare at the meta view and a few hot
clusters, a long tail drills into individual hosts -- matching the
paper's observation that "the web frontend is by far the most common
way Ganglia data is consumed".
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.resilience import Overloaded
from repro.net.address import Address
from repro.net.fabric import Fabric
from repro.net.tcp import TcpNetwork
from repro.readtier.config import ReadTierConfig
from repro.readtier.frontdoor import FrontDoor
from repro.readtier.replica import ReadReplica
from repro.sim.engine import Engine
from repro.sim.resources import DEFAULT_CAPACITY, CostModel
from repro.wire.binfmt import BinaryFrame, with_accept


@dataclass
class ReadTier:
    """One assembled read tier: ingest daemon, feed broker, replicas, door."""

    ingest: object
    broker: object
    replicas: List[ReadReplica]
    frontdoor: FrontDoor

    @property
    def address(self) -> Address:
        """Where viewers connect (the front door)."""
        return self.frontdoor.address

    def stop(self) -> None:
        """Tear the tier down, leaving the ingest daemon running."""
        self.frontdoor.stop()
        for replica in self.replicas:
            replica.stop()

    def synced(self) -> bool:
        """Whether every replica has installed a consistent generation."""
        return all(replica.synced for replica in self.replicas)


def build_read_tier(
    engine: Engine,
    fabric: Fabric,
    tcp: TcpNetwork,
    ingest,
    replicas: Optional[int] = None,
    config: Optional[ReadTierConfig] = None,
    broker=None,
    capacity: float = DEFAULT_CAPACITY,
    costs: Optional[CostModel] = None,
) -> ReadTier:
    """Stand up a read tier over one (started) ingest gmetad.

    The config is installed on ``ingest.config.read_tier`` *before* the
    broker attaches, because the broker decides at construction whether
    to export the replication feed.  Pass ``broker`` to reuse one
    attached earlier -- but it must have been attached with
    ``read_tier`` already set, or its delta engine has no feed.
    """
    cfg = config or getattr(ingest.config, "read_tier", None) or ReadTierConfig()
    ingest.config.read_tier = cfg
    count = replicas if replicas is not None else cfg.replicas
    if count < 1:
        raise ValueError("read tier needs at least one replica")
    if broker is None:
        broker = ingest.attach_pubsub()
    elif broker.feed is None:
        raise ValueError(
            "broker was attached before read_tier was configured"
        )
    fleet = [
        ReadReplica(
            engine,
            fabric,
            tcp,
            ingest,
            name=f"{ingest.config.name}-r{i + 1}",
            host=f"{ingest.config.host}-r{i + 1}",
            config=cfg,
            capacity=capacity,
            costs=costs,
        ).start()
        for i in range(count)
    ]
    frontdoor = FrontDoor(
        engine,
        fabric,
        tcp,
        host=f"{ingest.config.host}-frontdoor",
        replicas=fleet,
        config=cfg,
        costs=costs,
        capacity=capacity,
    ).start()
    return ReadTier(
        ingest=ingest, broker=broker, replicas=fleet, frontdoor=frontdoor
    )


def viewer_paths(
    daemon, per_source_hosts: int = 4
) -> List[str]:
    """The viewer query catalog, hottest first.

    Ordered the way a web frontend drives gmetad: the meta (grid
    summary) page first, then per-cluster summary pages, then
    per-cluster full views, then a sample of host drill-downs.  The
    Zipf skew in :class:`ViewerFleet` rides on this ordering.
    """
    paths: List[str] = ["/?filter=summary", "/"]
    names = daemon.datastore.source_names()
    for name in names:
        paths.append(f"/{name}?filter=summary")
    for name in names:
        paths.append(f"/{name}")
    for name in names:
        columns = daemon.datastore.sources[name].columns
        if columns is None:
            continue
        for host in sorted(columns.host_names)[:per_source_hosts]:
            paths.append(f"/{name}/{host}")
    return paths


class ZipfPicker:
    """Zipf(s) sampler over a ranked catalog (rank 1 = hottest)."""

    def __init__(self, count: int, s: float = 1.1) -> None:
        if count < 1:
            raise ValueError("need at least one item")
        self.s = s
        weights = [1.0 / (rank ** s) for rank in range(1, count + 1)]
        total = sum(weights)
        cumulative, running = [], 0.0
        for w in weights:
            running += w / total
            cumulative.append(running)
        cumulative[-1] = 1.0
        self._cumulative = cumulative

    def pick(self, rng: random.Random) -> int:
        """Sample a rank index (0-based)."""
        return bisect_left(self._cumulative, rng.random())


@dataclass
class FleetWindow:
    """Counters for one measurement window of the viewer fleet."""

    sent: int = 0
    ok: int = 0
    not_modified: int = 0
    overloaded: int = 0
    timeouts: int = 0
    binary: int = 0
    latencies: List[float] = field(default_factory=list)

    def percentile(self, fraction: float) -> float:
        """Latency percentile over completed (non-shed) requests."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        index = min(
            len(ordered) - 1, max(0, int(fraction * len(ordered)) - 1)
        )
        return ordered[index]


class ViewerFleet:
    """A population of web viewers folded into aggregator hosts."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        tcp: TcpNetwork,
        target: Address,
        paths: List[str],
        clients: int,
        per_client_qps: float = 0.02,
        zipf_s: float = 1.1,
        aggregators: int = 64,
        seed: int = 99,
        request_timeout: float = 10.0,
        accept_binary: bool = False,
    ) -> None:
        if clients < 1:
            raise ValueError("need at least one client")
        if not paths:
            raise ValueError("need a non-empty path catalog")
        self.engine = engine
        self.tcp = tcp
        self.target = target
        self.paths = paths
        self.clients = clients
        self.per_client_qps = per_client_qps
        self.request_timeout = request_timeout
        #: offer ``accept=bin1`` on every query: a columnar-serve
        #: replica answers eligible detail queries with a GBF1 frame,
        #: everything else falls back to XML transparently
        self.accept_binary = accept_binary
        self.aggregators = min(aggregators, clients)
        self.hosts = [f"viewer-{i:03d}" for i in range(self.aggregators)]
        for host in self.hosts:
            if not fabric.has_host(host):
                fabric.add_host(host)
        self._picker = ZipfPicker(len(paths), zipf_s)
        self._rng = random.Random(seed)
        self.window = FleetWindow()
        self.running = False

    @property
    def offered_qps(self) -> float:
        """The fleet's aggregate offered load."""
        return self.clients * self.per_client_qps

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ViewerFleet":
        """Arm one Poisson arrival process per aggregator."""
        if self.running:
            raise RuntimeError("fleet already running")
        self.running = True
        rate = self.offered_qps / self.aggregators
        for host in self.hosts:
            # desynchronized first arrivals: each aggregator starts at
            # an independent exponential offset
            self.engine.call_later(
                self._rng.expovariate(rate), self._tick, host, rate
            )
        return self

    def stop(self) -> None:
        self.running = False

    def take_window(self) -> FleetWindow:
        """Sample-and-reset the measurement counters."""
        window, self.window = self.window, FleetWindow()
        return window

    # -- arrivals ----------------------------------------------------------

    def _tick(self, host: str, rate: float) -> None:
        if not self.running:
            return
        self._fire(host)
        self.engine.call_later(
            self._rng.expovariate(rate), self._tick, host, rate
        )

    def _fire(self, host: str) -> None:
        path = self.paths[self._picker.pick(self._rng)]
        if self.accept_binary:
            path = with_accept(path)
        window = self.window
        window.sent += 1
        started = self.engine.now

        def on_response(payload: object, rtt: float) -> None:
            if isinstance(payload, Overloaded):
                window.overloaded += 1
                return
            if isinstance(payload, BinaryFrame):
                window.binary += 1
            window.ok += 1
            window.latencies.append(self.engine.now - started)

        def on_timeout(error) -> None:
            window.timeouts += 1

        self.tcp.request(
            host,
            self.target,
            path,
            on_response=on_response,
            timeout=self.request_timeout,
            on_timeout=on_timeout,
            request_size=len(path),
        )
