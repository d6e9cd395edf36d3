"""Build one workload, run its cycles, return what was measured.

Run shape (all workloads).  A *cycle* is one 15 sim-s refresh interval:
``engine.run_for(15.0)`` timed with ``perf_counter``, then -- engine
paused -- the workload's view mix as direct, individually timed
closed-loop calls.  Churn, marker writes and pre-encoding of the
pseudo-gmond replies happen between cycles, outside both timed regions,
so the numbers measure the monitor and not the load generator; the
generator's time is reported as a layer metric.

Every number is either **host** time (``perf_counter``: what an
optimisation moves; set-up, cycle and view timings are reported at
reference speed, see :class:`HostSpeed`) or **sim** time / CPU (the
modelled federation: deterministic per seed, what a wall-clock-only
change must leave identical).
"""

from __future__ import annotations

import gc
import random
import re
import resource
import time
from collections import defaultdict
from dataclasses import dataclass, field
from statistics import fmean as mean
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional

from checks import (
    Tally,
    check_binary_view,
    check_materializations,
    check_replica_identity,
    check_root_fold,
    check_staleness,
    served_digest,
)
from workloads import PERIOD_CYCLES, Workload

REFRESH = 15.0
#: pseudo-gmonds never re-draw on their own: the harness owns churn
NEVER = 1e18
BOUNDARY_OFFSET = 2.25
#: warm-up is at least three cycles: on a workload with a read tier
#: the last of them is the cycle the replicas sync in
WARMUP_CYCLES = 3
MAX_SYNC_CYCLES = 4
#: with the last measured cycle that is four cycles after the last
#: write, so every hop of the tree has re-polled
QUIESCE_CYCLES = 3
#: the paper's staleness guarantee: nothing older than this unmarked
STALE_LIMIT = 4 * REFRESH

#: the staircase rides a small-range integer metric, so one marker
#: host's step ``k * MARKER_BASE`` stays readable inside a summary SUM
#: over 10^4 ordinary hosts (32 * 10^4 < MARKER_BASE)
MARKER_METRIC = "proc_run"
MARKER_BASE = 1_000_000
PROBE_HOST = "bench-probe"
PROBE_PERIOD = 1.0
VIEW_MARKERS_PER_CLUSTER = 6

#: views per timed batch: a meta, host or metric-path view takes about
#: ten microseconds, a batch a few milliseconds
META_BATCH_SIZE = 200
HOST_BATCH_SIZE = 400
PATH_BATCH_SIZE = 200
#: no view sample is further than this (plus its own length) from the
#: two host-speed readings that bracket it: the host's speed wanders
#: within a 1 s view mix, and a cycle's views all read 20 % high or low
#: together when only the ends of the mix are read
READING_EVERY_S = 0.1

_CAL_TEXT = (
    '<METRIC NAME="load_one" VAL="1.23" TYPE="float" UNITS="" TN="3" TMAX="70"'
    ' DMAX="0" SLOPE="both" SOURCE="gmond"/>\n'
) * 9000
_CAL_RE = re.compile(r'<METRIC NAME="([^"]+)" VAL="([^"]+)" TYPE="([^"]+)"')
#: the speed host timings are reported at: the one at which a pass of
#: the reference kernel takes this long.  It has to be a constant.  Most
#: of what the division removes is the host staying slow for a whole
#: run, and a nominal time calibrated inside the run is slow with it:
#: over ten seeds per workload ``cycle_wall_ms_mean`` spread by 0.04-0.11
#: with the constant, 0.24-0.38 as the clock read it, and 0.28-0.51,
#: 0.13-0.16 or 0.25-0.42 with the first, the least or the median reading
#: of the run as the nominal time (out/host-speed-evidence.json).  Any
#: value gives the same ratios between two commits on one machine; this
#: one is the kernel's time on a 2-vCPU sandbox with nothing contending,
#: so the figures read as that box's milliseconds.
REFERENCE_NOMINAL_MS = 13.0


def reference_kernel() -> float:
    """Milliseconds for a fixed mix of the interpreter work a monitor does."""
    import numpy as np

    begin = perf_counter()
    totals: Dict[str, float] = {}
    for name, value, _ in _CAL_RE.findall(_CAL_TEXT):
        totals[name] = totals.get(name, 0.0) + float(value)
    "".join([_CAL_TEXT[i:i + 96] for i in range(0, len(_CAL_TEXT), 96)])
    column = np.arange(300_000, dtype=float)
    (column * 1.0001).sum()
    np.unique(column.astype(np.int64) % 1000)
    return 1000.0 * (perf_counter() - begin)


class HostSpeed:
    """How much slower than nominal the host is running, read on demand.

    The sandbox runs identical work up to two thirds slower from one
    stretch of seconds to the next, and for whole runs.  A reading is
    the median of a few passes of a fixed reference kernel (the first,
    cache-cold pass is dropped) over its nominal time; every timed
    sample is divided by the mean of the readings taken just before and
    just after it, which reports the sample at reference speed.  The
    clock's own readings are reported beside every such figure.
    """

    PASSES = 4

    def __init__(self) -> None:
        self.readings: List[float] = []
        self.last = self.read()
        self._mark = perf_counter()

    def read(self) -> float:
        passes = [reference_kernel() for _ in range(self.PASSES)]
        slowdown = median(passes[1:]) / REFERENCE_NOMINAL_MS
        self.readings.append(slowdown)
        return slowdown

    def lap(self) -> tuple:
        """Seconds since the previous lap ended (or since construction):
        as the clock read them, and at reference speed.  Takes a reading;
        the reading's own time belongs to no lap."""
        clock_s = perf_counter() - self._mark
        ahead, self.last = self.last, self.read()
        self._mark = perf_counter()
        return clock_s, clock_s / (0.5 * (ahead + self.last))


_VAL_RE = re.compile(r' VAL="(\d+)"')
_SUM_RE = re.compile(rf'<METRICS NAME="{MARKER_METRIC}" SUM="([^"]+)"')


@dataclass
class ViewMarker:
    """One marker host probed through the viewer-facing endpoint."""

    path: str
    phase: float
    pending: Dict[int, float] = field(default_factory=dict)
    active: bool = False


@dataclass
class RootMarker:
    """One summary element of the top daemon covering marker hosts."""

    path: str
    markers: int
    pending: Dict[int, float] = field(default_factory=dict)


class World:
    """One built workload: the federation and everything driving it."""

    def __init__(self, spec: Workload, seed: int, quick: bool) -> None:
        from repro import (
            ObservabilityConfig,
            ResilienceConfig,
            StorageTierConfig,
            build_paper_tree,
        )
        from repro.analytics.config import AnalyticsConfig

        self.spec = spec
        self.seed = seed
        self.rng = random.Random(seed)
        self.hosts = spec.hosts(quick)
        gates = dict(
            incremental=True,
            columnar=True,
            columnar_serve=True,
            binary_wire=spec.binary_wire,
            resilience=ResilienceConfig(),
            observability=ObservabilityConfig(),
        )
        if spec.all_on:
            gates.update(
                # one rebalance sweep per 60 sim-s period, like the RRAs
                storage_tier=StorageTierConfig(
                    replication=2, rebalance_interval=4 * REFRESH
                ),
                analytics=AnalyticsConfig(),
            )
        self.fed = build_paper_tree(
            "nlevel",
            hosts_per_cluster=self.hosts,
            seed=seed,
            archive_mode=spec.archive_mode,
            attachment=spec.attachment,
            trust_edges=spec.trust_edges,
            refresh_interval=NEVER,
            **gates,
        )
        self.engine = self.fed.engine
        self.top = self.fed.gmetad(spec.top)
        self.edge = self.fed.gmetad(spec.edge)
        self.edge_clusters = sorted(
            name for name in self.fed.pseudos if name.startswith(f"{spec.edge}-c")
        )
        self.tier = None
        self.fleet = None
        self.alarms = None
        #: daemons the direct views are issued against
        self.servers: List[object] = [self.edge]
        self.viewer_address = self.edge.address
        self.fed.fabric.add_host(PROBE_HOST)
        if spec.all_on:
            self._attach_alarms()
        self._place_markers()
        self.fed.start()

    # -- assembly ----------------------------------------------------------

    def _attach_alarms(self) -> None:
        """Value, anomaly and predictive rules on one leaf daemon.

        The alarm engine resolves its selectors on the DOM, so it lives
        on a daemon no viewer reaches: the serve tier's
        zero-materialization invariant stays checkable.
        """
        from repro.core.alarms import AlarmEngine, AlarmRule

        daemon = self.fed.gmetad("physics")
        self.alarms = AlarmEngine(daemon, interval=REFRESH)
        self.alarms.add_rule(
            AlarmRule("load-high", r"~/physics-c0/.*/load_one", ">", 15.5)
        )
        self.alarms.add_rule(
            AlarmRule(
                "cpu-anomaly", r"~/physics-c1/.*/cpu_user", ">", 4.0,
                kind="anomaly",
            )
        )
        self.alarms.add_rule(
            AlarmRule(
                "load-trend", r"~/physics-c2/.*/load_five", ">", 15.9,
                kind="predict_cross", within_seconds=4 * REFRESH,
            )
        )
        self.alarms.start()

    def attach_read_tier(self) -> None:
        """Two columnar-serve replicas, the front door and the fleet."""
        from repro.readtier.config import ReadTierConfig
        from repro.readtier.fleet import (
            ViewerFleet,
            build_read_tier,
            viewer_paths,
        )

        fed = self.fed
        self.tier = build_read_tier(
            self.engine, fed.fabric, fed.tcp, self.edge,
            config=ReadTierConfig(
                replicas=2, columnar_serve=True, binary_feed=True
            ),
        )
        self.servers = list(self.tier.replicas)
        self.viewer_address = self.tier.address
        self.fleet = ViewerFleet(
            self.engine, fed.fabric, fed.tcp, self.tier.address,
            viewer_paths(self.edge), clients=6000, per_client_qps=1.0 / 300.0,
            seed=self.seed, accept_binary=True,
        ).start()

    def _place_markers(self) -> None:
        spec = self.spec
        hosts = self.hosts
        self.marker_hosts: Dict[str, List[int]] = {}
        self.view_markers: List[ViewMarker] = []
        self.root_markers: List[RootMarker] = []
        for cluster in self.edge_clusters:
            count = min(VIEW_MARKERS_PER_CLUSTER, hosts)
            indices = sorted({(j * hosts) // count for j in range(count)})
            self.marker_hosts[cluster] = indices
            # stratified phases: one seeded offset per cluster, the
            # markers spread evenly over the probe period behind it, so
            # the delay quantiles barely depend on which phases a seed
            # happened to draw
            offset = self.rng.random()
            for j, index in enumerate(indices):
                self.view_markers.append(
                    ViewMarker(
                        path=f"/{cluster}/{cluster}-0-{index}/{MARKER_METRIC}",
                        phase=((offset + j / len(indices)) % 1.0) * PROBE_PERIOD,
                    )
                )
        if spec.top == spec.edge:
            for cluster in self.edge_clusters:
                self.root_markers.append(
                    RootMarker(
                        f"/{cluster}?filter=summary",
                        len(self.marker_hosts[cluster]),
                    )
                )
        else:
            tree = self.fed.tree
            for name in sorted(self.fed.gmetads):
                cluster = f"{name}-c0"
                if cluster not in self.fed.pseudos:
                    continue
                if name == spec.edge:
                    markers = len(self.marker_hosts[cluster])
                else:
                    self.marker_hosts[cluster] = [0]
                    markers = 1
                # the deepest element of the top daemon's datastore that
                # still covers the cluster: the cluster itself when its
                # gmetad reports straight to the top, else that gmetad's
                # grid nested in the top's source
                parent = tree.parent(name)
                if parent == spec.top:
                    path = f"/{name}/{cluster}"
                else:
                    path = f"/{parent}/{name.upper()}"
                self.root_markers.append(
                    RootMarker(f"{path}?filter=summary", markers)
                )
        self.root_phase = self.rng.random() * PROBE_PERIOD




class Staircase:
    """Sample-to-viewer and sample-to-root delays, in sim seconds.

    Between cycles the driver writes step ``k`` (a strictly increasing
    value) into the marker metric of every marker host.  A 1 sim-s probe
    per marker, each with its own seeded phase, asks the viewer-facing
    endpoint for ``/cluster/host/metric`` over the simulated network;
    the delay of step ``k`` is the arrival time of the first reply that
    carries it minus the time it was written.  A second 1 sim-s probe
    reads the top daemon's summary SUM for the deepest element covering
    each marked cluster.
    """

    def __init__(self, world: World) -> None:
        self.world = world
        self.engine = world.engine
        self.first_measured_step: Optional[int] = None
        self.view_delays: List[float] = []
        self.root_delays: List[float] = []
        self.probes_sent = 0
        self.probe_errors = 0
        #: how far each replica's installed view trails the ingest
        #: daemon, sampled on the root probe's 1 sim-s tick
        self.lag_samples: List[float] = []
        self._generation_seen: Dict[int, float] = {}
        self._root_task = None

    def start(self) -> None:
        self._root_task = self.engine.every(
            PROBE_PERIOD, self._root_tick, initial_delay=self.world.root_phase
        )

    def stop(self) -> None:
        """Stop the root probe; view probes end with their last step."""
        if self._root_task is not None:
            self._root_task.stop()

    def write_step(self, step: int) -> None:
        """Write one staircase step; the engine is paused."""
        world = self.world
        now = self.engine.now
        value = step * MARKER_BASE
        for cluster, indices in world.marker_hosts.items():
            world.fed.pseudos[cluster].set_metric_values(
                {index: {MARKER_METRIC: value} for index in indices}, now
            )
        for marker in world.root_markers:
            marker.pending[step] = now
        for marker in world.view_markers:
            marker.pending[step] = now
            if not marker.active:
                marker.active = True
                self.engine.call_later(marker.phase, self._view_tick, marker)

    def _record(self, delays: List[float], pending: Dict[int, float], seen: int):
        now = self.engine.now
        for step in [s for s in pending if s <= seen]:
            written = pending.pop(step)
            if (
                self.first_measured_step is not None
                and step >= self.first_measured_step
            ):
                delays.append(now - written)

    def _view_tick(self, marker: ViewMarker) -> None:
        if not marker.pending:
            marker.active = False
            return
        # before the window the endpoint may not hold the host yet
        measuring = self.first_measured_step is not None
        self.probes_sent += measuring

        def on_response(payload: object, rtt: float) -> None:
            text = payload if isinstance(payload, str) else getattr(payload, "xml", "")
            match = _VAL_RE.search(text or "")
            if match is None:
                self.probe_errors += measuring
                return
            self._record(
                self.view_delays, marker.pending, int(match.group(1)) // MARKER_BASE
            )

        def on_timeout(error) -> None:
            self.probe_errors += measuring

        self.world.fed.tcp.request(
            PROBE_HOST, self.world.viewer_address, marker.path,
            on_response=on_response, timeout=5.0, on_timeout=on_timeout,
            request_size=len(marker.path),
        )
        self.engine.call_later(PROBE_PERIOD, self._view_tick, marker)

    def _sample_replica_lag(self) -> None:
        tier = self.world.tier
        if tier is None or self.first_measured_step is None:
            return
        now = self.engine.now
        seen = self._generation_seen
        seen.setdefault(self.world.edge.datastore.generation, now)
        held = [r.ingest_versions[0] for r in tier.replicas if r.ingest_versions]
        for generation in held:
            newer = [t for g, t in seen.items() if g > generation]
            self.lag_samples.append(now - min(newer) if newer else 0.0)
        for generation in [g for g in seen if g <= min(held, default=0)]:
            del seen[generation]

    def _root_tick(self) -> None:
        self._sample_replica_lag()
        top = self.world.top
        for marker in self.world.root_markers:
            if not marker.pending:
                continue
            xml, _ = top.serve_query(marker.path)
            match = _SUM_RE.search(xml)
            if match is None:
                continue  # element not reported yet
            seen = int(float(match.group(1))) // MARKER_BASE // marker.markers
            self._record(self.root_delays, marker.pending, seen)

    def undetected(self) -> int:
        """Measured steps never seen by a probe (each is a failure)."""
        first = self.first_measured_step or 0
        markers = self.world.view_markers + self.world.root_markers
        return sum(
            1 for marker in markers for step in marker.pending if step >= first
        )


class Churn:
    """Re-draws a fixed fraction of each cluster's hosts between cycles."""

    def __init__(self, world: World) -> None:
        self.world = world
        self.rng = random.Random(world.seed ^ 0x43485552)
        self.candidates: Dict[str, List[int]] = {}
        for cluster, pseudo in world.fed.pseudos.items():
            markers = set(world.marker_hosts.get(cluster, ()))
            self.candidates[cluster] = [
                i for i in range(pseudo.num_hosts) if i not in markers
            ]

    def apply(self) -> int:
        """One round of churn on every cluster; returns hosts touched."""
        touched = 0
        fraction = self.world.spec.churn
        now = self.world.engine.now
        for cluster in sorted(self.candidates):
            pool = self.candidates[cluster]
            count = int(round(fraction * len(pool)))
            if count >= len(pool):
                picks = pool
            else:
                picks = self.rng.sample(pool, count)
            touched += self.world.fed.pseudos[cluster].mutate(hosts=picks, now=now)
        return touched


def pre_encode(world: World) -> None:
    """Have every pseudo-gmond render the reply its next poll will get."""
    for pseudo in world.fed.pseudos.values():
        if world.spec.binary_wire:
            pseudo.current_frame()
        else:
            pseudo.current_xml()


# -- counters ----------------------------------------------------------------

SIM_CPU_CATEGORIES = (
    "parse", "serve", "summarize", "archive", "query", "network",
    "analytics", "other",
)
_WIRE_COUNTERS = ("ingest_bytes_in", "push_bytes_out", "serve_bytes_out")


def cpu_accounts(world: World) -> Dict[str, object]:
    """Every simulated CPU account of the federation, by name."""
    accounts = {name: g.cpu for name, g in world.fed.gmetads.items()}
    if world.tier is not None:
        for replica in world.tier.replicas:
            accounts[replica.name] = replica.cpu
        accounts["frontdoor"] = world.tier.frontdoor.cpu
    return accounts


def poll_failures(world: World) -> Dict[tuple, int]:
    """Cumulative failed polls (timeouts and bad payloads) per link."""
    return {
        (name, source): poller.polls - poller.successes + poller.bad_payloads
        for name, gmetad in world.fed.gmetads.items()
        for source, poller in gmetad.pollers.items()
    }


def snapshot(world: World) -> Dict[str, float]:
    """Cumulative counters; window figures are differences of two."""
    fed = world.fed
    out: Dict[str, float] = defaultdict(float)
    out["sim.now"] = world.engine.now
    out["sim.events"] = world.engine.processed_events
    out["tcp.requests"] = fed.tcp.requests_sent
    for name, cpu in cpu_accounts(world).items():
        out[f"busy.{name}"] = cpu.total_busy_seconds
        for category, seconds in cpu.window.by_category.items():
            out[f"simcpu.{category}"] += seconds
    for gmetad in fed.gmetads.values():
        store = gmetad.rrd_store
        if getattr(store, "is_storage_tier", False):
            # storage nodes keep their own clocks; their work is archive work
            out["simcpu.archive"] += store.total_node_seconds()
        out["rrd.updates"] += store.update_count
        out["frame_errors"] += gmetad.frame_errors
        for poller in gmetad.pollers.values():
            out["polls.sent"] += poller.polls
            out["polls.ok"] += (
                poller.successes - poller.not_modified - poller.bad_payloads
            )
            out["polls.not_modified"] += poller.not_modified
            out["polls.breaker_skips"] += poller.polls_skipped
        # read-only: asking the registry for a counter by name would
        # create it, and a new instrument changes the served self-cluster
        registry = gmetad.obs.registry.snapshot()
        for counter in _WIRE_COUNTERS:
            out[f"wire.{counter}"] += registry.get(counter, 0.0)
        out["ingest_bytes_binary"] += registry.get("ingest_bytes_in_binary", 0.0)
        out["obs.spans_dropped"] += gmetad.obs.trace.dropped
    out["polls.failed"] = sum(poll_failures(world).values())
    out["materializations"] = sum(
        s.datastore.materializations for s in world.servers
    )
    for server in {id(s): s for s in [world.edge, *world.servers]}.values():
        for source in server.datastore.sources.values():
            arena = source.arena
            if arena is not None:
                out["arena.hits"] += arena.frag_hits
                out["arena.misses"] += arena.frag_misses
                out["arena.invalidations"] += arena.frag_invalidations
    if world.tier is not None:
        door = world.tier.frontdoor
        out["door.requests_routed"] = door.requests_routed
        out["door.hedges_fired"] = door.hedges_fired
        out["door.failovers"] = door.failovers
        out["door.exhausted"] = door.exhausted
        stats = world.tier.broker.stats()
        out["broker.deltas"] = stats["deltas_sent"]
        out["broker.full_syncs"] = stats["full_syncs_sent"]
        out["broker.push_bytes"] = stats["bytes_pushed"]
        # the delta engine flattens the ingest daemon's datastore on
        # every publish, which builds the DOM the serve path avoids
        out["broker.materializations"] = world.edge.datastore.materializations
    if world.spec.all_on:
        out["analytics.passes"] = sum(
            g.analytics.passes for g in fed.gmetads.values()
        )
    return out


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * fraction // 1))
    return ordered[min(len(ordered), int(rank)) - 1]


# -- faults --------------------------------------------------------------------


def apply_faults(world: World, window_cycles: int) -> Dict[str, set]:
    """Arm the fault schedule of the all-on workload at the window start.

    One link-corruption epoch, one gmond endpoint flap, one storage-node
    kill + restart and one replica outage; at most one active at a time
    and all healed two cycles before the window ends.  Returns the
    (gmetad -> sources) whose polls the schedule is allowed to fail.
    """
    from repro import FaultEvent, FaultInjector, FaultSchedule

    unit = (window_cycles - 2) * REFRESH / 90.0
    replica = world.tier.replicas[-1]
    schedule = FaultSchedule([
        FaultEvent(
            at=5 * unit, action="corrupt", duration=20 * unit, probability=1.0,
            group_a=[world.edge.config.host], group_b=["pgmond-sdsc-c1"],
        ),
        FaultEvent(
            at=30 * unit, action="flap", host="pgmond-math-c1",
            period=3600.0, down_fraction=12 * unit / 3600.0,
        ),
        FaultEvent(at=47 * unit, action="storage_kill", host="st01",
                   duration=18 * unit),
        FaultEvent(at=70 * unit, action="crash", host=replica.host,
                   duration=15 * unit),
    ])
    injector = FaultInjector(world.engine, world.fed.fabric)
    for gmetad in world.fed.gmetads.values():
        injector.register_storage_tier(gmetad.rrd_store)
    schedule.apply(injector)
    return {"sdsc": {"sdsc-c1"}, "math": {"math-c1"}}


# -- the view mix ----------------------------------------------------------------


class Views:
    """Direct closed-loop views against the serving daemons, timed one by one."""

    KINDS = ("meta", "cluster", "cluster_bin", "host", "path")

    def __init__(self, world: World, tally, speed: HostSpeed) -> None:
        self.world = world
        self.tally = tally
        self.speed = speed
        self.rng = random.Random(world.seed ^ 0x56494557)
        #: ms per view as timed, and the same at reference speed
        self.raw: Dict[str, List[float]] = {kind: [] for kind in self.KINDS}
        self.samples: Dict[str, List[float]] = {kind: [] for kind in self.KINDS}
        self.sim_ms: List[float] = []
        self.calls = 0
        self.identity_compares = 0
        #: (kind, ms per view) timed since the last host-speed reading
        self._pending: List[tuple] = []
        self._ahead = 1.0
        self._read_at = 0.0

    def _fold(self) -> None:
        """Read the host's speed; report the samples timed since the last
        reading at reference speed."""
        now = self.speed.read()
        slowdown = 0.5 * (self._ahead + now)
        for kind, ms in self._pending:
            self.raw[kind].append(ms)
            self.samples[kind].append(ms / slowdown)
        self._pending.clear()
        self._ahead = now
        self._read_at = perf_counter()

    def _timed(self, kind: str, server, call, requests: List[str], record: bool):
        """Issue ``requests`` back to back; one sample = mean ms per view."""
        if record and perf_counter() - self._read_at >= READING_EVERY_S:
            self._fold()  # an output check ran since the last reading
        replies = []
        start = perf_counter()
        try:
            for request in requests:
                replies.append(call(request))
        except Exception as exc:  # a view that raises is a failed operation
            self.tally.record("view_raised", False, f"{kind} {request}: {exc!r}")
            return None
        end = perf_counter()
        if record:
            self._pending.append((kind, 1000.0 * (end - start) / len(requests)))
            # one modelled-latency sample per batch too: per call, the
            # percentiles would all land on the constant host-view cost
            self.sim_ms.append(
                1000.0 * sum(reply[1] for reply in replies) / len(replies)
            )
            if end - self._read_at >= READING_EVERY_S:
                self._fold()
        self.calls += len(requests)
        return replies

    def _host_paths(self, count: int, suffix: str = "") -> List[str]:
        """``count`` seeded picks of ``/cluster/host`` on the edge daemon."""
        paths = []
        for _ in range(count):
            name = self.rng.choice(self.world.edge_clusters)
            index = self.rng.randrange(self.world.hosts)
            paths.append(f"/{name}/{name}-0-{index}{suffix}")
        return paths

    def run(self, cycle: int, record: bool, ahead: float = 1.0) -> None:
        """One view mix; ``ahead`` is the host-speed reading just taken."""
        self._ahead = ahead
        self._read_at = perf_counter()
        world = self.world
        mix = world.spec.views
        clusters = world.edge_clusters
        deep_check = cycle % PERIOD_CYCLES == 0
        for server in world.servers:
            kept: Dict[str, str] = {}
            for _ in range(mix.meta_batches):
                replies = self._timed(
                    "meta", server, server.serve_query,
                    ["/?filter=summary"] * META_BATCH_SIZE, record,
                )
                if replies:
                    kept["/?filter=summary"] = replies[-1][0]
                    self.tally.record(
                        "view_meta", "<GRID NAME=" in replies[-1][0],
                        "meta view carries no GRID",
                    )
            xml_by_cluster: Dict[str, str] = {}
            for i in range(mix.cluster):
                name = clusters[(cycle * mix.cluster + i) % len(clusters)]
                replies = self._timed(
                    "cluster", server, server.serve_query, [f"/{name}"], record
                )
                if replies:
                    xml = replies[0][0]
                    xml_by_cluster[name] = xml
                    ok = f'<CLUSTER NAME="{name}"' in xml[:400]
                    if ok and deep_check and i == 0:
                        ok = xml.count("<HOST ") == world.hosts
                    self.tally.record(
                        "view_cluster", ok, f"/{name} is not the full cluster"
                    )
            if xml_by_cluster:
                first = next(iter(xml_by_cluster))
                kept[f"/{first}"] = xml_by_cluster[first]
            for i in range(mix.cluster_bin):
                name = clusters[(cycle * mix.cluster + i) % len(clusters)]
                replies = self._timed(
                    "cluster_bin", server, server.serve_binary, [f"/{name}"],
                    record,
                )
                if replies is None:
                    continue
                if replies[0] is None:
                    self.tally.record(
                        "view_cluster_bin", False, f"/{name} declined binary"
                    )
                elif deep_check and i == 0 and name in xml_by_cluster:
                    check_binary_view(
                        self.tally, server, f"/{name}", replies[0][0],
                        xml_by_cluster[name],
                    )
                else:
                    self.tally.record("view_cluster_bin", True)
            xml_by_cluster.clear()
            for _ in range(mix.host_batches):
                requests = self._host_paths(HOST_BATCH_SIZE)
                replies = self._timed(
                    "host", server, server.serve_query, requests, record
                )
                if replies:
                    host = requests[-1].rsplit("/", 1)[1]
                    kept[requests[-1]] = replies[-1][0]
                    self.tally.record(
                        "view_host", f'<HOST NAME="{host}"' in replies[-1][0],
                        f"{requests[-1]} carries no such host",
                    )
            for _ in range(mix.path_batches):
                requests = self._host_paths(PATH_BATCH_SIZE, "/load_one")
                replies = self._timed(
                    "path", server, server.serve_query, requests, record
                )
                if replies:
                    self.tally.record(
                        "view_path", '<METRIC NAME="load_one"' in replies[-1][0],
                        f"{requests[-1]} carries no such metric",
                    )
            if world.tier is not None:
                self.identity_compares += check_replica_identity(
                    self.tally, world, server, kept
                )
        if self._pending:
            self._fold()


# -- one run ---------------------------------------------------------------------


def run_workload(
    spec: Workload,
    seed: int,
    seconds: float,
    started: float,
    recorder=None,
    quick: bool = False,
) -> dict:
    """Build ``spec``, warm it up, measure whole periods, check outputs.

    ``started`` is the ``time.time()`` the benchmark process began at, so
    set-up includes interpreter start and imports; it ends where the
    measured window begins and leaves out the host-speed readings.  With
    a ``recorder`` (the traced run) measured cycles are stamped onto its
    spans.
    """
    tally = Tally()
    # interpreter start and imports, before any reading could be taken,
    # are put at the speed of the first one
    setup_clock_s = time.time() - started
    speed = HostSpeed()
    setup_s = setup_clock_s / speed.last
    phases: Dict[str, float] = {}
    mark = perf_counter()

    def phase(name: str) -> None:
        nonlocal mark
        now = perf_counter()
        phases[name] = phases.get(name, 0.0) + now - mark
        mark = now

    def setup_lap() -> None:
        nonlocal setup_clock_s, setup_s
        clock_s, reference_s = speed.lap()
        setup_clock_s += clock_s
        setup_s += reference_s

    world = World(spec, seed, quick)
    setup_lap()
    phase("build")
    engine = world.engine
    churn = Churn(world)
    stairs = Staircase(world)
    views = Views(world, tally, speed)
    measured = spec.measured_cycles(seconds, quick)
    generate_s: List[float] = []
    step = 0

    def between_cycles(record: bool) -> None:
        nonlocal step
        begin = perf_counter()
        churn.apply()
        step += 1
        stairs.write_step(step)
        pre_encode(world)
        if record:
            generate_s.append(perf_counter() - begin)
        gc.collect()

    # warm-up: first polls, interning, caches; then the read tier syncs.
    # Cycle boundaries sit off the 15 s grid every periodic task runs on
    # (pollers, self-cluster refresh, alarms), so the views and checks
    # made while the engine is paused never race a publish in flight.
    stairs.start()
    engine.run_for(BOUNDARY_OFFSET)
    for _ in range(WARMUP_CYCLES - (1 if spec.read_tier else 0)):
        between_cycles(False)
        engine.run_for(REFRESH)
        setup_lap()
    phase("warm_up")
    if spec.read_tier:
        world.attach_read_tier()
        for _ in range(MAX_SYNC_CYCLES):
            between_cycles(False)
            engine.run_for(REFRESH)
            setup_lap()
            if world.tier.synced():
                break
        else:
            raise RuntimeError("read tier did not sync during warm-up")
    views.run(0, record=False)
    setup_lap()
    phase("read_tier_sync")
    if world.fleet is not None:
        world.fleet.take_window()
    excused = apply_faults(world, measured) if spec.all_on else {}

    # the measured window
    polls_failed_before = poll_failures(world)
    before = snapshot(world)
    stairs.first_measured_step = step + 1
    raw_cycle_ms: List[float] = []
    cycle_ms: List[float] = []
    for cycle in range(measured):
        between_cycles(True)
        speed.lap()  # a fresh reading; what ran since the last is not timed
        if recorder is not None:
            recorder.cycle = cycle
        engine.run_for(REFRESH)
        clock_s, reference_s = speed.lap()
        raw_cycle_ms.append(1000.0 * clock_s)
        cycle_ms.append(1000.0 * reference_s)
        views.run(cycle, record=True, ahead=speed.last)
        if recorder is not None:
            recorder.cycle = -1
        check_staleness(tally, world, STALE_LIMIT)
    phase("measured_window")
    after = snapshot(world)
    polls_failed_after = poll_failures(world)
    fleet_window = world.fleet.take_window() if world.fleet is not None else None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digest = served_digest(world)

    # quiesce: no churn, no viewers; every hop re-polls, then the root's
    # summaries must equal the fold of what the emulators hold
    if world.fleet is not None:
        world.fleet.stop()
    for _ in range(QUIESCE_CYCLES):
        engine.run_for(REFRESH)
    stairs.stop()
    phase("quiesce")
    check_root_fold(tally, world)
    check_materializations(tally, world)
    if spec.read_tier:
        tally.record(
            "replica_identity_reached", views.identity_compares > 0,
            "no replica ever matched the ingest daemon's version triple",
        )
    world.fed.stop()
    phase("final_checks")

    window = defaultdict(
        float, {key: after[key] - before.get(key, 0) for key in after}
    )
    unexpected = sum(
        polls_failed_after[link] - polls_failed_before[link]
        for link in polls_failed_after
        if link[1] not in excused.get(link[0], ())
    )
    late = [d for d in stairs.view_delays + stairs.root_delays if d > STALE_LIMIT]
    attempted = (
        tally.attempted + int(window["polls.sent"]) + views.calls
        + stairs.probes_sent
    )
    failures = {
        "checks": tally.failed,
        "polls_on_unfaulted_links": unexpected,
        "probe_errors": stairs.probe_errors,
        "steps_never_seen": stairs.undetected(),
        "steps_seen_late": len(late),
    }
    if fleet_window is not None:
        attempted += fleet_window.sent
        failures["fleet_timeouts"] = fleet_window.timeouts
        failures["fleet_overloaded"] = fleet_window.overloaded
        latencies_ms = [1000.0 * v for v in fleet_window.latencies]
    else:
        # no fleet: the modelled service time of the direct views stands
        # in for what a viewer waits on the daemon
        latencies_ms = views.sim_ms
    failed = sum(failures.values())

    cycles = float(measured)
    sim_cpu = sum(window[f"simcpu.{c}"] for c in SIM_CPU_CATEGORIES)
    leaves = [
        name for name in world.fed.gmetads
        if world.fed.tree.is_leaf_gmetad(name)
    ]
    span_s = window["sim.now"]
    result = {
        "workload": spec.name,
        "seed": seed,
        "quick": quick,
        "hosts": world.hosts * len(world.fed.pseudos),
        "measured_cycles": measured,
        "traced": recorder is not None,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_share": failed / attempted,
        "failed_by_kind": failures,
        "failures": tally.messages,
        "checks": tally.by_check,
        "served_digest": digest,
        "phases_s": phases,
        "generate_s": sum(generate_s),
        # host timings as the clock read them, before the division by
        # the host's measured slowdown
        "raw": {
            "setup_s": setup_clock_s,
            "cycle_wall_ms": raw_cycle_ms,
            "cycle_wall_ms_mean": mean(raw_cycle_ms),
            **{
                f"view_{kind}_wall_ms_p50": median(v)
                for kind, v in views.raw.items() if v
            },
            "host_slowdown_readings": speed.readings,
        },
        # the same samples one by one, at reference speed
        "at_reference_speed": {
            "cycle_wall_ms": cycle_ms,
            **{f"view_{kind}_wall_ms": v for kind, v in views.samples.items()},
        },
        "samples": {
            "cycles": len(cycle_ms),
            **{f"view_{kind}": len(v) for kind, v in views.raw.items()},
            "sample_to_viewer": len(stairs.view_delays),
            "sample_to_root": len(stairs.root_delays),
            "viewer_latency": len(latencies_ms),
        },
        "end_to_end": {
            "setup_s": setup_s,
            "cycle_wall_ms_mean": mean(cycle_ms),
            "view_meta_wall_ms_p50": median(views.samples["meta"]),
            "view_cluster_wall_ms_p50": median(views.samples["cluster"]),
            "view_host_wall_ms_p50": median(views.samples["host"]),
            "view_cluster_bin_wall_ms_p50": median(views.samples["cluster_bin"]),
            "peak_rss_mb": peak_rss_mb,
            "sample_to_viewer_sim_s_p50": median(stairs.view_delays),
            "sample_to_viewer_sim_s_p95": percentile(stairs.view_delays, 0.95),
            "sample_to_root_sim_s_p50": median(stairs.root_delays),
            "viewer_latency_sim_ms_mean": mean(latencies_ms),
            "viewer_latency_sim_ms_p99": percentile(latencies_ms, 0.99),
            "sim_cpu_s_per_cycle": sim_cpu / cycles,
            "wire_bytes_per_cycle": sum(
                window[f"wire.{c}"] for c in _WIRE_COUNTERS
            ) / cycles,
        },
        # counts and sim figures every run can report; the traced run
        # adds the host-time rows (see ledger.py)
        "counts": {
            "sim.engine.events_per_cycle": window["sim.events"] / cycles,
            "net.tcp.requests_per_cycle": window["tcp.requests"] / cycles,
            "gmond.pseudo.generate_ms": 1000.0 * sum(generate_s) / cycles,
            "core.poller.polls_ok": window["polls.ok"],
            "core.poller.polls_not_modified": window["polls.not_modified"],
            "core.poller.polls_failed": window["polls.failed"],
            "core.poller.breaker_skips": window["polls.breaker_skips"],
            "core.poller.not_modified_ratio": _ratio(
                window["polls.not_modified"],
                window["polls.ok"] + window["polls.not_modified"],
            ),
            "wire.binfmt.frame_errors": window["frame_errors"],
            "wire.binfmt.bytes_in": window["ingest_bytes_binary"] / cycles,
            "rrd.store.updates_per_cycle": window["rrd.updates"] / cycles,
            "serve.arena.frag_hit_ratio": _ratio(
                window["arena.hits"], window["arena.hits"] + window["arena.misses"]
            ),
            "serve.arena.frag_invalidations": window["arena.invalidations"],
            "serve.render.hosts_rendered": window["arena.misses"],
            "core.datastore.materializations": after["materializations"],
            "readtier.replica.generation_lag_sim_s": _ratio(
                sum(stairs.lag_samples), len(stairs.lag_samples)
            ),
            "pubsub.broker.deltas": window.get("broker.deltas", 0),
            "pubsub.broker.full_syncs": window.get("broker.full_syncs", 0),
            "pubsub.broker.push_bytes": window.get("broker.push_bytes", 0),
            "pubsub.broker.materializations": window.get(
                "broker.materializations", 0
            ),
            "readtier.frontdoor.requests_routed": window.get(
                "door.requests_routed", 0
            ),
            "readtier.frontdoor.hedges_fired": window.get("door.hedges_fired", 0),
            "readtier.frontdoor.failovers": window.get("door.failovers", 0),
            "readtier.frontdoor.exhausted": window.get("door.exhausted", 0),
            "obs.spans_dropped": window["obs.spans_dropped"],
            "analytics.engine.passes": window.get("analytics.passes", 0),
            **{
                f"simcpu.{c}_s": window[f"simcpu.{c}"] / cycles
                for c in SIM_CPU_CATEGORIES
            },
            "simcpu.root_pct": 100.0 * window[f"busy.{spec.top}"] / span_s,
            "simcpu.leaf_pct": 100.0 * sum(
                window[f"busy.{name}"] for name in leaves
            ) / (span_s * len(leaves)),
        },
    }
    return result


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
