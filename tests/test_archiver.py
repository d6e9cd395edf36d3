"""The archiver's one write path, held to the per-key loop it replaced.

Every archive write is a column-plan scatter: detail binds one plan per
(source, cluster, layout), a summary one per (source, cluster, metric
layout) over the interleaved ``name``, ``name.num`` keys, and replay
re-scatters what the source's last archived poll wrote.  The oracle
below is the per-key loop the scatters replaced -- detail walked off
the element tree, two writes per reduced metric, replay key by key --
writing each key alone through a one-key plan.  Hypothesis drives both
over the same polls (layout changes, hosts going down, metrics
appearing and vanishing from a summary, clusters leaving a source,
NOT-MODIFIED replays, ``forget``) into each kind of store, and every
observable must match: per-key ``fetch``/``latest``/``updates``, update
counts, archive charges and flush announcements, ``keys()`` and the
``window_readout`` key order.

The two failing-first regressions live here too: a cluster that leaves
a grid source is no longer replayed, and ``updates_lost`` counts keys.
"""

from __future__ import annotations

import copy
import math
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.topology import build_paper_tree
from repro.columnar import InternPool, columns_from_cluster
from repro.core.archiver import Archiver
from repro.metrics.types import MetricType
from repro.rrd.database import compact_rra_specs
from repro.rrd.store import SUMMARY_HOST, MetricKey, RrdStore
from repro.sim.engine import Engine
from repro.sim.resources import CostModel
from repro.storage import StorageTier, StorageTierConfig
from repro.wire.model import (
    ClusterElement,
    HostElement,
    MetricElement,
    MetricSummary,
    SummaryInfo,
)
from tests.helpers import summary_of

HEARTBEAT = 80.0
SOURCES = ("a", "b")
CLUSTERS = ("c0", "c1", "c2")
HOSTS = ("h0", "h1", "h2")
METRICS = ("m0", "m1", "m2", "m3")
COSTS = CostModel()


class PerKeyArchiver:
    """The per-key archive loop, kept as the oracle.

    Detail walks the element tree, a summary writes ``name`` then
    ``name.num`` per metric, and replay re-writes the held pairs one
    key at a time.  Each write is a one-key plan scatter, the finest
    write the store surface has.  A source's held set is what its last
    archived poll wrote.
    """

    def __init__(self, store, charge, heartbeat_window: float = HEARTBEAT):
        self.store = store
        self.charge = charge
        self.heartbeat_window = heartbeat_window
        self.flushes: List[Tuple[str, float]] = []
        #: source -> (kind, cluster) -> [(key, value), ...]
        self._held: Dict[str, Dict[Tuple[str, str], list]] = {}

    def _write(self, key: MetricKey, t: float, value: float) -> None:
        plan = self.store.column_plan([key])
        self.store.update_columns(plan, t, np.array([value]))

    def _done(self, source, slot, batch, t) -> int:
        self._held.setdefault(source, {})[slot] = batch
        self.charge(len(batch) * COSTS.rrd_update, "archive")
        self.flushes.append((source, t))
        return len(batch)

    def begin_poll(self, source: str) -> None:
        self._held.pop(source, None)

    def archive_detail(self, source: str, cluster: ClusterElement, t: float) -> int:
        batch = []
        for host in cluster.hosts.values():
            if not host.is_up(self.heartbeat_window):
                continue
            for metric in host.metrics.values():
                if not metric.is_numeric:
                    continue
                try:
                    value = metric.numeric()
                except ValueError:
                    continue
                key = MetricKey(source, cluster.name, host.name, metric.name)
                self._write(key, t, value)
                batch.append((key, value))
        return self._done(source, ("detail", cluster.name), batch, t)

    def archive_summary(self, source: str, cluster: str, summary, t: float) -> int:
        batch = []
        for ms in summary.metrics.values():
            for key, value in (
                (MetricKey(source, cluster, SUMMARY_HOST, ms.name), ms.total),
                (
                    MetricKey(source, cluster, SUMMARY_HOST, f"{ms.name}.num"),
                    float(ms.num),
                ),
            ):
                self._write(key, t, value)
                batch.append((key, value))
        return self._done(source, ("summary", cluster), batch, t)

    def replay(self, source: str, t: float) -> int:
        updates = 0
        for batch in self._held.get(source, {}).values():
            for key, value in batch:
                self._write(key, t, value)
                updates += 1
        self.charge(updates * COSTS.rrd_update, "archive")
        self.flushes.append((source, t))
        return updates

    def forget(self, source: str) -> None:
        self._held.pop(source, None)


class ColumnArchiver:
    """Adapter: the real :class:`Archiver` fed columns, as a gmetad does."""

    def __init__(self, store, charge):
        self.archiver = Archiver(store, charge, COSTS, HEARTBEAT)
        self.flushes: List[Tuple[str, float]] = []
        self.archiver.on_flush = lambda source, t: self.flushes.append((source, t))
        self.pool = InternPool()

    def begin_poll(self, source):
        self.archiver.begin_poll(source)

    def archive_detail(self, source, cluster, t):
        cols = columns_from_cluster(cluster, self.pool)
        return self.archiver.archive_cluster_detail_columns(source, cols, t)

    def archive_summary(self, source, cluster, summary, t):
        return self.archiver.archive_summary(source, cluster, summary, t)

    def replay(self, source, t):
        return self.archiver.replay(source, t)

    def forget(self, source):
        self.archiver.forget(source)


# -- drawn polls ----------------------------------------------------------

VALUES = st.one_of(
    st.floats(-1e15, 1e15, allow_nan=False, width=64),
    st.just(math.nan),
)


@st.composite
def host_elements(draw, name):
    host = HostElement(
        name=name, tn=draw(st.sampled_from([0.0, 10.0, 200.0])), tmax=20.0
    )
    for metric in draw(st.lists(st.sampled_from(METRICS), unique=True)):
        kind = draw(st.sampled_from(["num", "num", "num", "bad", "string"]))
        if kind == "num":
            val, mtype = repr(draw(VALUES)), MetricType.DOUBLE
        elif kind == "bad":
            val, mtype = "x", MetricType.FLOAT  # numeric type, unparseable
        else:
            val, mtype = "text", MetricType.STRING
        host.add_metric(MetricElement(name=metric, val=val, mtype=mtype))
    return host


@st.composite
def summaries(draw):
    names = draw(st.lists(st.sampled_from(METRICS), unique=True))
    return SummaryInfo(
        hosts_up=draw(st.integers(0, 3)),
        hosts_down=draw(st.integers(0, 3)),
        metrics={
            name: MetricSummary(
                name, draw(VALUES), draw(st.integers(0, 5))
            )
            for name in names
        },
    )


@st.composite
def cluster_writes(draw):
    """One cluster of a poll: detail (as a tree) or not, and a summary."""
    name = draw(st.sampled_from(CLUSTERS))
    cluster = None
    if draw(st.booleans()):
        cluster = ClusterElement(name=name)
        for host in draw(st.lists(st.sampled_from(HOSTS), unique=True)):
            cluster.add_host(draw(host_elements(host)))
    return name, cluster, draw(summaries())


STEPS = st.one_of(
    st.tuples(
        st.just("poll"),
        st.sampled_from(SOURCES),
        st.lists(cluster_writes(), max_size=3, unique_by=lambda w: w[0]),
    ),
    # the source's last poll again with one host's liveness set (the
    # detail layout stays) and one summary metric swapped for another
    st.tuples(
        st.just("repoll"),
        st.sampled_from(SOURCES),
        st.sampled_from(HOSTS),
        st.sampled_from([0.0, 200.0]),
        st.sampled_from(METRICS),
        st.sampled_from(METRICS),
    ),
    st.tuples(st.just("replay"), st.sampled_from(SOURCES)),
    st.tuples(st.just("forget"), st.sampled_from(SOURCES)),
)


def run_steps(archiver, steps, gaps, kill=None):
    """Apply ``steps`` at increasing times; ``kill(i)`` before step i."""
    t = 0.0
    last: Dict[str, list] = {}
    for i, (step, gap) in enumerate(zip(steps, gaps)):
        if kill is not None:
            kill(i)
        t += gap
        if step[0] in ("poll", "repoll"):
            source = step[1]
            if step[0] == "poll":
                writes = step[2]
            else:
                _, _, host, tn, vanish, appear = step
                writes = copy.deepcopy(last.get(source, []))
                for _, cluster, summary in writes:
                    if cluster is not None and host in cluster.hosts:
                        cluster.hosts[host].tn = tn
                    if summary.metrics.pop(vanish, None) is not None:
                        summary.metrics.setdefault(
                            appear, MetricSummary(appear, 1.0, 1)
                        )
            last[source] = writes
            archiver.begin_poll(source)
            for name, cluster, summary in writes:
                if cluster is not None:
                    archiver.archive_detail(source, cluster, t)
                archiver.archive_summary(source, name, summary, t)
        elif step[0] == "replay":
            archiver.replay(step[1], t)
        else:
            archiver.forget(step[1])
    return t


def make_store(kind):
    if kind == "full":
        return RrdStore(mode="full", rra_specs=compact_rra_specs())
    if kind == "account":
        return RrdStore(mode="account", rra_specs=compact_rra_specs())
    return StorageTier(
        Engine(),
        StorageTierConfig(
            nodes=3, shards=4, replication=2,
            repair_interval=0.0, rebalance_interval=0.0,
        ),
        mode="full",
        rra_specs=compact_rra_specs(),
    )


def assert_same_series(got, want, end):
    for a, b in zip(got.fetch(0.0, end), want.fetch(0.0, end)):
        assert np.array_equal(a, b, equal_nan=True)
    assert got.updates == want.updates
    assert got.last_update_time == want.last_update_time
    latest_a, latest_b = got.latest(), want.latest()
    assert latest_a == latest_b or (
        latest_a is not None and math.isnan(latest_a) and math.isnan(latest_b)
    )


def assert_same_archives(store, oracle, end):
    assert store.update_count == oracle.update_count
    assert store.keys() == oracle.keys()
    if store.mode == "account":
        assert len(store) == len(oracle) == 0
        return
    assert store.create_count == oracle.create_count
    for key in oracle.keys():
        assert_same_series(store.database(key), oracle.database(key), end)
    keys, values, row_seconds, ends = store.window_readout(6)
    okeys, ovalues, orow_seconds, oends = oracle.window_readout(6)
    assert keys == okeys
    assert row_seconds == orow_seconds
    assert np.array_equal(values, ovalues, equal_nan=True)
    assert np.array_equal(ends, oends)


@pytest.mark.parametrize("kind", ["full", "account", "tier"])
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    steps=st.lists(STEPS, min_size=1, max_size=12),
    gaps=st.lists(
        st.sampled_from([15.0, 15.0, 4.0, 45.0, 200.0]), min_size=12, max_size=12
    ),
    kill_at=st.integers(0, 12),
    victim=st.integers(0, 2),
)
def test_archiver_matches_the_per_key_loop(kind, steps, gaps, kill_at, victim):
    store, oracle_store = make_store(kind), make_store(kind)
    charges, oracle_charges = [], []
    archiver = ColumnArchiver(store, lambda w, c: charges.append((w, c)))
    oracle = PerKeyArchiver(
        oracle_store, lambda w, c: oracle_charges.append((w, c))
    )

    def killer(target):
        if kind != "tier":
            return None
        name = sorted(target.nodes)[victim]
        return lambda i: target.kill_node(name) if i == kill_at else None

    end = run_steps(archiver, steps, gaps, killer(store))
    run_steps(oracle, steps, gaps, killer(oracle_store))
    assert charges == oracle_charges
    assert archiver.flushes == oracle.flushes
    assert_same_archives(store, oracle_store, end + 30.0)
    if kind == "tier":
        assert store.updates_lost == oracle_store.updates_lost == 0
        for name, node in store.nodes.items():
            twin = oracle_store.nodes[name]
            assert node.store.keys() == twin.store.keys()
            assert node.updates_applied == twin.updates_applied
            for key in twin.store.keys():
                assert_same_series(
                    node.store.database(key), twin.store.database(key), end + 30.0
                )


# -- one plan per layout ----------------------------------------------------


def test_summary_binds_one_plan_per_layout():
    store = RrdStore(mode="full", rra_specs=compact_rra_specs())
    archiver = Archiver(store, lambda w, c: 0.0, COSTS)
    binds = []
    column_plan = store.column_plan
    store.column_plan = lambda keys: binds.append(list(keys)) or column_plan(keys)
    for t in (15.0, 30.0, 45.0):
        archiver.archive_summary("s", "c", summary_of(a=(1.0, 2), b=(3.0, 4)), t)
    archiver.archive_summary("s", "c", summary_of(b=(3.0, 4)), 60.0)
    assert [[k.metric for k in keys] for keys in binds] == [
        ["a", "a.num", "b", "b.num"],
        ["b", "b.num"],
    ]
    assert store.update_count == 3 * 4 + 2
    b_num = store.database(MetricKey("s", "c", SUMMARY_HOST, "b.num"))
    assert b_num.updates == 4 and b_num.last_update_time == 60.0


def test_replay_rescatters_the_held_polls_once():
    store = RrdStore(mode="full", rra_specs=compact_rra_specs())
    archiver = Archiver(store, lambda w, c: 0.0, COSTS)
    archiver.begin_poll("s")
    archiver.archive_summary("s", "c0", summary_of(a=(1.0, 2)), 15.0)
    archiver.archive_summary("s", "c1", summary_of(a=(5.0, 1)), 15.0)
    scatters = []
    update_columns = store.update_columns
    store.update_columns = lambda plan, t, v: (
        scatters.append(len(plan)) or update_columns(plan, t, v)
    )
    assert archiver.replay("s", 30.0) == 4
    assert scatters == [2, 2]  # one scatter per held write, not per key
    assert archiver.replay("elsewhere", 30.0) == 0


def test_account_store_scatters_too():
    store = RrdStore(mode="account")
    archiver = Archiver(store, lambda w, c: 0.0, COSTS)
    summary = summary_of(a=(1.0, 2))
    assert archiver.archive_summary("s", "c", summary, 15.0) == 2
    assert archiver.replay("s", 30.0) == 2
    assert store.update_count == 4 and len(store) == 0


def test_no_scalar_writer_is_left():
    for cls in (RrdStore, StorageTier):
        assert not hasattr(cls, "update")
        assert not hasattr(cls, "update_summary")
    assert Archiver.archive_cluster_detail is Archiver.archive_cluster_detail_columns


# -- regressions --------------------------------------------------------------


def test_cluster_that_left_a_grid_source_is_not_replayed():
    """``attic`` drops ``attic-c0`` at t=120; ``sdsc`` polls ``attic`` as a
    grid source and keeps getting NOT-MODIFIED answers.  Replay must not
    keep writing the departed cluster's summary series, while the
    clusters ``attic`` still carries keep advancing."""
    fed = build_paper_tree(
        "nlevel", hosts_per_cluster=2, freeze_values=True, incremental=True,
        archive_mode="full",
    ).start()
    fed.engine.run_for(120.0)
    fed.gmetad("attic").remove_data_source("attic-c0")
    fed.engine.run_for(600.0)
    sdsc = fed.gmetad("sdsc")
    assert sdsc.polls_not_modified > 0
    store = sdsc.rrd_store
    gone = MetricKey("attic", "attic-c0", SUMMARY_HOST, "load_one")
    kept = MetricKey("attic", "attic-c1", SUMMARY_HOST, "load_one")
    assert store.database(gone).last_update_time < 150.0
    assert store.database(kept).last_update_time > 690.0
    assert "attic-c0" not in sdsc.serve_query("/")[0]


def test_updates_lost_counts_keys():
    engine = Engine()
    tier = StorageTier(
        engine,
        StorageTierConfig(
            nodes=3, shards=4, replication=2,
            repair_interval=0.0, rebalance_interval=0.0,
        ),
    )
    keys = [MetricKey("s", "c", "h0", f"m{i}") for i in range(5)]  # one shard
    plan = tier.column_plan(keys)
    tier.update_columns(plan, 15.0, np.ones(len(keys)))
    shard = tier._shard_of(keys[0])
    for name in tier.shard_map.replicas[shard]:
        tier.kill_node(name)
    tier.update_columns(plan, 30.0, np.ones(len(keys)))
    assert tier.updates_lost == len(keys)
    assert tier.stats()["updates_lost"] == len(keys)
    assert tier.update_count == 2 * len(keys)  # logical count still moves
