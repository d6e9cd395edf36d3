"""Soft-state cluster view held (redundantly) by every gmond agent.

"All Gmon agents have redundant global knowledge of the cluster, so that
any node can supply a complete report containing the state of itself and
all its neighbors" (§1).  The state is *soft*: it is refreshed by
multicast traffic and decays via TN/TMAX/DMAX timers, so newly arrived
and departed nodes are incorporated automatically with no registration
step (the paper's contrast with Supermon).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.gmond.config import GmondConfig
from repro.metrics.types import MetricSample
from repro.wire.model import ClusterElement, HostElement, MetricElement


@dataclass
class HostRecord:
    """What one agent knows about one cluster host."""

    name: str
    ip: str = ""
    first_heard: float = 0.0
    last_heard: float = 0.0
    metrics: Dict[str, MetricSample] = field(default_factory=dict)

    def tn(self, now: float) -> float:
        """Seconds since this host was last heard from."""
        return max(0.0, now - self.last_heard)


class ClusterState:
    """The per-agent soft-state table: host -> metrics."""

    def __init__(self, config: GmondConfig) -> None:
        self.config = config
        self.hosts: Dict[str, HostRecord] = {}
        self.metrics_received = 0
        self.hosts_expired = 0

    # -- updates -----------------------------------------------------------

    def on_metric(
        self, host: str, sample: MetricSample, now: float, ip: str = ""
    ) -> HostRecord:
        """Incorporate a multicast metric report from ``host``."""
        record = self.hosts.get(host)
        if record is None:
            record = HostRecord(name=host, ip=ip, first_heard=now, last_heard=now)
            self.hosts[host] = record
        record.last_heard = now
        if ip:
            record.ip = ip
        stored = sample.copy()
        stored.reported_at = now
        record.metrics[sample.name] = stored
        self.metrics_received += 1
        return record

    def expire(self, now: float) -> int:
        """Apply soft-state decay; returns the number of hosts removed.

        Metrics past their DMAX vanish (user metrics whose publisher went
        away); hosts silent longer than ``host_dmax`` are dropped from
        the table entirely.
        """
        removed = 0
        dead_hosts = []
        for host, record in self.hosts.items():
            stale = [
                name
                for name, sample in record.metrics.items()
                if sample.expired(now)
            ]
            for name in stale:
                del record.metrics[name]
            if (
                self.config.host_dmax > 0
                and record.tn(now) > self.config.host_dmax
            ):
                dead_hosts.append(host)
        for host in dead_hosts:
            del self.hosts[host]
            removed += 1
        self.hosts_expired += removed
        return removed

    # -- queries -----------------------------------------------------------

    def host_count(self) -> int:
        """Number of hosts currently in the soft state."""
        return len(self.hosts)

    def up_down_counts(self, now: float) -> tuple[int, int]:
        """(up, down) by the heartbeat-window liveness rule."""
        up = sum(
            1
            for r in self.hosts.values()
            if r.tn(now) <= self.config.heartbeat_window
        )
        return up, len(self.hosts) - up

    def host(self, name: str) -> Optional[HostRecord]:
        """The record for one host, or None."""
        return self.hosts.get(name)

    def to_host_element(self, record: HostRecord, now: float) -> HostElement:
        """Render one host's HOST element as of time ``now``."""
        host = HostElement(
            name=record.name,
            ip=record.ip,
            reported=record.last_heard,
            tn=record.tn(now),
            tmax=self.config.heartbeat_interval,
            dmax=self.config.host_dmax,
        )
        for sample in record.metrics.values():
            host.add_metric(
                MetricElement(
                    name=sample.name,
                    val=sample.wire_value(),
                    mtype=sample.mtype,
                    units=sample.units,
                    tn=sample.tn(now),
                    tmax=sample.tmax,
                    dmax=sample.dmax,
                    source=sample.source,
                )
            )
        return host

    def to_cluster_element(self, now: float) -> ClusterElement:
        """Render the full-resolution CLUSTER element gmond serves."""
        cluster = ClusterElement(
            name=self.config.cluster_name,
            owner=self.config.owner,
            localtime=now,
            url=self.config.url,
        )
        for record in self.hosts.values():
            cluster.add_host(self.to_host_element(record, now))
        return cluster
