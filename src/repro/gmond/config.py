"""Gmond cluster configuration (the interesting subset of gmond.conf)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.metrics.catalog import MetricDef, builtin_catalog


@dataclass
class GmondConfig:
    """Per-cluster gmond settings.

    ``heartbeat_interval`` is the period of the liveness beacon every
    agent multicasts; a host whose heartbeat has not been heard for
    ``heartbeat_window`` seconds counts as *down* in summaries (gmetad's
    TN vs 4*TMAX rule).  ``host_dmax`` > 0 removes a silent host from the
    soft-state entirely (automatic departure); 0 keeps it forever, which
    preserves the "zero records during downtime" forensics the paper
    describes for RRD archives.
    """

    cluster_name: str
    owner: str = "unspecified"
    url: str = ""
    multicast_group: str = "239.2.11.71:8649"
    heartbeat_interval: float = 20.0
    heartbeat_window: float = 80.0
    host_dmax: float = 0.0
    #: de-synchronization jitter applied to periodic sends (fraction of period)
    send_jitter: float = 0.1
    metric_defs: Sequence[MetricDef] = field(default_factory=builtin_catalog)

    def __post_init__(self) -> None:
        if not self.cluster_name:
            raise ValueError("cluster_name must be non-empty")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.heartbeat_window < self.heartbeat_interval:
            raise ValueError(
                "heartbeat_window must be at least one heartbeat_interval"
            )
