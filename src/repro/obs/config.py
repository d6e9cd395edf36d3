"""Observability knobs (one block per gmetad, default: fully off).

Attached via ``GmetadConfig(observability=ObservabilityConfig(...))``.
``None`` -- the default everywhere, including every paper-figure runner
-- compiles the whole layer out: served XML and every BENCH_* number
stay byte-identical to the uninstrumented daemon.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The synthetic data-source name self-metrics are mounted under.  The
#: double-underscore sandwich keeps it out of any real gmond namespace.
SELF_SOURCE = "__gmetad__"


@dataclass
class ObservabilityConfig:
    """Configuration for the self-observability layer (``repro.obs``)."""

    #: seconds between refreshes of the in-band ``__gmetad__`` cluster
    #: (0 disables the mount; the registry and trace still run)
    self_cluster_interval: float = 15.0
    #: bounded trace buffer capacity, in span records (oldest dropped)
    trace_capacity: int = 4096
    #: seconds between drift-auditor sweeps comparing incremental vs
    #: eager summaries (0 disables the auditor)
    drift_check_interval: float = 60.0
    #: per-histogram bounded sample reservoir (recent values)
    histogram_window: int = 128

    def __post_init__(self) -> None:
        if self.self_cluster_interval < 0:
            raise ValueError("self_cluster_interval must be non-negative")
        if self.trace_capacity < 1:
            raise ValueError("trace_capacity must be >= 1")
        if self.drift_check_interval < 0:
            raise ValueError("drift_check_interval must be non-negative")
        if self.histogram_window < 1:
            raise ValueError("histogram_window must be >= 1")
