"""The workload table.

Each workload is one federation shape plus one view mix.  The numbers
that define a workload (hosts, churn, gates, view mix) are fixed here;
``--seed`` only seeds the generated inputs (metric values, churn picks,
viewer arrivals, probe phases), and ``--seconds`` only sets how many
4-cycle periods are measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: wall seconds one measured period (four cycles with their view mix)
#: is budgeted at; ``--seconds`` buys ``round(seconds / RUN_SECONDS)``
#: periods, never fewer than one.  The window is a count of cycles, not
#: a stopwatch, so that the sim metrics of a seed repeat exactly.
RUN_SECONDS = 15

#: cycles per archive period: every fourth cycle closes a 60 sim-s RRA
#: row and costs about twice the others, so a window that is not a
#: whole number of periods does not repeat
PERIOD_CYCLES = 4


@dataclass(frozen=True)
class ViewMix:
    """Direct closed-loop views issued per cycle and per serving daemon.

    Meta, host and metric-path views take about ten microseconds, so
    they are timed in batches of a few milliseconds (the batch sizes are
    constants of ``harness.py``) and one sample is the batch's wall time
    over its size.
    """

    meta_batches: int
    cluster: int
    cluster_bin: int
    host_batches: int
    path_batches: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    hosts_per_cluster: int
    #: gmetad -> attached clusters; None = the Fig. 2 tree
    attachment: Optional[Dict[str, int]]
    trust_edges: Optional[List[Tuple[str, str]]]
    #: the daemon whose summaries are "the root's"
    top: str
    #: the ingest daemon viewers reach (through its read tier, if any)
    edge: str
    binary_wire: bool
    #: storage tier, analytics, alarm engine and the fault schedule
    all_on: bool
    #: 2 columnar-serve replicas + front door + 6000-client viewer fleet
    read_tier: bool
    #: "full" keeps real RRD arrays; the read-heavy workload only counts
    #: updates ("account"), which saves 0.9 GB and 13 s of page faults
    archive_mode: str
    #: fraction of each cluster's hosts re-drawn between cycles
    churn: float
    views: ViewMix

    def measured_cycles(self, seconds: float, quick: bool) -> int:
        """Whole periods only; never fewer than one."""
        if quick:
            return PERIOD_CYCLES
        return PERIOD_CYCLES * max(1, round(seconds / RUN_SECONDS))

    def hosts(self, quick: bool) -> int:
        return max(4, self.hosts_per_cluster // 10) if quick else self.hosts_per_cluster


WORKLOADS: List[Workload] = [
    Workload(
        name="fed1k_all_on",
        why=(
            "Fig. 2 tree, 12x84 hosts, every gate on, 10% churn, viewer fleet"
            " and faults: the only place the tiers' interaction cost shows"
        ),
        hosts_per_cluster=84,
        attachment=None,
        trust_edges=None,
        top="root",
        edge="sdsc",
        binary_wire=True,
        all_on=True,
        read_tier=True,
        archive_mode="full",
        churn=0.10,
        views=ViewMix(meta_batches=6, cluster=12, cluster_bin=1, host_batches=6),
    ),
    Workload(
        name="fed10k_core",
        why=(
            "same tree and fleet at 12x834 hosts, pipeline gates only, archive"
            " updates counted but not stored: the scale cost; a storage,"
            " archive or analytics change must not move it"
        ),
        hosts_per_cluster=834,
        attachment=None,
        trust_edges=None,
        top="root",
        edge="sdsc",
        binary_wire=True,
        all_on=False,
        read_tier=True,
        archive_mode="account",
        churn=0.10,
        views=ViewMix(meta_batches=6, cluster=12, cluster_bin=1, host_batches=6),
    ),
    Workload(
        name="leaf5k_xml_churn",
        why=(
            "one gmetad, 10x500 hosts over XML, 100% churn, token views:"
            " write-heavy, every incremental cache misses, serve idle"
        ),
        hosts_per_cluster=500,
        attachment={"leaf": 10},
        trust_edges=[],
        top="leaf",
        edge="leaf",
        binary_wire=False,
        all_on=False,
        read_tier=False,
        archive_mode="full",
        churn=1.0,
        # one cluster view per cluster: each is the first after a full
        # re-render, and ten a cycle steady the mean
        views=ViewMix(meta_batches=6, cluster=10, cluster_bin=2, host_batches=6),
    ),
    Workload(
        name="leaf10k_serve",
        why=(
            "one gmetad, one 10000-host GBF1 source, 1% churn, heavy views,"
            " archive updates counted but not stored: read-heavy, 41 MB"
            " replies, ingest near idle"
        ),
        hosts_per_cluster=10000,
        attachment={"leaf": 1},
        trust_edges=[],
        top="leaf",
        edge="leaf",
        binary_wire=True,
        all_on=False,
        read_tier=False,
        archive_mode="account",
        churn=0.01,
        views=ViewMix(
            meta_batches=6, cluster=6, cluster_bin=2, host_batches=6,
            path_batches=1,
        ),
    ),
]

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}
