"""Additive reductions over monitoring data (§2.2).

"A cluster or grid summary looks exactly like the data for a single host
except each metric value represents an additive reduction.  This
reduction is performed across a known set of nodes, and the summary
explicitly records the set size.  In this way a summary contains enough
information to determine a metric's sum and mean.  This definition has
shown to work well in practice, although statistics such as standard
deviation and median are not supported."

Only numeric metrics participate; string metrics are "only visible in
the highest-resolution cluster views".  Hosts that have fallen silent
(TN past the heartbeat window) count toward ``DOWN`` and their stale
values are excluded from the sums, which is why summaries shrink when a
node dies -- the property the failure-injection tests pin down.
"""

from __future__ import annotations

from typing import Tuple

from repro.wire.model import (
    ClusterElement,
    GridElement,
    MetricSummary,
    SummaryInfo,
)


def summarize_cluster(
    cluster: ClusterElement,
    heartbeat_window: float = 80.0,
) -> Tuple[SummaryInfo, int]:
    """Reduce a full-form cluster to its summary.

    Returns ``(summary, samples_reduced)`` -- the second element is the
    number of numeric samples folded in, which is what the CPU model
    charges for (the leaf gmetads' "summarization penalty" in Fig. 5).

    A summary-form cluster passes through unchanged at zero cost: it was
    already reduced by the authority.
    """
    if cluster.is_summary:
        return cluster.summary, 0
    info = SummaryInfo()
    samples = 0
    for host in cluster.hosts.values():
        if host.is_up(heartbeat_window):
            info.hosts_up += 1
        else:
            info.hosts_down += 1
            continue  # stale values are not folded into the reduction
        for metric in host.metrics.values():
            if not metric.is_numeric:
                continue
            try:
                value = metric.numeric()
            except ValueError:
                continue  # malformed value from a broken reporter
            info.add_metric(
                MetricSummary(
                    name=metric.name,
                    total=value,
                    num=1,
                    mtype=metric.mtype,
                    units=metric.units,
                    slope=metric.slope,
                )
            )
            samples += 1
    return info, samples


def summarize_grid(grid: GridElement) -> Tuple[SummaryInfo, int]:
    """Roll a grid's children (clusters and sub-grids) into one summary.

    Children may be full-form (reduced here) or summary-form (merged
    directly -- merging costs one operation per distinct metric, not per
    host, which is where the N-level design wins).
    """
    if grid.is_summary:
        return grid.summary, 0
    info = SummaryInfo()
    samples = 0
    for cluster in grid.clusters.values():
        cluster_summary, n = summarize_cluster(cluster)
        samples += n + len(cluster_summary.metrics)
        info.merge_in_place(cluster_summary)
    for sub in grid.grids.values():
        sub_summary, n = summarize_grid(sub)
        samples += n + len(sub_summary.metrics)
        info.merge_in_place(sub_summary)
    return info, samples


def merge_summaries(
    summaries: list[SummaryInfo],
) -> Tuple[SummaryInfo, int]:
    """Merge disjoint summaries; returns (merged, merge_operations).

    Accumulates in place: the old ``result = result.merged(summary)``
    chain rebuilt the whole accumulated metrics dict per source --
    quadratic in the number of distinct metrics times sources -- while
    this fold is linear in the total metric count and produces
    bit-identical totals (same float addition order).
    """
    result = SummaryInfo()
    operations = 0
    for summary in summaries:
        operations += len(summary.metrics)
        result.merge_in_place(summary)
    return result, operations
