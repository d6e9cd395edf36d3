"""Mount the daemon's own metrics as a synthetic in-band cluster.

The MDS2 performance study and R-GMA both argue a monitoring service
must publish its *own* performance data to be operable at scale.  Here
that principle costs no new machinery at all: the registry is rendered
as an ordinary full-form ``CLUSTER`` named ``__gmetad__`` with one
``HOST`` (the daemon's node), then installed in the daemon's datastore
exactly like a polled gmond source.  From that moment

- ``/{__gmetad__}`` and ``/{__gmetad__}/{host}/{metric}`` path queries
  resolve through the unmodified query engine,
- the web frontend renders it with the unmodified cluster/host views,
- the archiver keeps unmodified RRD histories of every self-metric, and
- summary-form reports to a parent gmetad carry the child's
  self-summary upstream like any other cluster.

The paper's own query machinery becomes the dashboard.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.datastore import SourceSnapshot
from repro.core.summarize import summarize_cluster
from repro.obs.config import SELF_SOURCE
from repro.obs.registry import MetricsRegistry
from repro.wire.model import ClusterElement, HostElement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.gmetad_base import GmetadBase


def build_self_cluster(
    registry: MetricsRegistry,
    host_name: str,
    now: float,
    refresh_interval: float = 15.0,
) -> ClusterElement:
    """Render the registry as a full-form cluster element.

    ``TMAX`` is four refresh intervals, mirroring gmetad's TN-vs-4*TMAX
    heartbeat rule: if the daemon stops refreshing its own metrics (it
    is wedged), its self-host goes stale in every view watching it --
    the monitor's own liveness rides the standard liveness machinery.
    """
    cluster = ClusterElement(name=SELF_SOURCE, localtime=now)
    host = HostElement(
        name=host_name,
        reported=now,
        tn=0.0,
        tmax=max(refresh_interval, 1.0) * 4.0,
    )
    for metric in registry.as_metric_elements(tmax=max(refresh_interval, 1.0) * 4.0):
        host.add_metric(metric)
    cluster.add_host(host)
    return cluster


def install_inband_cluster(
    gmetad: "GmetadBase", source: str, cluster: ClusterElement, now: float
) -> ClusterElement:
    """Summarize, archive and install a synthetic cluster in band.

    The exact pipeline a polled source goes through (minus download and
    parse -- the data was never serialized).  Summarize and archive
    charges are real: keeping histories of your own metrics costs the
    same simulated CPU as anyone else's.  The freshly built element is
    summarized as a tree and becomes a shell plus columns in the
    daemon's in-band pool; the columns are archived and installed like
    every other cluster's, with no fragment arena.  Shared by the
    ``__gmetad__`` self-cluster and the ``__analytics__`` signal
    cluster (:mod:`repro.analytics`).  Returns the element, summary
    attached.
    """
    summary, samples = summarize_cluster(
        cluster, gmetad.config.heartbeat_window
    )
    cluster.summary = summary
    gmetad.charge(gmetad.costs.summarize_metric * samples, "summarize")
    snapshot = SourceSnapshot.from_cluster(
        cluster,
        gmetad._inband_pool,
        name=source,
        summary=summary,
        authority=gmetad.config.authority_url,
    )
    gmetad.archiver.archive_cluster_detail_columns(source, snapshot.columns, now)
    gmetad.archiver.archive_summary(source, cluster.name, summary, now)
    gmetad.datastore.install(snapshot, now)
    return cluster


def install_self_cluster(gmetad: "GmetadBase", now: float) -> ClusterElement:
    """Summarize, archive and install the self-cluster into ``gmetad``."""
    obs = gmetad.obs
    assert obs is not None, "install_self_cluster requires observability"
    cluster = build_self_cluster(
        obs.registry,
        gmetad.config.host,
        now,
        refresh_interval=obs.config.self_cluster_interval or 15.0,
    )
    return install_inband_cluster(gmetad, SELF_SOURCE, cluster, now)
