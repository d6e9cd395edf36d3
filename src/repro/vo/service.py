"""Per-VO views and query service over a gmetad datastore.

The directory exposes a user/group-centric hierarchy beside gmetad's
host-centric one::

    /vo/atlas                 -> the VO's whole slice, summarized
    /vo/atlas/meteor          -> the VO's hosts of one cluster, full form
    /vo/atlas/meteor/h-0-3    -> one host (must be in the slice)

Enforcement is structural: filtered cluster elements are built from the
policy before serialization, so a VO query can never leak a host outside
the grant -- there is no "view filter" to bypass.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.gmetad_base import GmetadBase
from repro.core.summarize import merge_summaries, summarize_cluster
from repro.vo.policy import VoPolicy
from repro.wire.model import ClusterElement, SummaryInfo
from repro.wire.writer import XmlWriter


class VoError(KeyError):
    """Unknown VO or path outside the VO's grant."""


class VoDirectory:
    """Policy-filtered window onto one gmetad's live state."""

    def __init__(self, gmetad: GmetadBase, policy: VoPolicy) -> None:
        self.gmetad = gmetad
        self.policy = policy

    # -- filtered model --------------------------------------------------------

    def filtered_cluster(self, vo_name: str, cluster_name: str) -> ClusterElement:
        """The VO's slice of one cluster, as a full-form element."""
        vo = self.policy.vo(vo_name)
        if vo is None:
            raise VoError(f"unknown VO {vo_name!r}")
        if cluster_name not in vo.slices:
            raise VoError(f"VO {vo_name!r} has no grant on {cluster_name!r}")
        snapshot = self.gmetad.datastore.source(cluster_name)
        cols = None if snapshot is None else snapshot.columns
        if cols is None:
            raise VoError(
                f"cluster {cluster_name!r} not available at full resolution "
                "on this gmetad (query its authority)"
            )
        # build only the admitted hosts, by row-slice
        filtered = cols.shell_cluster()
        for h, host_name in enumerate(cols.host_names):
            if vo.admits(cluster_name, host_name):
                filtered.hosts[host_name] = cols.materialize_host(h)
        return filtered

    def vo_summary(self, vo_name: str) -> Tuple[SummaryInfo, List[str]]:
        """(summary over the whole slice, clusters included)."""
        vo = self.policy.vo(vo_name)
        if vo is None:
            raise VoError(f"unknown VO {vo_name!r}")
        parts = []
        included = []
        for cluster_name in vo.clusters():
            try:
                filtered = self.filtered_cluster(vo_name, cluster_name)
            except VoError:
                continue  # cluster not local here; another level serves it
            summary, samples = summarize_cluster(
                filtered, self.gmetad.config.heartbeat_window
            )
            self.gmetad.charge(
                self.gmetad.costs.summarize_metric * samples, "summarize"
            )
            parts.append(summary)
            included.append(cluster_name)
        merged, operations = merge_summaries(parts)
        self.gmetad.charge(
            self.gmetad.costs.summarize_metric * operations, "summarize"
        )
        return merged, included

    # -- query service ------------------------------------------------------

    def is_vo_query(self, request: str) -> bool:
        """True if the request selects the VO hierarchy (starts with /vo/)."""
        return request.lstrip().startswith("/vo/")

    def serve(self, request: str) -> Tuple[str, float]:
        """Serve a ``/vo/...`` query; returns (xml, service_seconds)."""
        segments = [s for s in request.strip().split("?")[0].split("/") if s]
        if not segments or segments[0] != "vo" or len(segments) < 2:
            raise VoError(f"bad VO query {request!r}")
        vo_name = segments[1]
        writer = XmlWriter()
        writer.raw('<?xml version="1.0" encoding="ISO-8859-1" standalone="yes"?>\n')
        writer.open_tag(
            "GANGLIA_XML",
            [("VERSION", self.gmetad.version), ("SOURCE", "gmetad-vo")],
        )
        seconds = self.gmetad.charge(self.gmetad.costs.query_fixed, "query")
        if len(segments) == 2:
            summary, included = self.vo_summary(vo_name)
            writer.open_tag(
                "GRID",
                [
                    ("NAME", f"vo:{vo_name}"),
                    ("AUTHORITY", self.gmetad.config.authority_url),
                ],
            )
            writer.summary_info(summary)
            writer.close_tag("GRID")
        elif len(segments) == 3:
            filtered = self.filtered_cluster(vo_name, segments[2])
            writer.cluster(filtered)
        elif len(segments) == 4:
            filtered = self.filtered_cluster(vo_name, segments[2])
            host = filtered.hosts.get(segments[3])
            if host is None:
                raise VoError(
                    f"host {segments[3]!r} is not in VO {vo_name!r}'s slice"
                )
            shell = ClusterElement(
                name=filtered.name,
                localtime=filtered.localtime,
                hosts={host.name: host},
            )
            writer.cluster(shell)
        else:
            raise VoError(f"VO query too deep: {request!r}")
        writer.close_tag("GANGLIA_XML")
        xml = writer.result()
        seconds += self.gmetad.charge(
            self.gmetad.costs.serve_byte * len(xml), "serve"
        )
        return xml, seconds
