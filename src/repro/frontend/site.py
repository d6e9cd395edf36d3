"""Static web-site generation for a whole federation.

The Ganglia frontend renders pages on demand; for dashboards, archives
and offline inspection a static snapshot is often more practical.  This
module walks a federation's gmetads and writes a browsable site:

- one directory per gmetad with its meta view as ``index.html``;
- one page per local full-resolution cluster and one per host;
- grid rows link across directories by following AUTHORITY URLs, so
  the multiple-resolution structure of the monitoring tree *is* the
  site's link structure.
"""

from __future__ import annotations

import pathlib
from typing import Dict, Optional, Union

from repro.core.gmetad_base import GmetadBase
from repro.frontend.html import (
    render_cluster_view,
    render_host_view,
    render_meta_view,
)
from repro.frontend.views import (
    ClusterView,
    HostRow,
    HostView,
    MetaView,
    _summary_row,
)
from repro.serve.views import host_metric_items, host_statuses


def _safe(name: str) -> str:
    """File-system-safe page name."""
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in name)


def _meta_view_from_datastore(gmetad: GmetadBase) -> MetaView:
    view = MetaView()
    for source_name in gmetad.datastore.source_names():
        snapshot = gmetad.datastore.sources[source_name]
        kind = "cluster" if snapshot.kind == "cluster" else "grid"
        view.rows.append(
            _summary_row(source_name, kind, snapshot.summary, snapshot.authority)
        )
    return view


def generate_gmetad_pages(
    gmetad: GmetadBase,
    directory: Union[str, pathlib.Path],
    authority_links: Optional[Dict[str, str]] = None,
) -> int:
    """Write one gmetad's pages into ``directory``; returns page count.

    ``authority_links`` maps authority URLs to relative hrefs (used by
    :func:`generate_federation_site` to keep links inside the site).
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    authority_links = authority_links or {}
    heartbeat_window = gmetad.config.heartbeat_window
    pages = 0

    view = _meta_view_from_datastore(gmetad)
    for row in view.rows:
        if row.kind == "cluster":
            row.authority = f"cluster-{_safe(row.name)}.html"
        elif row.authority in authority_links:
            row.authority = authority_links[row.authority]
    (directory / "index.html").write_text(
        render_meta_view(view, grid_name=gmetad.config.gridname)
    )
    pages += 1

    for source_name in gmetad.datastore.source_names():
        snapshot = gmetad.datastore.sources[source_name]
        if snapshot.kind == "cluster":
            pages += _cluster_pages(
                snapshot.cluster.name, snapshot.columns, directory,
                heartbeat_window,
            )
    return pages


def _cluster_pages(
    name: str, cols, directory: pathlib.Path, heartbeat_window: float
) -> int:
    """One cluster page and one page per host, by row-slice.

    Every cluster row of the meta view links to its page, so a cluster
    without hosts (``cols`` None: a failure placeholder or a
    summary-form cluster) gets an empty one.  The cluster view's rows
    sort by host name, and each host page's metrics keep row (= parse)
    order.
    """
    statuses = [] if cols is None else host_statuses(cols, heartbeat_window)
    rows = [
        HostRow(name=s.name, up=s.up, load_one=s.load_one, cpu_num=s.cpu_num)
        for s in statuses
    ]
    rows.sort(key=lambda r: r.name)
    cluster_view = ClusterView(name=name, hosts=rows)
    (directory / f"cluster-{_safe(name)}.html").write_text(
        render_cluster_view(cluster_view)
    )
    pages = 1
    for h, status in enumerate(statuses):
        host_view = HostView(
            cluster=name,
            name=status.name,
            up=status.up,
            metrics=dict(host_metric_items(cols, h)),
        )
        page_name = f"host-{_safe(name)}-{_safe(status.name)}.html"
        (directory / page_name).write_text(render_host_view(host_view))
        pages += 1
    return pages


def generate_federation_site(
    gmetads: Dict[str, GmetadBase],
    root_directory: Union[str, pathlib.Path],
) -> int:
    """Write the whole federation; returns total page count.

    Grid rows in each gmetad's meta view link to the sibling directory
    of the gmetad whose AUTHORITY URL they carry, turning the
    pointer-based distributed tree into plain hyperlinks.
    """
    root_directory = pathlib.Path(root_directory)
    root_directory.mkdir(parents=True, exist_ok=True)
    # authority URL -> relative link to that gmetad's index page
    by_authority = {
        daemon.config.authority_url: f"../{_safe(name)}/index.html"
        for name, daemon in gmetads.items()
    }
    total = 0
    for name, daemon in gmetads.items():
        total += generate_gmetad_pages(
            daemon, root_directory / _safe(name), authority_links=by_authority
        )
    # a tiny federation index pointing at every gmetad
    links = "\n".join(
        f'<li><a href="{_safe(name)}/index.html">{name}</a></li>'
        for name in sorted(gmetads)
    )
    (root_directory / "index.html").write_text(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
        "<title>Federation</title></head><body>"
        f"<h1>Monitoring federation</h1>\n<ul>\n{links}\n</ul>"
        "</body></html>\n"
    )
    return total + 1
