"""Render Ganglia XML fragments straight from ColumnarCluster arrays.

Every function here must produce the *exact* bytes
:class:`~repro.wire.writer.XmlWriter` would for the materialized tree --
payload lengths drive the simulation's transfer times and CPU charges,
and the columnar-serve equivalence suite diffs replies byte-for-byte.
The formatting choke points are therefore shared, not reimplemented:
numeric attributes go through :func:`~repro.wire.writer._fmt_num`
(including its ``-0`` normalization and its ValueError on NaN) and
string attributes through :func:`~repro.wire.escape.escape_attr`.

What makes this faster than materialize-then-serialize is that a
host's METRIC rows are mostly static text.  Hosts of one cluster share
a *layout* -- the same metric names, TYPE/UNITS/SLOPE/SOURCE and
TMAX/DMAX, row for row -- so a :class:`HostRenderer` builds each
layout's rows once, sorted by name as the writer sorts them, as three
static pieces per row around the two per-poll texts, VAL and TN.  A
host is then one join of those pieces with its escaped VALs and
formatted TNs.  The static texts and the host scalars go through a
memo (:class:`NumFormatter`); TN is near-unique per row and is
formatted straight through ``_fmt_num``.  Strings are escaped once per
template.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.columnar.layout import SEP
from repro.wire.escape import escape_attr
from repro.wire.writer import _fmt_num

#: memo bound: numeric texts per formatter (REPORTED/LOCALTIME move every
#: poll, so an unbounded cache would grow for the life of the daemon)
_FMT_CACHE_LIMIT = 1 << 16
#: memo bound: distinct host layouts per renderer
_TEMPLATE_CACHE_LIMIT = 4096


class NumFormatter:
    """Memoized :func:`_fmt_num`.

    NaN never caches (it is unequal to itself, so the dict probe always
    misses) and raises the same ValueError the writer's formatter does.
    """

    __slots__ = ("_cache",)

    def __init__(self) -> None:
        self._cache: Dict[float, str] = {}

    def __call__(self, value: float) -> str:
        cache = self._cache
        try:
            return cache[value]
        except KeyError:
            text = _fmt_num(value)
            if len(cache) >= _FMT_CACHE_LIMIT:
                cache.clear()
            cache[value] = text
            return text


#: the row columns a METRIC row's static text depends on; a host's
#: layout key is their bytes over its rows (the column contract fixes
#: their dtypes, int32 ids and float64 limits)
_STATIC_COLUMNS = (
    "name_ids", "type_ids", "units_ids", "slope_ids", "source_ids",
    "metric_tmax", "metric_dmax",
)


class HostRenderer:
    """Renders HOST elements from per-layout METRIC row templates.

    One renderer serves one intern pool.  A template is the layout's row
    order by metric name (the writer's ``sorted(host.metrics)``) and five
    slots per row: ``<METRIC NAME=".." VAL="``, VAL, ``" TYPE=".."
    UNITS=".." TN="``, TN, and the TMAX..SOURCE rest.  TYPE and SLOPE are
    raw pool strings: their ids were validated against the DTD
    vocabulary at intern time, so the pool text *is* the enum value.
    """

    __slots__ = ("pool", "_fmt", "_templates", "templates_built")

    def __init__(self, pool) -> None:
        self.pool = pool
        self._fmt = NumFormatter()
        self._templates: Dict[bytes, Tuple[Optional[List[int]], List[str]]] = {}
        self.templates_built = 0

    def _template(self, cols, start: int, end: int, key: bytes):
        template = self._templates.get(key)
        if template is not None:
            return template
        strings, fmt = self.pool.strings, self._fmt
        name_ids = cols.name_ids[start:end].tolist()
        order = sorted(range(end - start), key=lambda j: strings[name_ids[j]])
        pieces: List[str] = []
        for r in (start + j for j in order):
            units = escape_attr(strings[cols.units_ids[r]])
            units = f' UNITS="{units}"' if units else ""
            pieces += (
                f'<METRIC NAME="{escape_attr(strings[cols.name_ids[r]])}" VAL="',
                "",
                f'" TYPE="{strings[cols.type_ids[r]]}"{units} TN="',
                "",
                f'" TMAX="{fmt(cols.metric_tmax[r])}" DMAX="{fmt(cols.metric_dmax[r])}"'
                f' SLOPE="{strings[cols.slope_ids[r]]}"'
                f' SOURCE="{escape_attr(strings[cols.source_ids[r]])}"/>\n',
            )
        if len(self._templates) >= _TEMPLATE_CACHE_LIMIT:
            self._templates.clear()
        # rows already in name order (the writer's own output) need no gather
        if order == sorted(order):
            order = None
        self._templates[key] = template = (order, pieces)
        self.templates_built += 1
        return template

    def hosts(self, cols, indices: Sequence[int]) -> List[str]:
        """The HOST elements of ``indices``, as the writer emits them.

        LOCATION is carried in the columns but never serialized -- same
        as :meth:`XmlWriter.host`.
        """
        fmt, tns = self._fmt, cols.metric_tn
        starts = cols.host_row_start.tolist()
        # host h's VALs are text[spans[h]:spans[h + 1]], each ending in SEP
        text = cols.vals_raw.text
        spans = cols.vals_raw.starts[cols.host_row_start].tolist()
        static = [getattr(cols, name) for name in _STATIC_COLUMNS]
        out = []
        for h in indices:
            ip = cols.host_ip[h]
            ip_part = f' IP="{escape_attr(ip)}"' if ip else ""
            head = (
                f'<HOST NAME="{escape_attr(cols.host_names[h])}"{ip_part}'
                f' REPORTED="{fmt(cols.host_reported[h])}" TN="{fmt(cols.host_tn[h])}"'
                f' TMAX="{fmt(cols.host_tmax[h])}" DMAX="{fmt(cols.host_dmax[h])}"'
            )
            start, end = starts[h], starts[h + 1]
            if start == end:
                out.append(head + "/>\n")
                continue
            key = b"".join([column[start:end].tobytes() for column in static])
            order, pieces = self._template(cols, start, end, key)
            parts = pieces.copy()
            # escaping is per character: if the host's VAL text needs
            # none, no VAL does (the common case skips a call per row)
            host_text = text[spans[h] : spans[h + 1]]
            escaped = escape_attr(host_text) != host_text
            host_vals = host_text[:-1].split(SEP)
            host_tns = tns[start:end].tolist()
            if order is not None:
                host_vals = [host_vals[j] for j in order]
                host_tns = map(host_tns.__getitem__, order)
            parts[1::5] = map(escape_attr, host_vals) if escaped else host_vals
            parts[3::5] = map(_fmt_num, host_tns)
            out.append(f"{head}>\n{''.join(parts)}</HOST>\n")
        return out


def metric_line(host_fragment: str, metric_name: str) -> Optional[str]:
    """One METRIC element cut from a rendered HOST fragment, or None."""
    # NAME then VAL open every row, and escaped values hold no "<>"
    at = host_fragment.find(f'<METRIC NAME="{escape_attr(metric_name)}" VAL="')
    if at < 0:
        return None
    return host_fragment[at : host_fragment.index("/>\n", at) + 3]


def cluster_open_tag(cols) -> str:
    """The CLUSTER opening tag for one poll's columns."""
    parts = [f'<CLUSTER NAME="{escape_attr(cols.name)}"']
    if cols.owner:
        parts.append(f' OWNER="{escape_attr(cols.owner)}"')
    parts.append(f' LOCALTIME="{_fmt_num(cols.localtime)}"')
    if cols.url:
        parts.append(f' URL="{escape_attr(cols.url)}"')
    parts.append(">\n")
    return "".join(parts)


def render_cluster(cols, renderer: Optional[HostRenderer] = None) -> str:
    """A full CLUSTER fragment (hosts sorted by name) from the columns.

    The entry point for sources without an arena: every full-form reply
    on a daemon that does not reuse fragments, the 1-level design's
    dump, and the in-band clusters.
    """
    renderer = renderer or HostRenderer(cols.pool)
    names = cols.host_names
    order = sorted(range(len(names)), key=names.__getitem__)
    return "".join(
        [cluster_open_tag(cols), *renderer.hosts(cols, order), "</CLUSTER>\n"]
    )
