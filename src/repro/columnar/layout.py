"""Structure-of-arrays layout for one cluster poll.

A full-form gmond response is extremely regular: thousands of METRIC
elements whose NAME/TYPE/UNITS/SLOPE attributes are drawn from a tiny
closed vocabulary, nested under HOST elements that differ only in a few
scalar attributes.  :class:`ColumnarCluster` stores one poll as parallel
arrays over the metric rows (document order, deduplicated per host the
same way the tree builder's dict assignment deduplicates), plus per-host
arrays over the host axis.  The :class:`InternPool` maps the closed
vocabularies to dense integer ids so layout comparisons and summary
grouping are integer array ops instead of string work.

These columns are the only place a datastore keeps a cluster's hosts:
every ingest path installs them (a cluster that arrives as a tree goes
through :func:`columns_from_cluster`) and every reader slices them.
:meth:`ColumnarCluster.materialize_host` / :meth:`~ColumnarCluster.metric_at`
rebuild single elements for consumers that want model objects (regex
matches, VO slices, salvage carry-forward), and
:meth:`ColumnarCluster.materialize_into` rebuilds the exact host tree
the tree parser would have produced -- the DOM survives only as that
bridge, for the 1-level design's binary ingest and for test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.metrics.catalog import Slope
from repro.metrics.types import MetricType
from repro.wire.model import ClusterElement, HostElement, MetricElement

_MTYPE_BY_VALUE: Dict[str, MetricType] = {m.value: m for m in MetricType}
_SLOPE_BY_VALUE: Dict[str, Slope] = {s.value: s for s in Slope}


class InternPool:
    """String -> dense-id pool for the wire format's closed vocabularies.

    One pool lives per daemon and is shared across polls, so a metric
    name maps to the *same* id on every poll -- that stability is what
    lets the columnar delta tracker compare layouts with integer array
    equality.  TYPE and SLOPE ids double as validated enum handles:
    :meth:`mtype_id` / :meth:`slope_id` return ``None`` for strings
    outside the DTD vocabulary (the caller raises the same
    ``ParseError`` the tree builder would).
    """

    __slots__ = (
        "_ids",
        "strings",
        "_mtype_ids",
        "_slope_ids",
        "_mtype_by_id",
        "_slope_by_id",
        "_numeric_by_id",
        "empty_id",
        "both_slope_id",
    )

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self.strings: List[str] = []
        self._mtype_ids: Dict[str, int] = {}
        self._slope_ids: Dict[str, int] = {}
        self._mtype_by_id: Dict[int, MetricType] = {}
        self._slope_by_id: Dict[int, Slope] = {}
        self._numeric_by_id: Dict[int, bool] = {}
        self.empty_id = self.intern("")
        self.both_slope_id = self.slope_id(Slope.BOTH.value)

    def intern(self, s: str) -> int:
        """The id for ``s``, allocating one on first sight."""
        i = self._ids.get(s)
        if i is None:
            i = len(self.strings)
            self._ids[s] = i
            self.strings.append(s)
        return i

    def lookup(self, s: str) -> Optional[int]:
        """The id for ``s`` if already interned; never allocates.

        Serve-side probes (is this metric name known?) must not grow
        the pool: an attacker-controlled query path interning its junk
        would bloat every escaped-string cache built parallel to it.
        """
        return self._ids.get(s)

    def mtype_id(self, raw: str) -> Optional[int]:
        """Id of a TYPE attribute value, or None if not a metric type."""
        i = self._mtype_ids.get(raw)
        if i is None:
            mtype = _MTYPE_BY_VALUE.get(raw)
            if mtype is None:
                return None
            i = self.intern(raw)
            self._mtype_ids[raw] = i
            self._mtype_by_id[i] = mtype
            self._numeric_by_id[i] = mtype.is_numeric
        return i

    def slope_id(self, raw: str) -> Optional[int]:
        """Id of a SLOPE attribute value, or None if not a slope."""
        i = self._slope_ids.get(raw)
        if i is None:
            slope = _SLOPE_BY_VALUE.get(raw)
            if slope is None:
                return None
            i = self.intern(raw)
            self._slope_ids[raw] = i
            self._slope_by_id[i] = slope
        return i

    def id_for_mtype(self, mtype: MetricType) -> int:
        """Id for an already-validated enum member."""
        i = self.mtype_id(mtype.value)
        assert i is not None
        return i

    def id_for_slope(self, slope: Slope) -> int:
        i = self.slope_id(slope.value)
        assert i is not None
        return i

    def mtype_at(self, i: int) -> MetricType:
        return self._mtype_by_id[i]

    def slope_at(self, i: int) -> Slope:
        return self._slope_by_id[i]

    def is_numeric_id(self, i: int) -> bool:
        return self._numeric_by_id[i]

    @property
    def size(self) -> int:
        return len(self.strings)


@dataclass(slots=True)
class ColumnarCluster:
    """One full-form cluster poll as parallel arrays.

    Metric rows are in document order, deduplicated per host with
    last-value-wins at the first occurrence's position (exactly what the
    tree builder's ``dict[name] = metric`` produces).  Rows of one host
    are contiguous: host ``h`` owns rows
    ``host_row_start[h]:host_row_start[h+1]``.
    """

    # CLUSTER attributes (the shell the datastore serves summaries from)
    name: str
    owner: str
    localtime: float
    url: str
    # host axis (deduplication-free by construction; see parser fallback)
    host_names: List[str]
    host_ip: List[str]
    host_location: List[str]
    host_reported: np.ndarray  # float64 [H]
    host_tn: np.ndarray        # float64 [H]
    host_tmax: np.ndarray      # float64 [H]
    host_dmax: np.ndarray      # float64 [H]
    host_row_start: np.ndarray  # int64 [H+1]
    # metric-row axis
    row_host: np.ndarray   # int32 [N] -- owning host index per row
    name_ids: np.ndarray   # int32 [N] -- pool id of NAME
    type_ids: np.ndarray   # int32 [N] -- pool id of TYPE (validated)
    units_ids: np.ndarray  # int32 [N]
    slope_ids: np.ndarray  # int32 [N] (validated)
    source_ids: np.ndarray  # int32 [N]
    values: np.ndarray     # float64 [N]; NaN placeholder on ~valid rows
    numeric: np.ndarray    # bool [N] -- TYPE is numeric
    valid: np.ndarray      # bool [N] -- numeric and VAL parsed as float
    metric_tn: np.ndarray   # float64 [N]
    metric_tmax: np.ndarray  # float64 [N]
    metric_dmax: np.ndarray  # float64 [N]
    vals_raw: List[str]    # raw VAL strings, for exact materialization
    pool: InternPool
    _up_cache: Optional[tuple] = field(default=None, repr=False, compare=False)
    _host_index: Optional[Dict[str, int]] = field(
        default=None, repr=False, compare=False
    )

    # -- derived views -----------------------------------------------------

    @property
    def host_count(self) -> int:
        return len(self.host_names)

    @property
    def row_count(self) -> int:
        return len(self.name_ids)

    @property
    def element_count(self) -> int:
        """Hash-table inserts an equivalent tree ingest charges for.

        Mirrors ``document_element_count``: 1 for the cluster, 1 per
        host, 1 per (deduplicated) metric.
        """
        return 1 + self.host_count + self.row_count

    def up_mask(self, heartbeat_window: float) -> np.ndarray:
        """Per-host liveness (``tn <= heartbeat_window``), memoized."""
        cached = self._up_cache
        if cached is not None and cached[0] == heartbeat_window:
            return cached[1]
        mask = self.host_tn <= heartbeat_window
        self._up_cache = (heartbeat_window, mask)
        return mask

    @property
    def host_index(self) -> Dict[str, int]:
        """host name -> host axis position (built lazily)."""
        index = self._host_index
        if index is None:
            index = {name: i for i, name in enumerate(self.host_names)}
            self._host_index = index
        return index

    def same_layout(self, other: "ColumnarCluster") -> bool:
        """Whether the host/metric structure (not the values) matches.

        Covers everything the delta tracker's per-host equality compares
        except the values themselves and host liveness: host identity and
        order, metric identity and order, TYPE/UNITS/SLOPE metadata, and
        which rows carry a parseable numeric value.  SOURCE is excluded
        on purpose -- it never enters a summary.
        """
        return (
            other.pool is self.pool
            and self.host_names == other.host_names
            and np.array_equal(self.host_row_start, other.host_row_start)
            and np.array_equal(self.name_ids, other.name_ids)
            and np.array_equal(self.type_ids, other.type_ids)
            and np.array_equal(self.units_ids, other.units_ids)
            and np.array_equal(self.slope_ids, other.slope_ids)
            and np.array_equal(self.valid, other.valid)
        )

    # -- DOM bridge --------------------------------------------------------

    def shell_cluster(self) -> ClusterElement:
        """A hostless ClusterElement carrying the CLUSTER attributes.

        The datastore installs this as the snapshot's element: it
        carries the summary, and full-form serving renders the hosts
        from the columns.
        """
        return ClusterElement(
            name=self.name,
            owner=self.owner,
            localtime=self.localtime,
            url=self.url,
        )

    def metric_at(self, r: int) -> MetricElement:
        """Rebuild the METRIC element of one row."""
        pool = self.pool
        strings = pool.strings
        return MetricElement(
            name=strings[self.name_ids[r]],
            val=self.vals_raw[r],
            mtype=pool.mtype_at(self.type_ids[r]),
            units=strings[self.units_ids[r]],
            tn=float(self.metric_tn[r]),
            tmax=float(self.metric_tmax[r]),
            dmax=float(self.metric_dmax[r]),
            slope=pool.slope_at(self.slope_ids[r]),
            source=strings[self.source_ids[r]],
        )

    def materialize_host(self, h: int) -> HostElement:
        """Rebuild one host's exact element subtree by row-slice.

        Lets consumers that need only a few hosts (VO-filtered views,
        regex matches, salvage carry-forward) build just those.
        """
        host = HostElement(
            name=self.host_names[h],
            ip=self.host_ip[h],
            reported=float(self.host_reported[h]),
            tn=float(self.host_tn[h]),
            tmax=float(self.host_tmax[h]),
            dmax=float(self.host_dmax[h]),
            location=self.host_location[h],
        )
        metrics = host.metrics
        for r in range(self.host_row_start[h], self.host_row_start[h + 1]):
            metric = self.metric_at(r)
            metrics[metric.name] = metric
        return host

    def materialize_into(self, cluster: ClusterElement) -> ClusterElement:
        """Rebuild the exact host tree the tree parser would have built."""
        for h, host_name in enumerate(self.host_names):
            cluster.hosts[host_name] = self.materialize_host(h)
        return cluster


@dataclass(slots=True)
class ColumnarDocument:
    """A parsed poll response in columnar form (cluster sources only)."""

    version: str
    source: str
    clusters: List[ColumnarCluster]
    #: METRIC elements that fell off the regex fast lane during the parse
    #: (attribute order drifted from the canonical writer order); the
    #: slow path still parsed them correctly, but a nonzero count means
    #: the canonical-order assumption the binary codec shares is broken
    fast_lane_misses: int = 0
    #: METRIC elements the fast lane took; zero with the lane off
    fast_lane_hits: int = 0

    @property
    def element_count(self) -> int:
        return sum(c.element_count for c in self.clusters)


def columns_from_cluster(
    cluster: ClusterElement, pool: InternPool
) -> ColumnarCluster:
    """Convert an already-built full-form DOM cluster to columns.

    Every cluster that arrives as a tree -- from the tree parser,
    salvage, the 1-level design or an in-band cluster -- goes through
    here before install, so the datastore holds hosts one way only, and
    each source keeps one summarizer and one archive-plan state machine
    regardless of which parser ran.
    """
    if cluster.is_summary:
        raise ValueError(
            f"cannot build columns for summary-form cluster {cluster.name!r}"
        )
    host_names: List[str] = []
    host_ip: List[str] = []
    host_location: List[str] = []
    host_reported: List[float] = []
    host_tn: List[float] = []
    host_tmax: List[float] = []
    host_dmax: List[float] = []
    starts: List[int] = [0]
    row_host: List[int] = []
    name_ids: List[int] = []
    type_ids: List[int] = []
    units_ids: List[int] = []
    slope_ids: List[int] = []
    source_ids: List[int] = []
    values: List[float] = []
    numeric: List[bool] = []
    valid: List[bool] = []
    metric_tn: List[float] = []
    metric_tmax: List[float] = []
    metric_dmax: List[float] = []
    vals_raw: List[str] = []
    for h, (host_name, host) in enumerate(cluster.hosts.items()):
        host_names.append(host_name)
        host_ip.append(host.ip)
        host_location.append(host.location)
        host_reported.append(host.reported)
        host_tn.append(host.tn)
        host_tmax.append(host.tmax)
        host_dmax.append(host.dmax)
        for metric in host.metrics.values():
            row_host.append(h)
            name_ids.append(pool.intern(metric.name))
            type_ids.append(pool.id_for_mtype(metric.mtype))
            units_ids.append(pool.intern(metric.units))
            slope_ids.append(pool.id_for_slope(metric.slope))
            source_ids.append(pool.intern(metric.source))
            vals_raw.append(metric.val)
            metric_tn.append(metric.tn)
            metric_tmax.append(metric.tmax)
            metric_dmax.append(metric.dmax)
            is_numeric = metric.is_numeric
            numeric.append(is_numeric)
            if is_numeric:
                try:
                    value = float(metric.val)
                except ValueError:
                    values.append(np.nan)
                    valid.append(False)
                else:
                    values.append(value)
                    valid.append(True)
            else:
                values.append(np.nan)
                valid.append(False)
        starts.append(len(row_host))
    return ColumnarCluster(
        name=cluster.name,
        owner=cluster.owner,
        localtime=cluster.localtime,
        url=cluster.url,
        host_names=host_names,
        host_ip=host_ip,
        host_location=host_location,
        host_reported=np.asarray(host_reported, dtype=np.float64),
        host_tn=np.asarray(host_tn, dtype=np.float64),
        host_tmax=np.asarray(host_tmax, dtype=np.float64),
        host_dmax=np.asarray(host_dmax, dtype=np.float64),
        host_row_start=np.asarray(starts, dtype=np.int64),
        row_host=np.asarray(row_host, dtype=np.int32),
        name_ids=np.asarray(name_ids, dtype=np.int32),
        type_ids=np.asarray(type_ids, dtype=np.int32),
        units_ids=np.asarray(units_ids, dtype=np.int32),
        slope_ids=np.asarray(slope_ids, dtype=np.int32),
        source_ids=np.asarray(source_ids, dtype=np.int32),
        values=np.asarray(values, dtype=np.float64),
        numeric=np.asarray(numeric, dtype=bool),
        valid=np.asarray(valid, dtype=bool),
        metric_tn=np.asarray(metric_tn, dtype=np.float64),
        metric_tmax=np.asarray(metric_tmax, dtype=np.float64),
        metric_dmax=np.asarray(metric_dmax, dtype=np.float64),
        vals_raw=vals_raw,
        pool=pool,
    )
