"""The analytics stage bound to one gmetad daemon.

One :class:`AnalyticsEngine` per gated daemon hooks the archiver's
flush notification and, at most once per flush timestamp (plus an
optional cadence), recomputes trend and anomaly signals for *every*
archived series in one vectorized pass:

- the window readout is one ``store.window_readout`` call per pass:
  a plain store answers it with a single fancy-indexed
  :meth:`SeriesBank.window_matrix` gather over its bank's 2-D ring
  arrays, the storage tier with one such gather per shard on the
  shard's read node; either way each series' last ``window_rows``
  finest rows are read, and the stage's own ``__analytics__`` series
  are left out;
- the kernels (:mod:`repro.analytics.kernels`) are whole-matrix column
  ops: least-squares slope, EWMA mean/variance, anomaly z-score.

Readings feed the predictive rule kinds in :mod:`repro.core.alarms`
through :meth:`reading`, and a compact signal summary is published as
an in-band ``__analytics__`` cluster through the same pipeline the
``__gmetad__`` self-cluster uses -- so frontends, pub-sub subscribers,
read replicas and the binary codec serve analytics for free.

Charging policy mirrors ``repro.obs``: computing readings charges the
daemon's CPU account (``analytics_series`` work units per series per
pass, category "analytics"), and publishing the signal cluster pays the
full summarize/archive price like any other source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.analytics.config import ANALYTICS_SOURCE, AnalyticsConfig
from repro.analytics.kernels import ewma_zscore, latest_values, rolling_slope
from repro.metrics.catalog import Slope
from repro.metrics.types import MetricType
from repro.rrd.store import MetricKey
from repro.wire.model import ClusterElement, HostElement, MetricElement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.gmetad_base import GmetadBase

#: SOURCE attribute on published analytics metric elements
ANALYTICS_METRIC_SOURCE = "gmetad-analytics"


@dataclass(frozen=True)
class SeriesReading:
    """The analytics signals for one archived series, one pass."""

    latest: float        # newest closed archive row (NaN: none)
    slope: float         # fitted trend, units/second (NaN: too few rows)
    zscore: float        # newest row vs EWMA baseline (NaN: too few rows)
    row_seconds: float   # archive row period the signals were fit over
    end_time: float      # timestamp of the newest closed row


class AnalyticsEngine:
    """Vectorized trend/anomaly readings for one gmetad's archives."""

    def __init__(self, gmetad: "GmetadBase", config: AnalyticsConfig) -> None:
        self.gmetad = gmetad
        self.config = config
        self.passes = 0
        self.series_analyzed = 0
        self.anomalies = 0  # |z| >= config.anomaly_z in the latest pass
        self._last_pass_t = -math.inf
        self._last_publish_t = -math.inf
        self._installing = False
        self._keys: List[MetricKey] = []
        self._index: Dict[MetricKey, int] = {}
        self._latest = np.zeros(0)
        self._slope = np.zeros(0)
        self._zscore = np.zeros(0)
        self._row_seconds = gmetad.archiver.store.step if hasattr(
            gmetad.archiver.store, "step"
        ) else 15.0
        self._end_times = np.zeros(0)
        gmetad.archiver.on_flush = self._on_flush

    # -- flush-driven recompute ---------------------------------------------

    def _on_flush(self, source: str, t: float) -> None:
        if self._installing or source == ANALYTICS_SOURCE:
            return
        if t <= self._last_pass_t:
            return  # coalesce: detail + summary flushes share a timestamp
        if t - self._last_pass_t < self.config.cadence:
            return
        self.recompute(t)
        if (
            self.config.publish
            and t - self._last_publish_t >= self.config.publish_interval
        ):
            self.publish(t)

    def recompute(self, t: float) -> None:
        """One analytics pass over every archived series."""
        self._last_pass_t = t
        keys, values, row_seconds, end_times = self._scalar_window(
            self.gmetad.archiver.store
        )
        if not keys:
            return  # nothing archived yet, or an accounting store
        cfg = self.config
        self._keys = keys
        self._latest = latest_values(values)
        self._slope = rolling_slope(values, row_seconds, cfg.min_points)
        self._zscore = ewma_zscore(
            values, cfg.ewma_alpha, cfg.min_points,
            floor_abs=cfg.z_floor_abs, floor_rel=cfg.z_floor_rel,
        )
        self._row_seconds = row_seconds
        self._end_times = end_times
        self._index = {}  # rebuilt lazily on first lookup
        self.passes += 1
        self.series_analyzed = len(keys)
        with np.errstate(invalid="ignore"):
            self.anomalies = int(
                np.count_nonzero(np.abs(self._zscore) >= cfg.anomaly_z)
            )
        self.gmetad.charge(
            len(keys) * self.gmetad.costs.analytics_series, "analytics"
        )

    # The name is kept for the end-to-end benchmark's span table, which
    # wraps this method by name; it no longer reads series one by one.
    def _scalar_window(self, store):
        """The pass's one window readout, the same call for every store.

        ``store.window_readout`` returns ``(keys, values, row_seconds,
        end_times)`` with each series' last ``window_rows`` finest rows
        right-aligned in its column -- one bank gather on a plain store,
        one per shard on the storage tier.  The stage's own
        ``__analytics__`` series are left out before the read.
        """
        return store.window_readout(
            self.config.window_rows, skip_source=ANALYTICS_SOURCE
        )

    # -- reading access (alarm rules) ----------------------------------------

    def reading(
        self, source: str, host: str, metric: str
    ) -> Optional[SeriesReading]:
        """The latest signals for one (source, host, metric), or None."""
        if not self._keys:
            return None
        if not self._index:
            self._index = {key: i for i, key in enumerate(self._keys)}
        snapshot = self.gmetad.datastore.source(source)
        cluster = (
            snapshot.cluster.name
            if snapshot is not None and snapshot.cluster is not None
            else source
        )
        i = self._index.get(MetricKey(source, cluster, host, metric))
        if i is None:
            return None
        return SeriesReading(
            latest=float(self._latest[i]),
            slope=float(self._slope[i]),
            zscore=float(self._zscore[i]),
            row_seconds=float(self._row_seconds),
            end_time=float(self._end_times[i]),
        )

    # -- in-band publication -------------------------------------------------

    def signals(self) -> Dict[str, float]:
        """The published signal set as plain name -> value."""
        finite_slope = self._slope[~np.isnan(self._slope)]
        finite_z = self._zscore[~np.isnan(self._zscore)]
        return {
            "analytics_anomalies": float(self.anomalies),
            "analytics_max_abs_z": (
                float(np.max(np.abs(finite_z))) if finite_z.size else 0.0
            ),
            "analytics_max_slope": (
                float(np.max(finite_slope)) if finite_slope.size else 0.0
            ),
            "analytics_passes": float(self.passes),
            "analytics_rising": float(np.count_nonzero(finite_slope > 0.0)),
            "analytics_series": float(self.series_analyzed),
        }

    def build_cluster(self, now: float) -> ClusterElement:
        """Render the signal set as a full-form ``__analytics__`` cluster."""
        interval = max(self.config.publish_interval, 1.0)
        cluster = ClusterElement(name=ANALYTICS_SOURCE, localtime=now)
        host = HostElement(
            name=self.gmetad.config.host,
            reported=now,
            tn=0.0,
            tmax=interval * 4.0,
        )
        for name, value in sorted(self.signals().items()):
            host.add_metric(
                MetricElement(
                    name=name,
                    val=f"{value:.6f}".rstrip("0").rstrip("."),
                    mtype=MetricType.DOUBLE,
                    tn=0.0,
                    tmax=interval * 4.0,
                    slope=Slope.BOTH,
                    source=ANALYTICS_METRIC_SOURCE,
                )
            )
        cluster.add_host(host)
        return cluster

    def publish(self, now: float) -> None:
        """Install the signal cluster in band and notify subscribers.

        Archiving the signal series re-enters the flush hook; the
        ``_installing`` guard keeps the stage from analyzing itself
        mid-pass (its series are also excluded from every readout).
        """
        from repro.obs.selfcluster import install_inband_cluster

        self._last_publish_t = now
        cluster = self.build_cluster(now)
        self._installing = True
        try:
            install_inband_cluster(self.gmetad, ANALYTICS_SOURCE, cluster, now)
        finally:
            self._installing = False
        self.gmetad._publish(ANALYTICS_SOURCE, now)
