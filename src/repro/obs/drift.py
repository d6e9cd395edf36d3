"""Drift auditor: cross-check incremental summaries against eager folds.

The incremental pipeline's delta summarization is only trustworthy if it
stays *wire-identical* to an eager re-fold -- a property that silently
decayed once before (float residue serializing as ``"-0"``, the tier-1
`-0` drift).  This auditor is the observability substrate that would
have caught it in production: on a sampling cadence it re-folds each
cluster source eagerly, serializes both summaries, and records any
byte-level divergence to the registry (and a ``drift_audit`` span).

The re-fold reads the snapshot's columns with
:func:`summarize_columns`, the bit-identical twin of the scalar eager
fold; it builds no element tree.

The audit is an *observer* diagnostic: the eager re-fold is not charged
to the daemon's CPU account, so enabling it never perturbs the numbers
it is checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

from repro.columnar import summarize_columns
from repro.obs.config import SELF_SOURCE
from repro.wire.model import SummaryInfo
from repro.wire.writer import XmlWriter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.gmetad_base import GmetadBase


def summary_wire_form(summary: SummaryInfo) -> str:
    """The exact bytes a summary-form serve emits for this summary."""
    writer = XmlWriter()
    writer.summary_info(summary)
    return writer.result()


@dataclass
class DriftReport:
    """Result of one audit sweep."""

    checked: int = 0
    diverged: List[str] = field(default_factory=list)
    #: worst absolute SUM difference seen this sweep, per metric name
    max_abs_delta: float = 0.0
    details: Dict[str, str] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.diverged


def audit_gmetad(gmetad: "GmetadBase") -> DriftReport:
    """Compare every cluster source's installed summary to an eager fold.

    Works on any gmetad: with the incremental pipeline on, the installed
    summary came from a :class:`ColumnarSummaryTracker` and this is the
    incremental-vs-eager equivalence check; with it off the comparison
    is trivially clean (same code produced both sides).  Empty and
    summary-form clusters have no full form to re-fold and are skipped,
    and a design that does not summarize has nothing to audit.
    """
    report = DriftReport()
    if not gmetad.summarizes:
        return report
    window = gmetad.config.heartbeat_window
    for name, snapshot in gmetad.datastore.sources.items():
        cols = snapshot.columns
        if name == SELF_SOURCE or cols is None or cols.host_count == 0:
            continue
        eager, _ = summarize_columns(cols, window)
        report.checked += 1
        incremental = snapshot.summary
        incremental_wire = summary_wire_form(incremental)
        eager_wire = summary_wire_form(eager)
        for metric_name, ms in eager.metrics.items():
            ours = incremental.metrics.get(metric_name)
            if ours is not None:
                delta = abs(ours.total - ms.total)
                if delta > report.max_abs_delta:
                    report.max_abs_delta = delta
        if incremental_wire != eager_wire:
            report.diverged.append(name)
            report.details[name] = (
                f"incremental {len(incremental_wire)}B != "
                f"eager {len(eager_wire)}B"
            )
    return report


class DriftAuditor:
    """Periodic audit bound to one observed gmetad."""

    def __init__(self, gmetad: "GmetadBase") -> None:
        self.gmetad = gmetad
        self.sweeps = 0
        self.total_divergences = 0
        self.last_report: DriftReport = DriftReport()

    def sweep(self) -> DriftReport:
        """Run one audit and record the outcome in the registry."""
        obs = self.gmetad.obs
        start = self.gmetad.engine.now
        report = audit_gmetad(self.gmetad)
        self.sweeps += 1
        self.total_divergences += len(report.diverged)
        self.last_report = report
        if obs is not None:
            registry = obs.registry
            registry.counter("drift_sweeps").inc()
            registry.counter("drift_divergences").inc(len(report.diverged))
            registry.gauge("drift_sources_checked").set(report.checked)
            registry.gauge("drift_max_abs_delta").set(report.max_abs_delta)
            obs.record_span(
                "drift_audit",
                start,
                0.0,  # observer work: free on the simulated CPU
                checked=report.checked,
                diverged=len(report.diverged),
            )
        return report
