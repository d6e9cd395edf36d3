"""One gmond agent: collect local metrics, multicast them, listen to peers.

The agent implements gmond's send discipline: each metric has a
collection period, a value threshold (send early when the value moved)
and a ``tmax`` (send anyway when stale).  Every agent also answers TCP
requests with the *entire* cluster state it has assembled from the
multicast channel -- the redundancy gmetad fail-over relies on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.gmond import xdr
from repro.gmond.config import GmondConfig
from repro.gmond.state import ClusterState
from repro.metrics.generators import MetricSource
from repro.metrics.types import MetricSample, MetricType
from repro.net.address import Address, stable_octet
from repro.net.tcp import Response, TcpNetwork
from repro.net.udp import MulticastChannel
from repro.sim.engine import Engine, PeriodicTask
from repro.wire.binfmt import (
    CODEC_BINARY,
    BinaryFrame,
    encode_cluster_document,
    split_accept,
)
from repro.wire.model import GangliaDocument
from repro.wire.writer import write_document

#: seconds between soft-state expiry sweeps (metric DMAX, host_dmax)
CLEANUP_INTERVAL = 180.0


@dataclass
class MetricMessage:
    """One metric report in logical form.

    The wire carries XDR bytes (see :mod:`repro.gmond.xdr`); this class
    is the decoded view plus the sender identity the receiving socket
    supplies.  ``size_bytes`` is the actual encoded length.
    """

    host: str
    ip: str
    sample: MetricSample

    def to_bytes(self) -> bytes:
        return xdr.encode_metric(self.sample)

    @classmethod
    def from_bytes(
        cls, data: bytes, src_host: str, src_ip: str, received_at: float
    ) -> "MetricMessage":
        sample = xdr.decode_metric(data, received_at=received_at)
        return cls(host=src_host, ip=src_ip, sample=sample)

    @property
    def size_bytes(self) -> int:
        return len(self.to_bytes())


class GmondAgent:
    """Gmond daemon on one simulated cluster host."""

    def __init__(
        self,
        engine: Engine,
        channel: MulticastChannel,
        tcp: TcpNetwork,
        config: GmondConfig,
        source: MetricSource,
        ip: str = "",
        rng: Optional[random.Random] = None,
    ) -> None:
        self.engine = engine
        self.channel = channel
        self.tcp = tcp
        self.config = config
        self.source = source
        self.host = source.host
        self.ip = ip or f"10.0.0.{stable_octet(self.host, 250) + 1}"
        fabric_host = channel.fabric.host(self.host)
        if not fabric_host.ip:
            fabric_host.ip = self.ip
        self.state = ClusterState(config)
        self.decode_errors = 0
        self._rng = rng or random.Random(0)
        self._last_sent: Dict[str, tuple[float, object]] = {}  # name -> (time, value)
        self._tasks: List[PeriodicTask] = []
        self._started = False
        self.reports_sent = 0
        self.binary_served = 0
        self._binfmt_pool = None  # lazy: XML-only pollers never build one
        # The agent's own TCP endpoint serving the full cluster report.
        self._server = tcp.listen(Address.gmond(self.host), self._serve_xml)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Join the channel, arm collection timers, send initial reports."""
        if self._started:
            raise RuntimeError(f"gmond on {self.host} already started")
        self._started = True
        self.channel.join(self.host, self._on_datagram)
        jitter = self.config.send_jitter

        def jitter_fn(period: float):
            return lambda: self._rng.uniform(-jitter * period, jitter * period)

        # Group metrics by collection period: one timer per period class.
        by_period: Dict[float, List[str]] = {}
        for mdef in self.config.metric_defs:
            by_period.setdefault(mdef.collect_every, []).append(mdef.name)
        for period, names in by_period.items():
            task = self.engine.every(
                period,
                lambda ns=names: self._collect(ns),
                initial_delay=self._rng.uniform(0.0, period),
                jitter_fn=jitter_fn(period),
            )
            self._tasks.append(task)
        hb = self.config.heartbeat_interval
        self._tasks.append(
            self.engine.every(
                hb,
                self._heartbeat,
                initial_delay=self._rng.uniform(0.0, hb),
                jitter_fn=jitter_fn(hb),
            )
        )
        self._tasks.append(
            self.engine.every(
                CLEANUP_INTERVAL,
                lambda: self.state.expire(self.engine.now),
            )
        )
        # Announce everything shortly after startup so peers learn us
        # quickly.  The announce is deferred (not inline) so that a batch
        # of agents started in the same event all join the channel before
        # any of them bursts -- real daemons come up seconds apart and
        # rely on tmax retransmits, which also works here but takes
        # minutes for the slow constant metrics.
        self.engine.call_later(
            self._rng.uniform(0.1, 2.0),
            lambda: self._collect(
                [d.name for d in self.config.metric_defs], force=True
            ),
        )

    def stop(self) -> None:
        """Stop all timers and leave the channel (simulates daemon death)."""
        for task in self._tasks:
            task.stop()
        self._tasks.clear()
        self.channel.leave(self.host)
        self.tcp.close(Address.gmond(self.host))
        self._started = False

    # -- sending -----------------------------------------------------------

    def _should_send(self, sample: MetricSample, now: float) -> bool:
        mdef = self.source.definition(sample.name)
        last = self._last_sent.get(sample.name)
        if last is None:
            return True
        last_time, last_value = last
        if now - last_time >= mdef.tmax:
            return True
        if sample.mtype is MetricType.STRING:
            return sample.value != last_value
        try:
            return abs(float(sample.value) - float(last_value)) >= mdef.value_threshold
        except (TypeError, ValueError):
            return True

    def _collect(self, names: List[str], force: bool = False) -> None:
        now = self.engine.now
        for name in names:
            sample = self.source.sample(name, now)
            if force or self._should_send(sample, now):
                self._send(sample, now)

    def _heartbeat(self) -> None:
        now = self.engine.now
        sample = MetricSample(
            name="heartbeat",
            value=int(now),
            mtype=MetricType.UINT32,
            tmax=self.config.heartbeat_interval,
            reported_at=now,
        )
        self._send(sample, now)

    def _send(self, sample: MetricSample, now: float) -> None:
        self._last_sent[sample.name] = (now, sample.value)
        data = xdr.encode_metric(sample)
        self.channel.send(self.host, data, len(data))
        self.reports_sent += 1

    # -- receiving -----------------------------------------------------------

    def _on_datagram(self, src: str, payload: object, size: int) -> None:
        if not isinstance(payload, (bytes, bytearray)):
            self.decode_errors += 1
            return  # foreign datagram on the channel; gmond ignores junk
        try:
            sample = xdr.decode_metric(bytes(payload), received_at=self.engine.now)
        except xdr.XdrError:
            self.decode_errors += 1
            return
        src_ip = self.channel.fabric.host(src).ip if self.channel.fabric.has_host(src) else ""
        self.state.on_metric(src, sample, self.engine.now, ip=src_ip)

    # -- serving ---------------------------------------------------------------

    def _serve_xml(self, client: str, request: object) -> Response:
        """Serve the complete cluster report, rendered fresh.

        Plain gmond ignores the request.  A poller that offers
        ``accept=bin1`` gets the same report as one binary frame
        (:mod:`repro.wire.binfmt`); XML-only pollers never see one.
        """
        now = self.engine.now
        _, accept = split_accept(str(request))
        if accept == CODEC_BINARY:
            return Response(self._render_frame(now))
        doc = GangliaDocument(version="2.5.4", source="gmond")
        doc.add_cluster(self.state.to_cluster_element(now))
        return Response(write_document(doc))

    def _render_frame(self, now: float) -> BinaryFrame:
        """Encode the live cluster report as one binary frame."""
        from repro.columnar.layout import (
            ColumnarDocument,
            InternPool,
            columns_from_cluster,
        )

        if self._binfmt_pool is None:
            self._binfmt_pool = InternPool()
        doc = ColumnarDocument(
            version="2.5.4",
            source="gmond",
            clusters=[
                columns_from_cluster(
                    self.state.to_cluster_element(now), self._binfmt_pool
                )
            ],
        )
        self.binary_served += 1
        return BinaryFrame(encode_cluster_document(doc))
