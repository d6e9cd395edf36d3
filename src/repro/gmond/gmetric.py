"""gmetric: publish user-defined metrics into a cluster.

The paper counts "user-defined key-value pairs" among the data gmond
gathers.  In real Ganglia the ``gmetric`` utility multicasts one metric
datagram that every agent incorporates; the value carries a ``dmax`` so
it evaporates from the soft state if the publisher stops refreshing it
-- the publisher's liveness is implicit in the data.

:class:`GmetricPublisher` is that utility:  one-shot :meth:`publish` or
a :meth:`publish_every` loop driven by a callable.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.gmond import xdr
from repro.metrics.types import MetricSample, MetricType
from repro.net.udp import MulticastChannel
from repro.sim.engine import Engine, PeriodicTask

Value = Union[int, float, str]


class GmetricPublisher:
    """Publishes user metrics from one host onto a cluster's channel."""

    def __init__(
        self,
        engine: Engine,
        channel: MulticastChannel,
        host: str,
        ip: str = "",
    ) -> None:
        self.engine = engine
        self.channel = channel
        self.host = host
        self.ip = ip or "10.99.0.1"
        self.published = 0
        self._tasks: list[PeriodicTask] = []

    def publish(
        self,
        name: str,
        value: Value,
        mtype: MetricType = MetricType.FLOAT,
        units: str = "",
        tmax: float = 60.0,
        dmax: float = 240.0,
    ) -> MetricSample:
        """Multicast one user metric value.

        ``dmax`` defaults to four refresh periods: stop publishing and
        the metric disappears from every agent's state (soft state).
        ``dmax=0`` would pin it forever -- rarely what a user wants.
        """
        if not name:
            raise ValueError("metric name must be non-empty")
        if mtype is not MetricType.STRING:
            float(value)  # raises early on junk
        elif "\0" in str(value):
            # XML 1.0 excludes the character: no reply could carry it
            raise ValueError("a STRING metric value must not hold U+0000")
        sample = MetricSample(
            name=name,
            value=value,
            mtype=mtype,
            units=units,
            source="gmetric",
            tmax=tmax,
            dmax=dmax,
            reported_at=self.engine.now,
        )
        data = xdr.encode_metric(sample)
        self.channel.send(self.host, data, len(data))
        self.published += 1
        return sample

    def publish_every(
        self,
        interval: float,
        name: str,
        value_fn: Callable[[float], Value],
        mtype: MetricType = MetricType.FLOAT,
        units: str = "",
        dmax: Optional[float] = None,
    ) -> PeriodicTask:
        """Re-publish ``name`` every ``interval`` s with a fresh value."""
        effective_dmax = dmax if dmax is not None else 4 * interval

        def tick() -> None:
            self.publish(
                name,
                value_fn(self.engine.now),
                mtype=mtype,
                units=units,
                tmax=interval,
                dmax=effective_dmax,
            )

        task = self.engine.every(interval, tick, initial_delay=0.0)
        self._tasks.append(task)
        return task

    def stop(self) -> None:
        """Stop all periodic publications (their values will soon expire)."""
        for task in self._tasks:
            task.stop()
        self._tasks.clear()
