"""Convenience builder: a whole cluster of gmond agents.

Wires H hosts onto one multicast channel with one agent each, so tests
and examples can say::

    cluster = SimulatedCluster.build(engine, fabric, tcp, rngs,
                                     name="meteor", num_hosts=8)
    cluster.start()

and then point a gmetad data source at ``cluster.gmond_addresses()``.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.gmond.agent import GmondAgent
from repro.gmond.config import GmondConfig
from repro.metrics.generators import MetricSource, RealisticHostModel
from repro.net.address import Address, stable_octet
from repro.net.fabric import Fabric
from repro.net.tcp import TcpNetwork
from repro.net.udp import MulticastChannel
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


class SimulatedCluster:
    """A named cluster: hosts + multicast channel + gmond agents."""

    def __init__(
        self,
        name: str,
        engine: Engine,
        channel: MulticastChannel,
        agents: List[GmondAgent],
    ) -> None:
        self.name = name
        self.engine = engine
        self.channel = channel
        self.agents = agents
        self._started = False

    @classmethod
    def build(
        cls,
        engine: Engine,
        fabric: Fabric,
        tcp: TcpNetwork,
        rngs: RngRegistry,
        name: str,
        num_hosts: int,
        config: Optional[GmondConfig] = None,
        source_factory: Optional[Callable[[str, "RngRegistry"], MetricSource]] = None,
        loss_rate: float = 0.0,
    ) -> "SimulatedCluster":
        """Create hosts ``<name>-0-0 .. <name>-0-{H-1}`` with agents."""
        if num_hosts <= 0:
            raise ValueError("num_hosts must be positive")
        config = config or GmondConfig(cluster_name=name)
        channel = MulticastChannel(
            engine,
            fabric,
            group=f"{config.multicast_group}/{name}",
            loss_rate=loss_rate,
            rng=rngs.stream(f"mcast:{name}"),
        )
        agents: List[GmondAgent] = []
        subnet = stable_octet(name, 200)
        for i in range(num_hosts):
            hostname = f"{name}-0-{i}"
            fabric.add_host(hostname, cluster=name)
            if source_factory is not None:
                source = source_factory(hostname, rngs)
            else:
                source = RealisticHostModel(hostname, rngs.stream(f"model:{hostname}"))
            agent = GmondAgent(
                engine,
                channel,
                tcp,
                config,
                source,
                ip=f"10.{subnet}.0.{i + 1}",
                rng=rngs.stream(f"gmond:{hostname}"),
            )
            agents.append(agent)
        return cls(name, engine, channel, agents)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start every agent (joins channels, arms timers)."""
        for agent in self.agents:
            agent.start()
        self._started = True

    def stop(self) -> None:
        """Stop every agent."""
        for agent in self.agents:
            agent.stop()
        self._started = False

    # -- accessors ---------------------------------------------------------

    @property
    def host_names(self) -> List[str]:
        """Names of the cluster's hosts, in index order."""
        return [a.host for a in self.agents]

    def gmond_addresses(self, count: Optional[int] = None) -> List[Address]:
        """TCP endpoints a gmetad can poll, in fail-over order.

        ``count`` limits how many redundant endpoints are handed out
        (real deployments list 2-3 of the cluster's nodes).
        """
        addresses = [Address.gmond(h) for h in self.host_names]
        return addresses if count is None else addresses[:count]

    def agent(self, host: str) -> GmondAgent:
        """The agent running on a given host."""
        for a in self.agents:
            if a.host == host:
                return a
        raise KeyError(f"no agent on host {host!r}")
