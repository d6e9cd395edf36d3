"""Topology: hosts, links, up/down state and partitions.

The fabric answers one question for the transports: *can A talk to B
right now, and with what latency/bandwidth?*  Host failures (stop and
intermittent, §1 of the paper) and wide-area partitions are expressed by
mutating fabric state; the transports consult it on every send.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterable, Optional


@dataclass
class LinkSpec:
    """Latency/bandwidth characteristics of a (class of) link.

    ``latency`` is the one-way propagation delay in seconds; ``bandwidth``
    is in bytes/second.  The defaults model the paper's dedicated Gigabit
    Ethernet; wide-area trust edges typically get a higher-latency spec.
    """

    latency: float = 0.0002  # 0.2 ms one-way on a LAN
    bandwidth: float = 125e6  # 1 Gbit/s in bytes/s

    def transfer_time(self, size_bytes: int) -> float:
        """One-way time to move ``size_bytes``, propagation included."""
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        return self.latency + size_bytes / self.bandwidth


#: A wide-area link: 20 ms one-way, 100 Mbit/s.
WAN_LINK = LinkSpec(latency=0.020, bandwidth=12.5e6)
#: A LAN link: 0.2 ms one-way, 1 Gbit/s.
LAN_LINK = LinkSpec()


@dataclass(frozen=True)
class GrayConditions:
    """Byzantine (gray) conditions on one link pair.

    Unlike a cut, a gray link still delivers -- it just delivers badly.
    All probabilities apply per response; draws come from the transport's
    own seeded stream so chaos runs replay deterministically.

    - ``corrupt_probability`` / ``truncate_probability``: chance the
      response payload is mangled in flight (overwritten span vs cut
      short).  Corruption wins the coin flip first.
    - ``spike_probability`` / ``spike_seconds``: chance a response is
      held an extra ``spike_seconds`` (bufferbloat, route flap, GC
      pause on a middlebox).
    - ``bandwidth_factor``: multiplier on effective bandwidth in (0, 1];
      1.0 means the link runs at its specified rate.
    """

    corrupt_probability: float = 0.0
    truncate_probability: float = 0.0
    spike_probability: float = 0.0
    spike_seconds: float = 0.0
    bandwidth_factor: float = 1.0

    def __post_init__(self) -> None:
        for name in (
            "corrupt_probability",
            "truncate_probability",
            "spike_probability",
        ):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        if self.spike_seconds < 0.0:
            raise ValueError("spike_seconds must be non-negative")
        if not (0.0 < self.bandwidth_factor <= 1.0):
            raise ValueError("bandwidth_factor must be in (0, 1]")

    @property
    def is_clear(self) -> bool:
        """True when every field is back at its benign default."""
        return (
            self.corrupt_probability == 0.0
            and self.truncate_probability == 0.0
            and self.spike_probability == 0.0
            and self.bandwidth_factor == 1.0
        )


class Host:
    """One simulated machine.  ``up`` is toggled by the fault injector.

    ``ip`` stands in for what a receiving socket would report as the
    datagram's source address (gmond learns peer IPs that way).
    """

    def __init__(
        self, name: str, cluster: Optional[str] = None, ip: str = ""
    ) -> None:
        if not name:
            raise ValueError("host name must be non-empty")
        self.name = name
        self.cluster = cluster
        self.ip = ip
        self.up = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "DOWN"
        return f"Host({self.name!r}, {state})"


class Fabric:
    """Registry of hosts plus reachability and link lookup."""

    def __init__(self, default_link: Optional[LinkSpec] = None) -> None:
        self._hosts: Dict[str, Host] = {}
        self._default_link = default_link or LAN_LINK
        # explicit per-pair links, keyed by frozenset({a, b})
        self._links: Dict[FrozenSet[str], LinkSpec] = {}
        # severed pairs (partitions), same keying; refcounted so
        # overlapping partitions heal correctly (a pair cut by two
        # partitions stays cut until both heal)
        self._cut: Dict[FrozenSet[str], int] = {}
        # gray (byzantine) conditions per pair, same keying
        self._gray: Dict[FrozenSet[str], GrayConditions] = {}

    # -- hosts -----------------------------------------------------------

    def add_host(
        self, name: str, cluster: Optional[str] = None, ip: str = ""
    ) -> Host:
        """Register a new simulated host (names must be unique)."""
        if name in self._hosts:
            raise ValueError(f"duplicate host {name!r}")
        host = Host(name, cluster, ip)
        self._hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        """Look up a host by name; KeyError if unknown."""
        try:
            return self._hosts[name]
        except KeyError:
            raise KeyError(f"unknown host {name!r}") from None

    def has_host(self, name: str) -> bool:
        """True if a host of that name is registered."""
        return name in self._hosts

    def hosts(self) -> Iterable[Host]:
        """All registered hosts."""
        return self._hosts.values()

    def set_host_up(self, name: str, up: bool) -> None:
        """Toggle a host's up/down state (the fault injector's hook)."""
        self.host(name).up = up

    # -- links -----------------------------------------------------------

    def set_link(self, a: str, b: str, spec: LinkSpec) -> None:
        """Override the link spec between hosts ``a`` and ``b``."""
        self._links[frozenset((a, b))] = spec

    def link(self, a: str, b: str) -> LinkSpec:
        """The link spec between two hosts (loopback is near-instant)."""
        if a == b:
            # loopback: negligible latency, effectively infinite bandwidth
            return LinkSpec(latency=1e-6, bandwidth=1e12)
        return self._links.get(frozenset((a, b)), self._default_link)

    # -- partitions --------------------------------------------------------

    def cut(self, a: str, b: str) -> None:
        """Sever communication between ``a`` and ``b`` (both directions).

        Cuts stack: each :meth:`cut` needs a matching :meth:`heal` before
        the pair is reachable again, so two overlapping partitions that
        both sever a pair don't un-sever it when only one heals.
        """
        key = frozenset((a, b))
        self._cut[key] = self._cut.get(key, 0) + 1

    def heal(self, a: str, b: str) -> None:
        """Undo one :meth:`cut` on the pair (no-op when not cut)."""
        key = frozenset((a, b))
        count = self._cut.get(key, 0)
        if count <= 1:
            self._cut.pop(key, None)
        else:
            self._cut[key] = count - 1

    def partition(self, side_a: Iterable[str], side_b: Iterable[str]) -> None:
        """Sever every link between the two host groups."""
        for a in side_a:
            for b in side_b:
                self.cut(a, b)

    def heal_partition(self, side_a: Iterable[str], side_b: Iterable[str]) -> None:
        """Restore every link between two host groups."""
        for a in side_a:
            for b in side_b:
                self.heal(a, b)

    def heal_all(self) -> None:
        """Remove every partition cut."""
        self._cut.clear()

    # -- gray (byzantine) conditions ---------------------------------------

    def set_gray(self, a: str, b: str, **fields) -> GrayConditions:
        """Merge gray-condition fields onto the pair and return the result.

        Only the named fields change; the rest keep their current value
        (or the benign default if the pair had no conditions yet).  When
        the merge lands every field back at its default the entry is
        dropped entirely, so transports pay nothing on healthy links.
        """
        key = frozenset((a, b))
        current = self._gray.get(key, GrayConditions())
        merged = replace(current, **fields)
        if merged.is_clear:
            self._gray.pop(key, None)
        else:
            self._gray[key] = merged
        return merged

    def gray(self, a: str, b: str) -> Optional[GrayConditions]:
        """The gray conditions on a pair, or None when the link is clean."""
        if a == b:
            return None  # loopback never degrades
        return self._gray.get(frozenset((a, b)))

    def clear_gray(self, a: str, b: str) -> None:
        """Drop every gray condition on the pair."""
        self._gray.pop(frozenset((a, b)), None)

    # -- reachability ------------------------------------------------------

    def reachable(self, src: str, dst: str) -> bool:
        """True if a message from ``src`` can reach ``dst`` right now.

        Requires both endpoints up and the pair not partitioned.  Unknown
        hosts are unreachable rather than an error: a monitor may probe a
        host that was never registered (e.g. a stale configuration entry).
        """
        sh = self._hosts.get(src)
        dh = self._hosts.get(dst)
        if sh is None or dh is None:
            return False
        if not sh.up or not dh.up:
            return False
        if frozenset((src, dst)) in self._cut:
            return False
        return True
