"""Configuration for the replicated read tier.

Kept dependency-free (plain dataclass, no repro imports) because
:mod:`repro.core.tree` imports it into :class:`GmetadConfig` -- the
config gate must not drag the whole serving tier into the core import
graph.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ReadTierConfig:
    """Knobs for one gmetad's read tier.

    Attaching this to ``GmetadConfig.read_tier`` makes the gmetad's
    pub-sub broker export the hidden ``__repl__`` replication feed;
    everything else (replica count, front-door hedging) is consumed by
    :func:`repro.readtier.fleet.build_read_tier`.  ``None`` (the
    default) keeps the single-daemon serving path byte-identical to
    baseline.
    """

    #: default replica count for :func:`build_read_tier` / the CLI
    replicas: int = 2
    #: per-replica in-flight serve bound (0 disables shedding)
    serve_queue_limit: int = 64
    #: front-door hedge deadline bounds (seconds); the deadline itself
    #: is adaptive -- srtt + k*rttvar per replica, clamped to this range
    hedge_floor: float = 0.05
    hedge_ceiling: float = 2.0
    #: hard per-attempt timeout at the front door (a replica that blows
    #: through this is treated as dead, not merely slow)
    request_timeout: float = 5.0
    #: how long an OVERLOADED reply keeps a replica out of the healthy
    #: rendezvous set
    overload_cooldown: float = 3.0
    #: replication-feed subscription lease (soft state, gmond-style)
    lease: float = 60.0
    #: offer the binary pub-sub codec (``accept=bin1``) on the feed
    #: subscription.  Effective only when the ingest daemon's
    #: ``binary_wire`` is on; otherwise the broker falls back to JSON.
    binary_feed: bool = False
    #: columnar serve fast path on each replica: install the columns
    #: decoded from the feed's frames in a per-source fragment arena
    #: (:mod:`repro.serve`), so detail/path viewer queries splice
    #: pre-rendered bytes and ``accept=bin1`` viewers get the shipped
    #: GBF1 frames.  XML replies stay byte-identical either way.
    columnar_serve: bool = False

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("read tier needs at least one replica")
        if self.serve_queue_limit < 0:
            raise ValueError("serve_queue_limit must be >= 0")
        if self.hedge_floor <= 0 or self.hedge_ceiling < self.hedge_floor:
            raise ValueError("need 0 < hedge_floor <= hedge_ceiling")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.overload_cooldown < 0:
            raise ValueError("overload_cooldown must be non-negative")
        if self.lease <= 0:
            raise ValueError("lease must be positive")
