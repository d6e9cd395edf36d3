"""The subscription registry: interest paths with lease-based soft state.

Subscriptions are keyed by query-engine paths -- the exact grammar of
:mod:`repro.core.query` (``/meteor/compute-0-0``) or the regex grammar
of :mod:`repro.core.query_regex` (``~/meteor|nashi/compute-0-\\d+``).
Each carries a *lease*: like a gmond heartbeat, a subscription that is
not renewed within its lease silently expires, so a crashed or
partitioned subscriber never leaves permanent state behind (soft-state
discipline, §2.1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Pattern, Tuple

from repro.core.query import GmetadQuery, QueryError
from repro.core.query_regex import RegexQuery, RegexQueryError, is_regex_query
from repro.net.address import Address
from repro.pubsub.delta import key_segments

#: Default lease, chosen like gmond's heartbeat window: long enough to
#: ride out a couple of missed renewals, short enough that dead
#: subscribers are reaped within a minute.
DEFAULT_LEASE = 60.0


class SubscriptionError(ValueError):
    """Bad subscription parameters (path, lease)."""


@dataclass
class Subscription:
    """One subscriber's registered interest."""

    sub_id: str
    path: str                 # canonical path text ("/a/b" or "~/a.*/b")
    notify: Address           # where notifications are pushed
    lease: float
    expires_at: float
    segments: Optional[Tuple[str, ...]] = None       # exact paths
    patterns: Optional[Tuple[Pattern[str], ...]] = None  # regex paths
    created_at: float = 0.0
    renewals: int = field(default=0)

    def matches_key(self, key: str) -> bool:
        """True if a flat delta path falls inside this subscription.

        Prefix semantics: ``/sdsc-c0`` covers every key below the
        ``sdsc-c0`` source.  A key *shorter* than a regex pattern path
        matches if its available segments do -- subscribers receive the
        structural context (source/host liveness) of their interest.
        """
        segs = key_segments(key)
        if self.segments is not None:
            if len(segs) < len(self.segments):
                return False
            return segs[: len(self.segments)] == self.segments
        assert self.patterns is not None
        for pattern, seg in zip(self.patterns, segs):
            if not pattern.match(seg):
                return False
        return True

    @property
    def is_regex(self) -> bool:
        return self.patterns is not None


def parse_path(path: str) -> Tuple[str, Optional[Tuple[str, ...]], Optional[Tuple]]:
    """Validate a subscription path; returns (canonical, segments, patterns)."""
    if is_regex_query(path):
        try:
            query = RegexQuery.parse(path)
        except RegexQueryError as exc:
            raise SubscriptionError(str(exc)) from None
        return path.strip(), None, query.patterns
    try:
        query = GmetadQuery.parse(path)
    except QueryError as exc:
        raise SubscriptionError(str(exc)) from None
    return query.render().split("?")[0] or "/", query.path, None


class SubscriptionRegistry:
    """All live subscriptions of one broker, with lease expiry."""

    def __init__(self, default_lease: float = DEFAULT_LEASE) -> None:
        if default_lease <= 0:
            raise SubscriptionError("default lease must be positive")
        self.default_lease = default_lease
        self._subs: Dict[str, Subscription] = {}
        self.expirations = 0

    def __len__(self) -> int:
        return len(self._subs)

    def __contains__(self, sub_id: str) -> bool:
        return sub_id in self._subs

    def get(self, sub_id: str) -> Optional[Subscription]:
        return self._subs.get(sub_id)

    def subscribe(
        self,
        sub_id: str,
        path: str,
        notify: Address,
        now: float,
        lease: Optional[float] = None,
    ) -> Subscription:
        """Register (or replace) a subscription; returns the record."""
        if not sub_id:
            raise SubscriptionError("subscription id must be non-empty")
        lease = self.default_lease if lease is None else float(lease)
        if lease <= 0:
            raise SubscriptionError(f"lease must be positive, got {lease}")
        canonical, segments, patterns = parse_path(path)
        sub = Subscription(
            sub_id=sub_id,
            path=canonical,
            notify=notify,
            lease=lease,
            expires_at=now + lease,
            segments=segments,
            patterns=patterns,
            created_at=now,
        )
        self._subs[sub_id] = sub
        return sub

    def renew(
        self, sub_id: str, now: float, lease: Optional[float] = None
    ) -> bool:
        """Extend a lease; False if the subscription is unknown/expired."""
        sub = self._subs.get(sub_id)
        if sub is None:
            return False
        if lease is not None and lease > 0:
            sub.lease = float(lease)
        sub.expires_at = now + sub.lease
        sub.renewals += 1
        return True

    def unsubscribe(self, sub_id: str) -> bool:
        """Drop a subscription; False if it was not present."""
        return self._subs.pop(sub_id, None) is not None

    def expire(self, now: float) -> List[Subscription]:
        """Reap every subscription whose lease ran out; returns them."""
        dead = [s for s in self._subs.values() if s.expires_at <= now]
        for sub in dead:
            del self._subs[sub.sub_id]
            self.expirations += 1
        return dead

    def matching(self, key: str) -> List[Subscription]:
        """Subscriptions whose interest covers one flat delta path."""
        return [s for s in self._subs.values() if s.matches_key(key)]

    def subscriptions(self) -> List[Subscription]:
        """All live subscriptions, ordered by id (deterministic)."""
        return [self._subs[k] for k in sorted(self._subs)]
