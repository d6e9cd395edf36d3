"""The per-gmetad pub-sub broker.

One broker rides on one gmetad.  After every background parse the
gmetad's publish hook fires; the broker diffs the datastore through its
:class:`~repro.pubsub.delta.DeltaEngine` and pushes scoped deltas to
every matching subscriber.  All CPU the broker burns -- diffing,
serializing, connection setup -- is charged to the *gmetad's*
:class:`~repro.sim.resources.CpuAccount`, so the push-vs-poll
benchmarks measure both designs with the paper's accounting.

Delivery and backpressure
    Each subscriber has a bounded in-order queue.  Notifications are
    pushed one at a time (the next goes out when the previous is
    acked); a delivery timeout leaves the message queued and retries
    later.  When the queue overflows -- a slow or partitioned
    subscriber -- the queued deltas are *dropped* and the subscriber is
    degraded to a full sync: cheaper than unbounded buffering, and the
    subscriber provably converges because the sync carries the whole
    scoped state with the current sequence number.

Hierarchical folding
    A broker configured with ``upstreams`` (data-source name -> child
    broker address) folds its local subscriptions into covering paths
    (:mod:`repro.pubsub.folding`) and holds ONE upstream subscription
    per covering path.  Child deltas arrive once per change, are
    translated into the parent namespace, and fan out locally -- the
    notification tree follows the monitoring tree.  While a relay link
    is live, the parent's own summary-resolution keys for that source
    are excluded from its published state (the child's full-resolution
    feed is canonical), which the delta diff turns into clean
    delete+set transitions for subscribers.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.core.gmetad_base import GmetadBase
from repro.net.address import Address
from repro.net.tcp import Response, TcpTimeout
from repro.pubsub import messages
from repro.pubsub.client import DeltaStream
from repro.pubsub.delta import DeltaEngine, DeltaOp, diff_states
from repro.pubsub.folding import child_scope, covering_paths, prefix_state
from repro.pubsub.registry import (
    DEFAULT_LEASE,
    Subscription,
    SubscriptionError,
    SubscriptionRegistry,
)
from repro.sim.engine import PeriodicTask


def _is_repl_key(key: str) -> bool:
    """Whether a flat key belongs to the read tier's hidden namespace."""
    return key.startswith("__repl__/") or key == "__repl__"


def _repl_rooted(subscription: Subscription) -> bool:
    """Whether a subscription is rooted at ``/__repl__`` (a replica)."""
    segments = subscription.segments
    return segments is not None and segments[:1] == ("__repl__",)


class SubscriberChannel:
    """Broker-side delivery state for one subscriber."""

    def __init__(
        self, broker: "PubSubBroker", subscription: Subscription, max_queue: int
    ) -> None:
        self.broker = broker
        self.subscription = subscription
        self.max_queue = max_queue
        self.queue: Deque[dict] = deque()
        #: set when the broker retires this channel; pump() retry
        #: closures scheduled before the drop check it and die quietly
        self.dropped = False
        self.in_flight = False
        self.need_full_sync = False
        self._sync_in_flight = False
        self.last_seq_sent = -1
        # stats
        self.deltas_sent = 0
        self.full_syncs_sent = 0
        self.deltas_dropped = 0
        self.send_timeouts = 0
        self.last_timeout: Optional[TcpTimeout] = None

    def enqueue_delta(self, seq: int, ops: List[DeltaOp]) -> None:
        """Queue one scoped delta batch for delivery."""
        if self._sync_in_flight:
            # changes landed after the in-flight sync's snapshot was
            # taken: schedule another sync instead of a gapped delta
            self.need_full_sync = True
            return
        if self.need_full_sync:
            return  # the sync is built at send time; it covers these ops
        if len(self.queue) >= self.max_queue:
            # backpressure: drop everything, degrade to full sync
            self.deltas_dropped += len(self.queue) + 1
            self.queue.clear()
            self.need_full_sync = True
        else:
            self.queue.append(
                messages.delta(
                    self.subscription.sub_id, seq, self.last_seq_sent, ops
                )
            )
            self.last_seq_sent = seq
        self.pump()

    def mark_full_sync(self) -> None:
        """Force the next delivery to be a full sync (checkpointing)."""
        self.queue.clear()
        self.need_full_sync = True
        self.pump()

    def pump(self) -> None:
        """Deliver the next pending message, if any and none in flight."""
        if self.dropped or self.in_flight:
            return
        if self.need_full_sync:
            message = self.broker.full_sync_message(self.subscription)
            self.need_full_sync = False
            self._sync_in_flight = True
        elif self.queue:
            message = self.queue[0]
        else:
            return
        was_sync = self._sync_in_flight
        encoded = messages.encode_for(
            message, self.broker.codec_for(self.subscription.sub_id)
        )
        self.broker.charge_push(encoded)
        self.in_flight = True

        def on_response(payload: object, rtt: float) -> None:
            self.in_flight = False
            if was_sync:
                self._sync_in_flight = False
                self.last_seq_sent = message["seq"]
                self.full_syncs_sent += 1
            else:
                if self.queue and self.queue[0] is message:
                    self.queue.popleft()
                self.deltas_sent += 1
            self.pump()

        def on_timeout(error: TcpTimeout) -> None:
            self.in_flight = False
            self.send_timeouts += 1
            self.last_timeout = error  # diagnostic: which endpoint died
            if was_sync:
                self._sync_in_flight = False
                self.need_full_sync = True  # retry the sync later
            self.broker.engine.call_later(self.broker.retry_interval, self.pump)

        self.broker.tcp.request(
            self.broker.host,
            self.subscription.notify,
            encoded,
            on_response=on_response,
            timeout=self.broker.notify_timeout,
            on_timeout=on_timeout,
            request_size=messages.wire_size(encoded),
        )


class UpstreamLink:
    """One folded subscription held against a child broker."""

    def __init__(
        self,
        broker: "PubSubBroker",
        source: str,
        path: str,
        address: Address,
    ) -> None:
        self.broker = broker
        self.source = source
        self.path = path
        self.address = address
        self.sub_id = f"relay:{broker.gmetad.config.name}:{source}:{path}"
        self.stream = DeltaStream()
        self.connected = False
        self._renew_task: Optional[PeriodicTask] = None
        self._subscribe_in_flight = False
        self._sync_in_flight = False
        self._stopped = False
        self.timeouts = 0
        self.last_timeout: Optional[TcpTimeout] = None

    @property
    def synced(self) -> bool:
        return self.stream.synced

    @property
    def mirror(self) -> Dict[str, str]:
        return self.stream.mirror

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "UpstreamLink":
        self._subscribe()
        self._renew_task = self.broker.engine.every(
            self.broker.lease / 3.0, self._renew_tick
        )
        return self

    def stop(self) -> None:
        self._stopped = True
        if self._renew_task is not None:
            self._renew_task.stop()
            self._renew_task = None
        if self.connected:
            self._send(messages.unsubscribe(self.sub_id), lambda m: None)

    # -- child-facing control plane ----------------------------------------

    def _send(self, message: dict, on_reply, *, on_fail=None) -> None:
        encoded = messages.encode(message)
        self.broker.charge_control(encoded)

        def on_response(payload: object, rtt: float) -> None:
            on_reply(messages.decode(payload))

        def on_timeout(error: TcpTimeout) -> None:
            self.timeouts += 1
            self.last_timeout = error
            self.connected = False
            if on_fail is not None:
                on_fail(error)

        self.broker.tcp.request(
            self.broker.host,
            self.address,
            encoded,
            on_response=on_response,
            timeout=self.broker.notify_timeout,
            on_timeout=on_timeout,
            request_size=len(encoded),
        )

    def _subscribe(self) -> None:
        # a reply racing the link's removal must not resubscribe
        if self._stopped or self._subscribe_in_flight:
            return
        self._subscribe_in_flight = True

        def on_reply(message: dict) -> None:
            self._subscribe_in_flight = False
            if message.get("t") == "full":
                self.connected = True
                self._ingest(message)

        self._send(
            messages.subscribe(
                self.sub_id,
                self.path,
                self.broker.lease,
                self.broker.address.host,
                self.broker.address.port,
                # advertise binary on the relay plane when this broker's
                # daemon speaks it; an XML-only child ignores the field
                accept=(
                    "bin1"
                    if getattr(self.broker.gmetad.config, "binary_wire", False)
                    else None
                ),
            ),
            on_reply,
            on_fail=lambda e: setattr(self, "_subscribe_in_flight", False),
        )

    def _renew_tick(self) -> None:
        if self._stopped:
            return
        if not self.connected:
            self._subscribe()
            return

        def on_reply(message: dict) -> None:
            if message.get("t") != "ok":
                self.connected = False
                self._subscribe()

        self._send(messages.renew(self.sub_id, self.broker.lease), on_reply)

    def request_sync(self) -> None:
        if self._stopped or self._sync_in_flight:
            return
        self._sync_in_flight = True

        def on_reply(message: dict) -> None:
            self._sync_in_flight = False
            if message.get("t") == "full":
                self._ingest(message)

        self._send(
            messages.sync_request(self.sub_id),
            on_reply,
            on_fail=lambda e: setattr(self, "_sync_in_flight", False),
        )

    # -- notification ingestion --------------------------------------------

    def _ingest(self, message: dict) -> str:
        """Apply a child data message; relay the state change downtree."""
        before = dict(self.stream.mirror)
        outcome = self.stream.apply_message(message)
        if outcome in ("gap", "unsynced"):
            self.request_sync()
            return outcome
        if outcome in ("applied", "synced"):
            translated = diff_states(
                prefix_state(before, self.source),
                prefix_state(self.stream.mirror, self.source),
            )
            self.broker.relay(translated)
        return outcome

    def on_notification(self, message: dict) -> dict:
        """Handle a pushed ``delta``/``full`` from the child broker."""
        self.connected = True
        self._ingest(message)
        return messages.ok(self.stream.last_seq)


class PubSubBroker:
    """Subscription service + delta publisher for one gmetad."""

    def __init__(
        self,
        gmetad: GmetadBase,
        lease: float = DEFAULT_LEASE,
        max_queue: int = 8,
        notify_timeout: float = 5.0,
        retry_interval: float = 5.0,
        sweep_interval: Optional[float] = None,
        checkpoint_interval: Optional[float] = 600.0,
        upstreams: Optional[Dict[str, Address]] = None,
    ) -> None:
        self.gmetad = gmetad
        self.engine = gmetad.engine
        self.tcp = gmetad.tcp
        self.host = gmetad.config.host
        self.lease = lease
        self.max_queue = max_queue
        self.notify_timeout = notify_timeout
        self.retry_interval = retry_interval
        self.sweep_interval = (
            sweep_interval if sweep_interval is not None else max(lease / 4.0, 1.0)
        )
        self.checkpoint_interval = checkpoint_interval
        self.address = Address.pubsub(gmetad.config.host)
        self.registry = SubscriptionRegistry(lease)
        self.delta_engine = DeltaEngine(
            gmetad.datastore, gmetad.config.heartbeat_window
        )
        #: replication feed for the read tier, attached only when the
        #: gmetad is configured with one -- baseline brokers publish
        #: byte-identical state with zero extra work
        self.feed = None
        if getattr(gmetad.config, "read_tier", None) is not None:
            from repro.readtier.feed import ReplicationFeed

            self.feed = ReplicationFeed(gmetad)
            self.delta_engine.augment = self.feed.state
        self.seq = 0
        self.channels: Dict[str, SubscriberChannel] = {}
        #: negotiated data-plane codec per subscription ("bin1" entries
        #: only; absence means JSON).  Binary is granted only when the
        #: daemon's ``binary_wire`` flag is on AND the subscriber asked.
        self.codecs: Dict[str, str] = {}
        self.upstreams: Dict[str, Address] = dict(upstreams or {})
        self._links: Dict[Tuple[str, str], UpstreamLink] = {}
        self._sweep_task: Optional[PeriodicTask] = None
        self._checkpoint_task: Optional[PeriodicTask] = None
        self._started = False
        # stats
        self.publishes = 0
        self.relays = 0
        self.subscribes = 0
        self.renews = 0
        self.syncs_served = 0
        self.checkpoints = 0
        self.bytes_pushed = 0
        self.bytes_control = 0
        # per-channel counters folded in when a channel is dropped or
        # replaced, so stats() stays cumulative across reconnects
        self._retired: Dict[str, float] = {
            "deltas_sent": 0,
            "full_syncs_sent": 0,
            "deltas_dropped": 0,
            "send_timeouts": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "PubSubBroker":
        """Listen, hook into the gmetad's publish path, arm the sweeps."""
        if self._started:
            raise RuntimeError(f"broker on {self.host} already started")
        self._started = True
        self.tcp.listen(self.address, self._handle)
        self.gmetad.publish_hooks.append(self._on_publish)
        self._sweep_task = self.engine.every(self.sweep_interval, self._sweep)
        if self.checkpoint_interval is not None:
            self._checkpoint_task = self.engine.every(
                self.checkpoint_interval, self._checkpoint
            )
        return self

    def stop(self) -> None:
        """Detach from the gmetad and drop all delivery state."""
        if self._sweep_task is not None:
            self._sweep_task.stop()
            self._sweep_task = None
        if self._checkpoint_task is not None:
            self._checkpoint_task.stop()
            self._checkpoint_task = None
        for link in list(self._links.values()):
            link.stop()
        self._links.clear()
        if self._on_publish in self.gmetad.publish_hooks:
            self.gmetad.publish_hooks.remove(self._on_publish)
        self.tcp.close(self.address)
        self._started = False

    # -- accounting ---------------------------------------------------------

    def codec_for(self, sub_id: str) -> str:
        """The negotiated data-plane codec for one subscription."""
        return self.codecs.get(sub_id, "xml")

    def charge_push(self, encoded: object) -> None:
        """Charge one outbound notification to the gmetad's CPU."""
        nbytes = messages.wire_size(encoded)
        self.bytes_pushed += nbytes
        seconds = self.gmetad.charge(self.gmetad.costs.tcp_connect, "network")
        seconds += self.gmetad.charge(
            self.gmetad.costs.serve_byte * nbytes, "serve"
        )
        if self.gmetad.obs is not None:
            self.gmetad.obs.record_push(
                nbytes,
                seconds,
                codec="binary" if isinstance(encoded, bytes) else "xml",
            )

    def charge_control(self, encoded: str) -> None:
        """Charge an upstream control request (subscribe/renew/sync)."""
        self.bytes_control += len(encoded)
        self.gmetad.charge(self.gmetad.costs.tcp_connect, "network")

    # -- publishing ----------------------------------------------------------

    def relayed_sources(self) -> Set[str]:
        """Sources whose feed currently comes from an upstream link."""
        return {
            link.source for link in self._links.values() if link.synced
        }

    def _on_publish(self, source: str, now: float) -> None:
        """The gmetad publish hook: diff the datastore, fan out."""
        self.publishes += 1
        before = self.delta_engine.keys_scanned
        ops = self.delta_engine.advance(exclude_sources=self.relayed_sources())
        self.gmetad.charge(
            self.gmetad.costs.hash_insert
            * (self.delta_engine.keys_scanned - before),
            "query",
        )
        self._dispatch(ops)

    def relay(self, ops: List[DeltaOp]) -> None:
        """Fan out ops relayed from an upstream link."""
        self.relays += 1
        self._dispatch(ops)

    def _sees(self, subscription: Subscription, key: str) -> bool:
        """Path match plus the hidden-namespace gate.

        ``__repl__`` keys go only to subscriptions explicitly rooted at
        ``/__repl__``; a ``/``-rooted viewer (whose empty segment tuple
        prefix-matches everything) never sees the replication feed.
        """
        if _is_repl_key(key):
            return _repl_rooted(subscription)
        return subscription.matches_key(key)

    def _dispatch(self, ops: List[DeltaOp]) -> None:
        if not ops:
            return
        self.seq += 1
        # split the ops once: a /__repl__ subscription can see only keys
        # that start with the namespace's name, any other only public ones
        hidden = [op for op in ops if op.path.startswith("__repl__")]
        public = [op for op in ops if not _is_repl_key(op.path)]
        for subscription in self.registry.subscriptions():
            if _repl_rooted(subscription):
                scoped = [op for op in hidden if self._sees(subscription, op.path)]
            else:
                scoped = [op for op in public if subscription.matches_key(op.path)]
            if not scoped:
                continue
            channel = self.channels.get(subscription.sub_id)
            if channel is not None:
                channel.enqueue_delta(self.seq, scoped)

    # -- state views ---------------------------------------------------------

    def current_state(self) -> Dict[str, str]:
        """The full published view: own keys plus translated relays.

        Built from the *published* delta-engine state (not a fresh
        flatten), so a full sync at sequence ``seq`` is exactly the
        state a subscriber reaches by applying every delta up to
        ``seq`` -- the property the recovery tests assert.
        """
        state = dict(self.delta_engine.state)
        for link in self._links.values():
            if link.synced:
                state.update(prefix_state(link.mirror, link.source))
        return state

    def full_sync_message(self, subscription: Subscription) -> dict:
        """Build the scoped full-sync payload for one subscription."""
        scoped = {
            key: value
            for key, value in self.current_state().items()
            if self._sees(subscription, key)
        }
        return messages.full_sync(subscription.sub_id, self.seq, scoped)

    # -- request handling ----------------------------------------------------

    def _handle(self, client: str, payload: object) -> Response:
        seconds = self.gmetad.charge(self.gmetad.costs.tcp_connect, "network")
        try:
            message = messages.decode(payload)
        except messages.MessageError as exc:
            return Response(
                messages.encode(messages.error(str(exc))), service_seconds=seconds
            )
        kind = message.get("t")
        if kind == "sub":
            reply = self._handle_subscribe(message)
        elif kind == "renew":
            self.renews += 1
            renewed = self.registry.renew(
                message.get("id", ""), self.engine.now, message.get("lease")
            )
            reply = messages.ok(self.seq) if renewed else messages.error(
                "unknown-subscription"
            )
        elif kind == "unsub":
            sub_id = message.get("id", "")
            self.registry.unsubscribe(sub_id)
            self._drop_channel(sub_id)
            self.codecs.pop(sub_id, None)
            self._refresh_folding()
            reply = messages.ok()
        elif kind == "sync":
            reply = self._handle_sync(message)
        elif kind in ("delta", "full"):
            reply = self._handle_upstream_notification(message)
        else:
            reply = messages.error(f"unknown message type {kind!r}")
        # data-plane replies (the initial/requested full sync) honour the
        # subscriber's negotiated codec; control replies stay JSON
        codec = (
            self.codec_for(message.get("id", ""))
            if reply.get("t") in ("delta", "full")
            else "xml"
        )
        encoded = messages.encode_for(reply, codec)
        seconds += self.gmetad.charge(
            self.gmetad.costs.serve_byte * messages.wire_size(encoded), "serve"
        )
        return Response(encoded, service_seconds=seconds)

    def _handle_subscribe(self, message: dict) -> dict:
        try:
            subscription = self.registry.subscribe(
                message.get("id", ""),
                message.get("path", "/"),
                Address(message.get("nh", ""), int(message.get("np", 0))),
                self.engine.now,
                message.get("lease"),
            )
        except (SubscriptionError, ValueError) as exc:
            return messages.error(str(exc))
        self.subscribes += 1
        offered = message.get("acc")
        if offered == "bin1" and getattr(
            self.gmetad.config, "binary_wire", False
        ):
            self.codecs[subscription.sub_id] = "bin1"
            if self.gmetad.obs is not None:
                self.gmetad.obs.record_negotiation("accepted")
        else:
            self.codecs.pop(subscription.sub_id, None)
            if offered and self.gmetad.obs is not None:
                self.gmetad.obs.record_negotiation("fell_back")
        self._drop_channel(subscription.sub_id)  # replace, keep counters
        channel = SubscriberChannel(self, subscription, self.max_queue)
        # the subscribe response IS the initial full sync; the delta
        # chain continues from its sequence number
        channel.last_seq_sent = self.seq
        self.channels[subscription.sub_id] = channel
        self._refresh_folding()
        return self.full_sync_message(subscription)

    def _handle_sync(self, message: dict) -> dict:
        subscription = self.registry.get(message.get("id", ""))
        if subscription is None:
            return messages.error("unknown-subscription")
        self.syncs_served += 1
        channel = self.channels.get(subscription.sub_id)
        if channel is not None:
            # the served sync resets the subscriber to the current
            # sequence: queued (pre-sync) deltas are now stale
            channel.queue.clear()
            channel.need_full_sync = False
            channel.last_seq_sent = self.seq
        return self.full_sync_message(subscription)

    def _handle_upstream_notification(self, message: dict) -> dict:
        sub_id = message.get("id", "")
        for link in self._links.values():
            if link.sub_id == sub_id:
                return link.on_notification(message)
        return messages.error("unknown-relay")

    # -- soft-state maintenance ----------------------------------------------

    def _drop_channel(self, sub_id: str) -> None:
        """Remove a delivery channel, folding its counters into stats."""
        channel = self.channels.pop(sub_id, None)
        if channel is None:
            return
        # neutralize in-flight retry closures: a replaced channel's
        # pending pump() must not push a stale sync at the subscriber's
        # NEW channel mid-checkpoint (it would desync the fresh stream)
        channel.dropped = True
        self._retired["deltas_sent"] += channel.deltas_sent
        self._retired["full_syncs_sent"] += channel.full_syncs_sent
        self._retired["deltas_dropped"] += channel.deltas_dropped
        self._retired["send_timeouts"] += channel.send_timeouts

    def _sweep(self) -> None:
        expired = self.registry.expire(self.engine.now)
        for subscription in expired:
            self._drop_channel(subscription.sub_id)
            self.codecs.pop(subscription.sub_id, None)
        if expired:
            self._refresh_folding()

    def _checkpoint(self) -> None:
        """Periodic full-sync checkpoint to every subscriber."""
        self.checkpoints += 1
        for channel in self.channels.values():
            channel.mark_full_sync()

    # -- folding -------------------------------------------------------------

    def _refresh_folding(self) -> None:
        """Reconcile upstream links with the folded local interest set."""
        if not self.upstreams:
            return
        paths = [s.path for s in self.registry.subscriptions()]
        desired: Set[Tuple[str, str]] = set()
        for source in self.upstreams:
            scoped = [
                translated
                for translated in (child_scope(p, source) for p in paths)
                if translated is not None
            ]
            if not scoped:
                continue
            for cover in covering_paths(scoped):
                desired.add((source, cover))
        for key in [k for k in self._links if k not in desired]:
            self._links.pop(key).stop()
        for source, cover in sorted(desired - set(self._links)):
            link = UpstreamLink(self, source, cover, self.upstreams[source])
            self._links[(source, cover)] = link
            link.start()

    # -- introspection -------------------------------------------------------

    @property
    def upstream_links(self) -> List[UpstreamLink]:
        """Live upstream relay links (for tests and reports)."""
        return [self._links[k] for k in sorted(self._links)]

    def stats(self) -> Dict[str, float]:
        """Aggregate counters (live channels plus retired ones)."""
        channels = list(self.channels.values())
        retired = self._retired
        return {
            "subscriptions": len(self.registry),
            "publishes": self.publishes,
            "relays": self.relays,
            "seq": self.seq,
            "bytes_pushed": self.bytes_pushed,
            "deltas_sent": retired["deltas_sent"]
            + sum(c.deltas_sent for c in channels),
            "full_syncs_sent": retired["full_syncs_sent"]
            + sum(c.full_syncs_sent for c in channels),
            "deltas_dropped": retired["deltas_dropped"]
            + sum(c.deltas_dropped for c in channels),
            "send_timeouts": retired["send_timeouts"]
            + sum(c.send_timeouts for c in channels),
            "checkpoints": self.checkpoints,
            "expirations": self.registry.expirations,
        }
