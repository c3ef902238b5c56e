"""Topic-based gossip pub/sub over the simulated network.

The ROADMAP's gossip item is modeled on the consensus-specs Altair
light-client networking section: nodes join named topics
(``light_client_optimistic_update``-style), a publisher floods its mesh
peers, and every hop relays with dedup until the hop budget (TTL) runs out.
:class:`GossipNode` is the transport-level half: it knows nothing about
headers or reputation — domains (:mod:`repro.gossip.heads`,
:mod:`repro.gossip.repshare`) subscribe handlers and publish opaque payload
bytes.

Design points, each load-bearing for a test:

* **Bounded seen-cache** — dedup is an OrderedDict capped at
  ``seen_cache_size`` per node (FIFO eviction), so memory stays O(cache)
  no matter how long the node lives.
* **Fanout-limited relay** — each accepted message is forwarded to at most
  ``fanout`` peers, chosen deterministically from the message id (a stable
  rotation over the sorted peer list), excluding the hop it arrived from
  and its origin.  Flood-with-dedup keeps propagation reliable on sparse
  meshes while the fanout bounds per-node amplification.
* **Hop TTL** — every relay decrements ``ttl``; a message arriving with
  ttl 0 is delivered but not forwarded, so the hop count (and therefore
  total traffic) is bounded by the publisher's initial TTL.
* **Per-peer rate scoring** — a sliding window counts messages per sending
  peer; peers over ``rate_limit`` per ``rate_window`` get dropped before
  any decode work, which is the flood-control the reputation topic needs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import count
from typing import Callable, Optional, Sequence

from ..crypto import keccak256
from ..net.network import SimNetwork

__all__ = [
    "GossipError",
    "GossipMessage",
    "GossipStats",
    "GossipNode",
    "connect_mesh",
]

#: default hop budget: enough for any mesh a devnet builds (diameter ≤ 4).
DEFAULT_TTL = 4
#: default relay fanout per accepted message.
DEFAULT_FANOUT = 6
#: default dedup cache capacity (message ids per node).
DEFAULT_SEEN_CACHE = 4096
#: default per-peer flood control: messages per window before drops start.
DEFAULT_RATE_LIMIT = 64
DEFAULT_RATE_WINDOW = 1.0


class GossipError(Exception):
    """Misuse of the gossip layer (bad topic, unknown peer, …)."""


@dataclass(frozen=True)
class GossipMessage:
    """One gossip datagram: a topic, opaque payload bytes, and routing
    metadata.  The id commits to everything identity-relevant — topic,
    origin, per-origin sequence number, payload — so replays and
    relay-copies dedup to one delivery while distinct publications never
    collide."""

    topic: str
    payload: bytes
    origin: str          # publisher's gossip-node name
    seq: int             # per-origin publication counter
    ttl: int             # remaining relay hops

    @property
    def msg_id(self) -> bytes:
        return keccak256(
            self.topic.encode("utf-8") + b"\x00" + self.origin.encode("utf-8")
            + b"\x00" + self.seq.to_bytes(8, "big") + self.payload
        )

    @property
    def wire_size(self) -> int:
        """Byte estimate for the network's traffic accounting."""
        return len(self.payload) + len(self.topic) + len(self.origin) + 16

    def hop(self) -> "GossipMessage":
        """The relay copy: one less hop in the budget."""
        return GossipMessage(topic=self.topic, payload=self.payload,
                             origin=self.origin, seq=self.seq,
                             ttl=self.ttl - 1)


@dataclass
class GossipStats:
    """Per-node traffic counters."""

    published: int = 0          # local publishes
    received: int = 0           # messages arriving from peers
    delivered: int = 0          # handler invocations (post-dedup)
    relayed: int = 0            # forward sends on behalf of others
    duplicates_dropped: int = 0
    ttl_exhausted: int = 0      # accepted but not relayed (ttl ran out)
    rate_limited: int = 0       # dropped before decode: peer over budget
    undecodable: int = 0        # non-GossipMessage payloads


@dataclass
class _PeerScore:
    """Sliding-window accounting for one sending peer."""

    window_start: float = 0.0
    in_window: int = 0
    accepted: int = 0
    dropped: int = 0


class GossipNode:
    """One participant in the gossip overlay.

    Registers itself on the :class:`~repro.net.network.SimNetwork` under
    ``name`` (so gossip traffic shares the same latency/partition/loss
    model as every other message).  Peering is explicit and directed —
    :func:`connect_mesh` builds the usual full mesh; a light client joining
    a server mesh peers both directions itself.
    """

    def __init__(self, network: SimNetwork, name: str,
                 fanout: int = DEFAULT_FANOUT, ttl: int = DEFAULT_TTL,
                 seen_cache_size: int = DEFAULT_SEEN_CACHE,
                 rate_limit: int = DEFAULT_RATE_LIMIT,
                 rate_window: float = DEFAULT_RATE_WINDOW) -> None:
        if fanout < 1:
            raise GossipError("fanout must be at least 1")
        if ttl < 0:
            raise GossipError("ttl must be non-negative")
        if seen_cache_size < 1:
            raise GossipError("seen cache needs at least one slot")
        self.network = network
        self.name = name
        self.fanout = fanout
        self.ttl = ttl
        self.seen_cache_size = seen_cache_size
        self.rate_limit = rate_limit
        self.rate_window = rate_window
        self.peers: list[str] = []
        self.stats = GossipStats()
        self._topics: dict[str, list[Callable[[GossipMessage], None]]] = {}
        self._seen: OrderedDict[bytes, None] = OrderedDict()
        self._seq = count()
        self._peer_scores: dict[str, _PeerScore] = {}
        network.register(name, self)

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #

    def add_peer(self, name: str) -> None:
        """Start forwarding to (and accepting floods from) ``name``."""
        if name == self.name:
            raise GossipError("a gossip node cannot peer with itself")
        if name not in self.peers:
            self.peers.append(name)
            self.peers.sort()   # deterministic fanout selection

    def remove_peer(self, name: str) -> None:
        try:
            self.peers.remove(name)
        except ValueError:
            pass

    # ------------------------------------------------------------------ #
    # Pub/sub
    # ------------------------------------------------------------------ #

    def subscribe(self, topic: str,
                  handler: Callable[[GossipMessage], None]) -> None:
        """Deliver future messages on ``topic`` to ``handler``.

        Re-subscribing after a partition heals is how a node recovers its
        membership — dedup state survives, so messages it already saw
        through another path stay deduplicated.
        """
        if not topic:
            raise GossipError("topic must be non-empty")
        self._topics.setdefault(topic, []).append(handler)

    def unsubscribe(self, topic: str,
                    handler: Optional[Callable[[GossipMessage], None]] = None,
                    ) -> None:
        """Drop one handler, or the whole topic when ``handler`` is None."""
        handlers = self._topics.get(topic)
        if handlers is None:
            return
        if handler is None:
            del self._topics[topic]
            return
        try:
            handlers.remove(handler)
        except ValueError:
            return
        if not handlers:
            del self._topics[topic]

    def subscribed(self, topic: str) -> bool:
        return topic in self._topics

    def publish(self, topic: str, payload: bytes) -> GossipMessage:
        """Originate a message: deliver locally, flood to fanout peers."""
        if not topic:
            raise GossipError("topic must be non-empty")
        message = GossipMessage(topic=topic, payload=bytes(payload),
                                origin=self.name, seq=next(self._seq),
                                ttl=self.ttl)
        self.stats.published += 1
        self._mark_seen(message.msg_id)
        self._deliver(message)
        self._forward(message, exclude=())
        return message

    # ------------------------------------------------------------------ #
    # The network-facing receive path
    # ------------------------------------------------------------------ #

    def on_message(self, src: str, payload) -> None:
        if not isinstance(payload, GossipMessage):
            self.stats.undecodable += 1
            return
        self.stats.received += 1
        if not self._admit(src):
            self.stats.rate_limited += 1
            return
        msg_id = payload.msg_id
        if msg_id in self._seen:
            self.stats.duplicates_dropped += 1
            return
        self._mark_seen(msg_id)
        self._deliver(payload)
        if payload.ttl <= 0:
            self.stats.ttl_exhausted += 1
            return
        self._forward(payload.hop(), exclude=(src, payload.origin))

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _mark_seen(self, msg_id: bytes) -> None:
        self._seen[msg_id] = None
        while len(self._seen) > self.seen_cache_size:
            self._seen.popitem(last=False)

    def _deliver(self, message: GossipMessage) -> None:
        handlers = self._topics.get(message.topic)
        if not handlers:
            return
        for handler in list(handlers):
            self.stats.delivered += 1
            handler(message)

    def _forward(self, message: GossipMessage,
                 exclude: Sequence[str]) -> None:
        candidates = [p for p in self.peers if p not in exclude]
        if not candidates:
            return
        # stable per-message rotation spreads relay load across the mesh
        # without randomness (determinism keeps the sim reproducible)
        start = int.from_bytes(message.msg_id[:4], "big") % len(candidates)
        chosen = [candidates[(start + i) % len(candidates)]
                  for i in range(min(self.fanout, len(candidates)))]
        for peer in chosen:
            self.stats.relayed += 1
            self.network.send(self.name, peer, message,
                              size_bytes=message.wire_size)

    def _admit(self, src: str) -> bool:
        """Sliding-window flood control for one sending peer."""
        score = self._peer_scores.get(src)
        if score is None:
            score = self._peer_scores[src] = _PeerScore()
        now = self.network.clock.now()
        if now - score.window_start >= self.rate_window:
            score.window_start = now
            score.in_window = 0
        score.in_window += 1
        if self.rate_limit and score.in_window > self.rate_limit:
            score.dropped += 1
            return False
        score.accepted += 1
        return True

    def peer_score(self, name: str) -> tuple[int, int]:
        """(accepted, dropped) counts for one sending peer — the raw
        material for demoting flooders."""
        score = self._peer_scores.get(name)
        if score is None:
            return (0, 0)
        return (score.accepted, score.dropped)

    def __repr__(self) -> str:
        return (f"GossipNode({self.name!r}, peers={len(self.peers)}, "
                f"topics={sorted(self._topics)})")


def connect_mesh(nodes: Sequence[GossipNode]) -> None:
    """Fully mesh a set of gossip nodes (every pair, both directions)."""
    for a in nodes:
        for b in nodes:
            if a is not b:
                a.add_peer(b.name)
