"""A deterministic discrete-event message network.

Nodes register under a name; ``send`` schedules delivery after the link
latency; ``run_until`` drains the event heap up to a simulated deadline.
Supports message loss (per-link or global drop rates) and partitions, which
the integration tests use to exercise PARP's timeout and fail-over paths.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable, Optional

from .latency import FixedLatency, LatencyModel
from .simclock import SimClock

__all__ = ["NetworkError", "SimNetwork", "NetworkStats", "LinkStats"]


class NetworkError(Exception):
    """Raised on misuse of the simulated network (unknown node, etc.)."""


@dataclass
class LinkStats:
    """Traffic counters for one directed (src, dst) link."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    bytes_sent: int = 0


@dataclass
class NetworkStats:
    """Aggregate traffic counters, plus a per-link breakdown.

    The per-link counters are what lets the hedged-query bench price the
    *redundant* traffic of fan-out (requests sent to losing servers) rather
    than just its wall-clock win.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    links: dict[tuple[str, str], LinkStats] = field(default_factory=dict)

    def link(self, src: str, dst: str) -> LinkStats:
        """Counters for the directed link ``src → dst`` (created lazily)."""
        key = (src, dst)
        stats = self.links.get(key)
        if stats is None:
            stats = self.links[key] = LinkStats()
        return stats


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)


class SimNetwork:
    """The event loop + topology."""

    def __init__(self, latency: Optional[LatencyModel] = None,
                 clock: Optional[SimClock] = None,
                 drop_rate: float = 0.0, seed: int = 0) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.latency = latency if latency is not None else FixedLatency(0.01)
        self.drop_rate = drop_rate
        self._rng = random.Random(seed)
        self._nodes: dict[str, Any] = {}
        self._events: list[_Event] = []
        self._seq = count()
        self._partitioned: set[frozenset[str]] = set()
        self._isolated: set[str] = set()
        self.stats = NetworkStats()

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #

    def register(self, name: str, node: Any) -> None:
        """Attach a node; it must expose ``on_message(src, payload)``."""
        if name in self._nodes:
            raise NetworkError(f"node name {name!r} already registered")
        self._nodes[name] = node

    def deregister(self, name: str) -> None:
        """Detach a node.  Traffic already in flight toward it is dropped at
        delivery time, and new sends to it simply count as dropped — to the
        rest of the network a deregistered node is an unreachable host, not
        a programming error."""
        self._nodes.pop(name, None)

    def node(self, name: str) -> Any:
        try:
            return self._nodes[name]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    def partition(self, a: str, b: str) -> None:
        """Sever the link between two nodes (both directions)."""
        self._partitioned.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        self._partitioned.discard(frozenset((a, b)))

    def isolate(self, name: str) -> None:
        """Sever every link of ``name`` at once (node-level partition) —
        what a crashed or net-split server looks like to everybody else."""
        self._isolated.add(name)

    def rejoin(self, name: str) -> None:
        self._isolated.discard(name)

    def is_reachable(self, src: str, dst: str) -> bool:
        """Whether a message from ``src`` would currently reach ``dst``."""
        if src in self._isolated or dst in self._isolated:
            return False
        return frozenset((src, dst)) not in self._partitioned

    # ------------------------------------------------------------------ #
    # Messaging
    # ------------------------------------------------------------------ #

    def send(self, src: str, dst: str, payload: Any,
             size_bytes: Optional[int] = None) -> None:
        """Schedule delivery of ``payload`` from ``src`` to ``dst``.

        An unknown (never-registered or deregistered) destination behaves
        like an unreachable host: the message is counted and dropped, so
        clients hit their timeout path instead of crashing mid-failover.
        """
        link = self.stats.link(src, dst)
        self.stats.messages_sent += 1
        link.sent += 1
        size = size_bytes if size_bytes is not None else _estimate_size(payload)
        self.stats.bytes_sent += size
        link.bytes_sent += size
        if (dst not in self._nodes
                or not self.is_reachable(src, dst)
                or (self.drop_rate and self._rng.random() < self.drop_rate)):
            self.stats.messages_dropped += 1
            link.dropped += 1
            return
        delay = self.latency.delay(src, dst, size)

        def deliver() -> None:
            node = self._nodes.get(dst)
            if node is None:  # deregistered while the message was in flight
                self.stats.messages_dropped += 1
                link.dropped += 1
                return
            self.stats.messages_delivered += 1
            link.delivered += 1
            node.on_message(src, payload)

        self.schedule(delay, deliver)

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise NetworkError("cannot schedule in the past")
        heapq.heappush(
            self._events,
            _Event(self.clock.now() + delay, next(self._seq), action),
        )

    # ------------------------------------------------------------------ #
    # Event loop
    # ------------------------------------------------------------------ #

    def run_until(self, deadline: float) -> None:
        """Process events with time <= deadline; advances the clock."""
        while self._events and self._events[0].time <= deadline:
            event = heapq.heappop(self._events)
            self.clock.advance_to(event.time)
            event.action()
        self.clock.advance_to(max(self.clock.now(), deadline))

    def run(self, max_events: int = 1_000_000) -> None:
        """Drain all pending events (bounded against runaway loops)."""
        processed = 0
        while self._events:
            event = heapq.heappop(self._events)
            self.clock.advance_to(event.time)
            event.action()
            processed += 1
            if processed >= max_events:
                raise NetworkError(f"exceeded {max_events} events; livelock?")

    def run_while(self, predicate: Callable[[], bool],
                  timeout: float = 60.0) -> bool:
        """Run while ``predicate()`` holds; returns False on sim-timeout."""
        deadline = self.clock.now() + timeout
        while predicate():
            if not self._events or self._events[0].time > deadline:
                self.clock.advance_to(deadline)
                return not predicate()
            event = heapq.heappop(self._events)
            self.clock.advance_to(event.time)
            event.action()
        return True


def _estimate_size(payload: Any) -> int:
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if hasattr(payload, "wire_size"):
        return int(payload.wire_size)
    return 128  # envelope estimate for structured messages
