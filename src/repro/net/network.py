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

from ..metrics import Counters
from .latency import FixedLatency, LatencyModel
from .simclock import SimClock

__all__ = ["NetworkError", "SimNetwork"]

#: events one :meth:`SimNetwork.run` may process before it calls a livelock
MAX_EVENTS = 1_000_000


class NetworkError(Exception):
    """Raised on misuse of the simulated network (unknown node, etc.)."""


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)


class SimNetwork:
    """The event loop + topology."""

    def __init__(self, latency: Optional[LatencyModel] = None,
                 drop_rate: float = 0.0, seed: int = 0) -> None:
        self.clock = SimClock()
        self.latency = latency if latency is not None else FixedLatency(0.01)
        self.drop_rate = drop_rate
        self._rng = random.Random(seed)
        self._nodes: dict[str, Any] = {}
        self._events: list[_Event] = []
        self._seq = count()
        self._partitioned: set[frozenset[str]] = set()
        self._isolated: set[str] = set()
        self.stats = Counters("messages_sent", "messages_delivered",
                              "messages_dropped", "bytes_sent")
        #: the same counts per directed (src, dst) link: what lets the
        #: hedged-query bench price the *redundant* traffic of fan-out
        #: (requests sent to losing servers), not just its wall-clock win
        self.links: dict[tuple[str, str], Counters] = {}

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

    def link(self, src: str, dst: str) -> Counters:
        """Counters for the directed link ``src → dst`` (created lazily)."""
        stats = self.links.get((src, dst))
        if stats is None:
            stats = self.links[src, dst] = Counters(
                "sent", "delivered", "dropped", "bytes_sent")
        return stats

    def send(self, src: str, dst: str, payload: Any, size_bytes: int) -> None:
        """Schedule delivery of ``payload`` (``size_bytes`` on the wire) from
        ``src`` to ``dst``.

        An unknown (never-registered or deregistered) destination behaves
        like an unreachable host: the message is counted and dropped, so
        clients hit their timeout path instead of crashing mid-failover.
        """
        link = self.link(src, dst)
        self.stats.messages_sent += 1
        link.sent += 1
        self.stats.bytes_sent += size_bytes
        link.bytes_sent += size_bytes
        if (dst not in self._nodes
                or not self.is_reachable(src, dst)
                or (self.drop_rate and self._rng.random() < self.drop_rate)):
            self.stats.messages_dropped += 1
            link.dropped += 1
            return
        delay = self.latency.delay(src, dst, size_bytes)

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

    def run(self) -> None:
        """Drain all pending events (bounded against runaway loops)."""
        processed = 0
        while self._events:
            event = heapq.heappop(self._events)
            self.clock.advance_to(event.time)
            event.action()
            processed += 1
            if processed >= MAX_EVENTS:
                raise NetworkError(f"exceeded {MAX_EVENTS} events; livelock?")

    def run_while(self, predicate: Callable[[], bool],
                  timeout: float) -> bool:
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
