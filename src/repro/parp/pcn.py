"""Payment-channel network (PCN) routing — the §VIII extension.

The paper's limitation: "our protocol requires a light client to set up a
payment channel individually with every full node it intends to connect
with, adding costs and potentially discouraging multiple connections.
Payment channel networks could address this by avoiding opening a dedicated
channel per client-server pair."

This module models exactly that trade-off: a graph of funded channels where
a light client with *one* on-chain channel can pay any reachable full node
through intermediaries, two-phase (reserve → settle) with per-hop fees.
The ablation bench compares the on-chain cost of N dedicated channels
against 1 channel + routed payments.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from ..crypto.keys import Address

__all__ = ["PCNError", "ChannelEdge", "Route", "ChannelGraph"]


class PCNError(Exception):
    """Routing or capacity failures in the channel graph."""


@dataclass
class ChannelEdge:
    """A directed channel with spendable capacity and a relay fee."""

    capacity: int
    fee_ppm: int = 1_000      # proportional fee, parts-per-million
    base_fee: int = 0
    reserved: int = 0

    @property
    def available(self) -> int:
        return self.capacity - self.reserved

    def fee_for(self, amount: int) -> int:
        return self.base_fee + amount * self.fee_ppm // 1_000_000


@dataclass(frozen=True)
class Route:
    """A priced path through the channel graph."""

    hops: tuple[Address, ...]       # src, intermediaries…, dst
    amount: int                      # what the destination receives
    total_sent: int                  # what the source pays (amount + fees)

    @property
    def fees(self) -> int:
        return self.total_sent - self.amount

    @property
    def num_hops(self) -> int:
        return len(self.hops) - 1


class ChannelGraph:
    """Off-chain multi-hop payment routing over funded channels.

    Capacities model the unidirectional budgets of PARP channels; routing a
    payment shifts capacity hop by hop.  The implementation is deliberately
    simpler than Lightning (no onions, no time locks) — what matters for
    the reproduction is the *economics*: reachability without per-pair
    on-chain channels, at the price of per-hop fees.
    """

    def __init__(self) -> None:
        self._channels: dict[Address, dict[Address, ChannelEdge]] = {}

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #

    def add_channel(self, src: Address, dst: Address, capacity: int,
                    fee_ppm: int = 1_000, base_fee: int = 0) -> None:
        if capacity <= 0:
            raise PCNError("channel capacity must be positive")
        self._channels.setdefault(src, {})[dst] = ChannelEdge(
            capacity, fee_ppm, base_fee)

    def channel(self, src: Address, dst: Address) -> Optional[ChannelEdge]:
        return self._channels.get(src, {}).get(dst)

    def capacity(self, src: Address, dst: Address) -> int:
        edge = self.channel(src, dst)
        return edge.available if edge else 0

    @property
    def num_channels(self) -> int:
        return sum(len(peers) for peers in self._channels.values())

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def find_route(self, src: Address, dst: Address, amount: int,
                   max_hops: int = 6) -> Route:
        """Cheapest feasible route delivering ``amount`` to ``dst``.

        Fees accumulate backwards (each hop forwards amount + downstream
        fees), so edge feasibility depends on position; we search (Dijkstra)
        over the fee-weighted graph restricted to edges that could carry the
        amount (a lower bound), then verify the chosen path hop by hop.
        """
        if amount <= 0:
            raise PCNError("payment amount must be positive")
        cheapest = {src: 0}
        frontier = [(0, (src,))]
        while frontier:
            cost, path = heapq.heappop(frontier)
            if path[-1] == dst:
                break
            for peer, edge in self._channels.get(path[-1], {}).items():
                reached = cost + edge.fee_for(amount) + 1
                if edge.available >= amount and reached < cheapest.get(peer, reached + 1):
                    cheapest[peer] = reached
                    heapq.heappush(frontier, (reached, path + (peer,)))
        else:
            raise PCNError(f"no route for {amount} from "
                           f"{src.hex()[:10]} to {dst.hex()[:10]}")
        if len(path) - 1 > max_hops:
            raise PCNError(f"route exceeds {max_hops} hops")
        # price the path precisely, from destination backwards
        outstanding = amount
        for u, v in zip(reversed(path[:-1]), reversed(path[1:])):
            edge = self.channel(u, v)
            if edge is None or edge.available < outstanding:
                raise PCNError("capacity changed during routing")
            if u != src:
                outstanding += edge.fee_for(outstanding)
        return Route(hops=path, amount=amount, total_sent=outstanding)

    # ------------------------------------------------------------------ #
    # Payments (two-phase)
    # ------------------------------------------------------------------ #

    def reserve(self, route: Route) -> None:
        """Phase 1: lock the funds along the route (all-or-nothing)."""
        amounts = self._hop_amounts(route)
        locked: list[tuple[ChannelEdge, int]] = []
        try:
            for (u, v), amount in zip(self._hop_pairs(route), amounts):
                edge = self.channel(u, v)
                if edge is None or edge.available < amount:
                    raise PCNError(f"hop {u.hex()[:8]}->{v.hex()[:8]} lacks capacity")
                edge.reserved += amount
                locked.append((edge, amount))
        except PCNError:
            for edge, amount in locked:
                edge.reserved -= amount
            raise

    def settle(self, route: Route) -> None:
        """Phase 2: convert reservations into capacity movement."""
        for (u, v), amount in zip(self._hop_pairs(route), self._hop_amounts(route)):
            edge = self.channel(u, v)
            if edge is None or edge.reserved < amount:
                raise PCNError("settling an unreserved route")
            edge.reserved -= amount
            edge.capacity -= amount

    def abort(self, route: Route) -> None:
        """Release reservations without moving funds."""
        for (u, v), amount in zip(self._hop_pairs(route), self._hop_amounts(route)):
            edge = self.channel(u, v)
            if edge is not None and edge.reserved >= amount:
                edge.reserved -= amount

    def pay(self, src: Address, dst: Address, amount: int) -> Route:
        """Route + reserve + settle in one step."""
        route = self.find_route(src, dst, amount)
        self.reserve(route)
        self.settle(route)
        return route

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _hop_pairs(route: Route) -> list[tuple[Address, Address]]:
        return list(zip(route.hops[:-1], route.hops[1:]))

    def _hop_amounts(self, route: Route) -> list[int]:
        """Amount carried by each hop, first hop carries the most."""
        outstanding = route.amount
        reversed_amounts = []
        for u, v in reversed(self._hop_pairs(route)):
            reversed_amounts.append(outstanding)
            edge = self.channel(u, v)
            if edge is None:
                raise PCNError("route references a missing channel")
            if u != route.hops[0]:
                outstanding += edge.fee_for(outstanding)
        return list(reversed(reversed_amounts))
