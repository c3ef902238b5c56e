"""Off-chain payment-channel state, tracked by both parties.

Paper §V-A: "The channel state of a P stored locally by LC and FN are the
values of α, a and σ_a exchanged in each round."  The light client tracks
how much of its budget it has signed away; the full node retains the highest
cumulative amount and its signature — that pair is money: it is what the FN
submits to the CMM to redeem its earnings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..crypto import Signature, SignatureError, recover_address
from ..crypto.keys import Address
from .constants import ALPHA_BYTES, MAX_AMOUNT
from .messages import PARPRequest

__all__ = ["ChannelError", "ClientChannel", "ServerChannel"]


class ChannelError(Exception):
    """Raised on channel accounting violations."""


@dataclass
class ClientChannel:
    """Light-client-side view of one payment channel."""

    alpha: bytes
    full_node: Address
    budget: int
    spent: int = 0                      # latest cumulative amount a signed
    acked: int = 0                      # highest amount a *verified* response covered
    requests_sent: int = 0

    def __post_init__(self) -> None:
        if len(self.alpha) != ALPHA_BYTES:
            raise ChannelError(f"channel id must be {ALPHA_BYTES} bytes")
        if not 0 < self.budget <= MAX_AMOUNT:
            raise ChannelError("channel budget out of range")

    def next_amount(self, price: int) -> int:
        """Cumulative amount for the next request costing ``price``."""
        if price < 0:
            raise ChannelError("negative price")
        amount = self.spent + price
        if amount > self.budget:
            raise ChannelError(
                f"budget exhausted: {self.spent} spent + {price} > {self.budget}"
            )
        return amount

    def record_request(self, amount: int) -> None:
        """Commit to a signed cumulative amount (monotone by construction)."""
        if amount < self.spent:
            raise ChannelError("cumulative amount may never decrease")
        if amount > self.budget:
            raise ChannelError("cumulative amount exceeds budget")
        self.spent = amount
        self.requests_sent += 1

    def record_ack(self, amount: int) -> None:
        """Bank a verified response covering cumulative amount ``amount``.

        ``acked`` is what closing the channel should concede: a payment whose
        request died in transit was signed (``spent``) but never served, and
        the client must not volunteer it at closure — if the server *did*
        receive it, the dispute window lets the server counter with its
        higher σ_a, so closing at ``acked`` is both minimal and safe.
        """
        if amount > self.spent:
            raise ChannelError("cannot acknowledge more than was signed")
        if amount > self.acked:
            self.acked = amount


@dataclass
class ServerChannel:
    """Full-node-side view of one payment channel.

    ``latest_amount``/``latest_sig`` form the redeemable payment proof; the
    node must keep the *highest* one it has seen (paper §IV-E.3: "each
    request contains a signed cumulative payment amount that enables the
    full node to redeem these funds").
    """

    alpha: bytes
    light_client: Address
    budget: int
    latest_amount: int = 0
    latest_sig: Optional[bytes] = None
    requests_served: int = 0
    #: individual queries answered — a batch of N counts N here but only one
    #: ``requests_served`` channel update (the batched-serving economy).
    queries_served: int = 0
    closed: bool = False

    def accept_request_payment(self, request: PARPRequest,
                               min_increment: int, queries: int = 1) -> None:
        """Validate the payment carried by a request, then bank it.

        Checks (server step (B)): channel match, monotone cumulative amount
        covering the fee, within budget, and a payment signature that
        recovers to the channel's light client.  ``queries`` is how many
        individual queries this one channel update pays for (N for a batch);
        any request-shaped message carrying (α, a, σ_a) is accepted, so
        :class:`~repro.parp.messages.BatchRequest` banks the same way.
        """
        if self.closed:
            raise ChannelError("channel is closed")
        if request.alpha != self.alpha:
            raise ChannelError("request targets a different channel")
        if request.a < self.latest_amount + min_increment:
            raise ChannelError(
                f"insufficient payment: cumulative {request.a} < "
                f"{self.latest_amount} + fee {min_increment}"
            )
        if request.a > self.budget:
            raise ChannelError("cumulative amount exceeds channel budget")
        try:
            signer = recover_address(
                request.h_pay, Signature.from_bytes(request.sig_a),
                self.light_client,
            )
        except (SignatureError, ValueError) as exc:
            raise ChannelError(f"bad payment signature: {exc}") from exc
        if signer != self.light_client:
            raise ChannelError("payment not signed by the channel's light client")
        self.latest_amount = request.a
        self.latest_sig = request.sig_a
        self.requests_served += 1
        self.queries_served += queries

    def redeemable_state(self) -> tuple[bytes, int, bytes]:
        """(α, a, σ_a) — the arguments of a CloseChannel transaction."""
        if self.latest_sig is None:
            return self.alpha, 0, b""
        return self.alpha, self.latest_amount, self.latest_sig
