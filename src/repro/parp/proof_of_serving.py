"""Proof of Serving — the §VIII reward-mechanism extension.

"PARP can form a new reward mechanism that we tentatively call 'Proof of
Serving' … Payment proofs signed by light clients act as receipts, which
full nodes can aggregate and submit to the network and claim a portion of
the block reward.  The main open issue is to address Sybil attacks whereby
a full node controls fake light clients and connections."

We implement the pipeline end to end:

* receipts are the ``(α, a, σ_a)`` payment proofs full nodes already hold,
* an epoch aggregator validates each receipt (signature, channel existence,
  budget backing) and weighs it,
* a reward pool splits an epoch's serving reward proportionally,
* Sybil resistance hooks: minimum channel budget, per-light-client weight
  caps, and reputation weighting (:mod:`repro.parp.reputation`) — the
  countermeasures the paper sketches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..crypto import Signature, SignatureError, recover_address
from ..crypto.keys import Address
from .messages import payment_digest

__all__ = ["ServingReceipt", "ReceiptValidator", "EpochClaim", "RewardPool"]


@dataclass(frozen=True)
class ServingReceipt:
    """One channel's payment proof, presented as evidence of serving."""

    alpha: bytes
    full_node: Address
    light_client: Address
    amount: int          # cumulative a
    signature: bytes     # σ_a by the light client
    #: individual queries the channel's updates paid for (batches count all
    #: their items); 0 means "unreported" and disables per-query weighting.
    queries: int = 0

    def verify_signature(self) -> bool:
        """Hint-less by design: ``light_client`` is the receipt's own claim,
        not an address the validator holds, and a receipt's key is checked
        once per claim — there is nothing for the known-key cache to save,
        and a slot in it is not the claimant's to spend."""
        try:
            signer = recover_address(
                payment_digest(self.alpha, self.amount),
                Signature.from_bytes(self.signature),
            )
        except (SignatureError, ValueError):
            return False
        return signer == self.light_client


@dataclass
class ReceiptValidator:
    """Validates receipts against on-chain channel data + Sybil heuristics.

    ``channel_lookup(α)`` must return (light_client, full_node, budget,
    status) from the CMM, or None — receipts must be backed by channels that
    really exist and really locked funds, which is the paper's first line of
    Sybil defense (fake light clients still have to lock real budgets).
    """

    channel_lookup: Callable[[bytes], Optional[tuple[Address, Address, int, int]]]
    min_budget: int = 0
    reputation: Optional[Callable[[Address], float]] = None
    #: caps the weight a receipt earns per query it claims to have served.
    #: The count is FN-self-reported (σ_a only covers (α, a)), so this is a
    #: *soft* heuristic, not a proof: unreported counts are treated as one
    #: query (maximally conservative), while an inflated count merely raises
    #: the cap back toward the signature-backed ``amount`` — it can never
    #: increase weight beyond it.  Complements ``min_budget``/``reputation``
    #: against Sybil pairs shuttling large payments over few real queries.
    max_wei_per_query: Optional[int] = None

    def weigh(self, receipt: ServingReceipt) -> float:
        """Weight of a receipt for reward purposes; 0 rejects it."""
        if receipt.amount <= 0 or not receipt.verify_signature():
            return 0.0
        channel = self.channel_lookup(receipt.alpha)
        if channel is None:
            return 0.0
        light_client, full_node, budget, status = channel
        if light_client != receipt.light_client or full_node != receipt.full_node:
            return 0.0
        if status == 0:  # non-existent channel
            return 0.0
        if budget < self.min_budget or receipt.amount > budget:
            return 0.0
        weight = float(receipt.amount)
        if self.max_wei_per_query is not None:
            queries = max(receipt.queries, 1)  # unreported counts cap hardest
            weight = min(weight, float(self.max_wei_per_query * queries))
        if self.reputation is not None:
            weight *= max(0.0, min(1.0, self.reputation(receipt.light_client)))
        return weight


@dataclass
class EpochClaim:
    """A full node's aggregate claim for one epoch."""

    full_node: Address
    receipts: list[ServingReceipt] = field(default_factory=list)

    def add(self, receipt: ServingReceipt) -> None:
        if receipt.full_node != self.full_node:
            raise ValueError("receipt belongs to another full node")
        self.receipts.append(receipt)


@dataclass
class RewardPool:
    """Distributes an epoch's serving reward proportionally to valid weight.

    ``per_client_cap`` bounds how much weight any single light client can
    contribute to one node's claim — a cheap mitigation against one Sybil
    client being replayed many times.
    """

    epoch_reward: int
    validator: ReceiptValidator
    per_client_cap: Optional[float] = None

    def score_claim(self, claim: EpochClaim) -> float:
        by_client: dict[Address, float] = {}
        for receipt in claim.receipts:
            weight = self.validator.weigh(receipt)
            if weight <= 0:
                continue
            prev = by_client.get(receipt.light_client, 0.0)
            by_client[receipt.light_client] = max(prev, weight)  # no replay sum
        if self.per_client_cap is not None:
            by_client = {
                client: min(weight, self.per_client_cap)
                for client, weight in by_client.items()
            }
        return sum(by_client.values())

    def distribute(self, claims: list[EpochClaim]) -> dict[Address, int]:
        """Split the epoch reward proportionally to each node's score."""
        scores = {claim.full_node: self.score_claim(claim) for claim in claims}
        total = sum(scores.values())
        if total <= 0:
            return {node: 0 for node in scores}
        payouts: dict[Address, int] = {}
        distributed = 0
        nodes = sorted(scores, key=lambda a: a.to_bytes())
        for node in nodes[:-1]:
            share = int(self.epoch_reward * scores[node] / total)
            payouts[node] = share
            distributed += share
        payouts[nodes[-1]] = self.epoch_reward - distributed  # no dust lost
        return payouts
