"""Fee schedules for PARP RPC requests.

The paper leaves the fee schedule as future work (§VIII, "designing a fee
schedule for RPC requests") but the protocol requires one: every request's
cumulative amount must grow by at least the price of the call, or the full
node refuses to serve.  We implement two schedules:

* :class:`FlatFeeSchedule` — every call costs the same (what the simplest
  provider plans look like, cf. Table I "plan tiers");
* :class:`CallBasedFeeSchedule` — per-method prices, the "call-based"
  pricing 3 of 5 surveyed providers use ("charge based on varied call types
  for a fairer fee calculation", §II-C).

Prices are in wei of the channel's token.  A call-based batch is rebated
:data:`BATCH_REBATE` per call after the first.  The ablation bench
``bench_ablation_pricing`` compares budget consumption under both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .messages import RpcCall

__all__ = [
    "FeeSchedule",
    "FlatFeeSchedule",
    "CallBasedFeeSchedule",
    "DEFAULT_FEE_SCHEDULE",
    "REFERENCE_BASKET",
    "GWEI",
    "BATCH_REBATE",
    "DEFAULT_PRICING_KNEE",
    "DEFAULT_PRICING_CAP",
    "load_multiplier",
]

GWEI = 10 ** 9

#: per-call discount on every call after the first in a call-based batch:
#: batched calls share one wire round, two signature verifications and a
#: deduplicated proof, so serving them costs the node strictly less than N
#: separate requests.
BATCH_REBATE = 1 * GWEI

#: Reference prices (wei/call).  Reads are cheap; writes and proof-heavy
#: queries cost more, mirroring providers' "compute unit" weighting.
_DEFAULT_PRICES: dict[str, int] = {
    "eth_blockNumber": 1 * GWEI,
    "eth_chainId": 1 * GWEI,
    "eth_getBalance": 10 * GWEI,
    "eth_getStorageAt": 15 * GWEI,
    "eth_getTransactionByBlockNumberAndIndex": 15 * GWEI,
    "eth_getTransactionReceipt": 20 * GWEI,
    "eth_sendRawTransaction": 50 * GWEI,
    "parp_channelStatus": 1 * GWEI,
}


#: the method mix marketplace scoring prices every provider against — the
#: read-heavy basket dApp frontends actually send (cf. Table I traffic).
REFERENCE_BASKET = (
    "eth_getBalance",
    "eth_getStorageAt",
    "eth_blockNumber",
    "eth_getTransactionReceipt",
)


class FeeSchedule:
    """Interface: what does one RPC call cost?"""

    def price(self, call: RpcCall) -> int:
        raise NotImplementedError

    def reference_price(self) -> int:
        """Mean price of the ``REFERENCE_BASKET`` calls — the comparable
        sticker price marketplace selection weighs reputation against."""
        calls = [RpcCall.create(method) for method in REFERENCE_BASKET]
        return sum(self.price(call) for call in calls) // len(calls)

    def batch_price(self, calls: Sequence[RpcCall]) -> int:
        """Price of serving ``calls`` as one batch (one channel update).

        Defaults to the sum of the per-call prices; schedules may discount
        batches because a batch amortises signature checks and dedups the
        Merkle proof the server ships.
        """
        return sum(self.price(call) for call in calls)


@dataclass(frozen=True)
class FlatFeeSchedule(FeeSchedule):
    """Every call costs ``flat_price`` wei."""

    flat_price: int = 10 * GWEI

    def price(self, call: RpcCall) -> int:
        return self.flat_price


@dataclass(frozen=True)
class CallBasedFeeSchedule(FeeSchedule):
    """Per-method prices with a default for unlisted methods; a batch is
    rebated :data:`BATCH_REBATE` per call after the first."""

    prices: Mapping[str, int] = field(default_factory=lambda: dict(_DEFAULT_PRICES))
    default_price: int = 10 * GWEI

    def price(self, call: RpcCall) -> int:
        return self.prices.get(call.method, self.default_price)

    def batch_price(self, calls: Sequence[RpcCall]) -> int:
        total = sum(self.price(call) for call in calls)
        if len(calls) > 1:
            rebate = BATCH_REBATE * (len(calls) - 1)
            total = max(total - rebate, self.price(calls[0]))
        return total


DEFAULT_FEE_SCHEDULE = CallBasedFeeSchedule()


# --------------------------------------------------------------------------- #
# Dynamic (load-tracking) pricing
# --------------------------------------------------------------------------- #

#: load factor below which quotes stay at the base price — a server under
#: half load has spare capacity, and repricing it would only churn rankings.
DEFAULT_PRICING_KNEE = 0.5

#: multiplier ceiling: past total saturation the quote stops climbing (an
#: unbounded curve would quote prices no client could rationally accept,
#: which is indistinguishable from refusing service — shedding does that
#: honestly instead).
DEFAULT_PRICING_CAP = 4.0


def load_multiplier(load: float) -> float:
    """The load→fee-multiplier curve: 1.0 up to ``DEFAULT_PRICING_KNEE``,
    then a quadratic ramp reaching ``DEFAULT_PRICING_CAP`` at load 1.0
    (full admission queue) and clamped there beyond.

    Invariants (property-tested over knees in [0, 1) and caps ≥ 1):
    ``load_multiplier(0) == 1.0``; monotone nondecreasing in ``load``;
    bounded in ``[1.0, cap]``.  The quadratic ramp keeps quotes sticky near
    the knee (small load wobbles don't reshuffle client rankings) while
    escalating sharply as the queue approaches the shed threshold.
    """
    knee, cap = DEFAULT_PRICING_KNEE, DEFAULT_PRICING_CAP
    if load <= knee:
        return 1.0
    ramp = min(1.0, (load - knee) / (1.0 - knee))
    return 1.0 + (cap - 1.0) * ramp * ramp
