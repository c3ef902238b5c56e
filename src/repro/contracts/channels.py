"""Channels Management Module (CMM) — on-chain payment-channel lifecycle.

Paper §IV-C/§IV-E: unidirectional payment channels between a light client
and a full node.  The LC locks its budget ``b`` when opening; off-chain it
signs monotonically increasing cumulative amounts ``a``; on closure the CMM
pays the full node ``min(a, b)`` and refunds the rest, with a dispute window
during which either party can present a *higher* signed ``a`` (the valid
state "with a higher value of a will be acknowledged as the most recent").

Channel identifiers α are ``keccak256(LC ‖ FN ‖ pair_nonce)[:16]`` — "a
unique identifier, based on the identity of the participants" (§IV-C).
"""

from __future__ import annotations

from ..crypto.keys import Address
from ..parp.constants import ALPHA_BYTES, DISPUTE_WINDOW_BLOCKS, MAX_AMOUNT
from ..parp.messages import handshake_preimage, payment_preimage
from ..vm import abi
from ..vm.contract import NativeContract, contract_method, mapping_slot
from ..vm.runtime import CallContext

__all__ = ["ChannelsModule", "CHANNEL_NONE", "CHANNEL_OPEN", "CHANNEL_CLOSING",
           "CHANNEL_CLOSED", "channel_status_slot"]

# channel status values (paper Fig. 4: Open / Closing / Closed)
CHANNEL_NONE = 0
CHANNEL_OPEN = 1
CHANNEL_CLOSING = 2
CHANNEL_CLOSED = 3

# storage layout: one mapping base per struct field, keyed by α
_CH_LIGHT_CLIENT = 10
_CH_FULL_NODE = 11
_CH_BUDGET = 12
_CH_LATEST_AMOUNT = 13   # cs — the channel state acknowledged on-chain
_CH_STATUS = 14
_CH_DEADLINE = 15        # dispute-window end (block number)
_PAIR_NONCE = 16         # mapping(keccak(LC ‖ FN) => uint) for α derivation
_CH_OPENED_AT = 17       # opening block (channel age, off-chain analytics)
_CH_CLOSED_BY = 18       # which participant triggered closure (disputes)
_CH_SETTLED = 19         # final payout to the FN (audit record)
_FN_OPEN_COUNT = 20      # mapping(FN => open channels) — serving-load metric


def channel_status_slot(alpha: bytes) -> bytes:
    """Storage slot of a channel's status — light clients read this with a
    verified ``eth_getStorageAt`` for the §V-C liveness check."""
    return mapping_slot(_CH_STATUS, alpha)


class ChannelsModule(NativeContract):
    """Native-contract implementation of the CMM."""

    name = "ChannelsModule"

    def __init__(self, address: Address, deposit_module: Address) -> None:
        super().__init__(address)
        self._deposit_module = deposit_module

    # ------------------------------------------------------------------ #
    # Opening (paper §IV-E.2, Algorithm 1's OpenChannel transaction)
    # ------------------------------------------------------------------ #

    @contract_method(payable=True)
    def open_channel(self, ctx: CallContext, args: list) -> bytes:
        """Open a channel funded with ``msg.value`` as the LC's budget.

        Args: [full_node_address, expiry_timestamp, fn_confirmation_sig].
        The confirmation signature is the full node's handshake consent
        ``Sign((LC ‖ expiryDate), sk_FN)`` from Algorithm 1 — mutual consent
        is required because the FN commits to serve this client.
        """
        full_node = abi.as_address(args[0])
        expiry = abi.as_int(args[1])
        confirmation = abi.as_bytes(args[2])
        light_client = ctx.sender
        budget = ctx.value

        ctx.require(budget > 0, "channel budget must be positive")
        ctx.require(budget <= MAX_AMOUNT, "budget exceeds u128")
        ctx.require(ctx.block.timestamp <= expiry, "handshake confirmation expired")
        digest = ctx.keccak(handshake_preimage(light_client, expiry))
        signer = ctx.ecrecover(digest, confirmation)
        ctx.require(signer == full_node, "confirmation not signed by full node")
        eligible = ctx.call(self._deposit_module, "is_eligible", [full_node])
        ctx.require(eligible, "full node is not an eligible PARP server")

        pair_key = ctx.keccak(light_client.to_bytes() + full_node.to_bytes())
        nonce_slot = mapping_slot(_PAIR_NONCE, pair_key)
        nonce = ctx.storage.get_int(nonce_slot)
        ctx.storage.set_int(nonce_slot, nonce + 1)
        alpha = ctx.keccak(
            light_client.to_bytes() + full_node.to_bytes()
            + nonce.to_bytes(8, "big")
        )[:ALPHA_BYTES]

        ctx.storage.set(mapping_slot(_CH_LIGHT_CLIENT, alpha), light_client.to_bytes())
        ctx.storage.set(mapping_slot(_CH_FULL_NODE, alpha), full_node.to_bytes())
        ctx.storage.set_int(mapping_slot(_CH_BUDGET, alpha), budget)
        ctx.storage.set_int(mapping_slot(_CH_STATUS, alpha), CHANNEL_OPEN)
        ctx.storage.set_int(mapping_slot(_CH_OPENED_AT, alpha), ctx.block.number)
        count_slot = mapping_slot(_FN_OPEN_COUNT, full_node.to_bytes())
        ctx.storage.set_int(count_slot, ctx.storage.get_int(count_slot) + 1)
        ctx.emit(
            "ChannelOpened",
            topics=[alpha, light_client.to_bytes(), full_node.to_bytes()],
            data=budget.to_bytes(32, "big"),
        )
        return alpha

    # ------------------------------------------------------------------ #
    # Closing and disputes (paper §IV-E.4)
    # ------------------------------------------------------------------ #

    @contract_method()
    def close_channel(self, ctx: CallContext, args: list) -> int:
        """Start closure with the submitter's latest signed state (α, a, σ_a).

        Either participant may close.  A zero ``a`` needs no signature (it
        claims nothing); any positive ``a`` must carry the LC's payment
        signature.  Returns the dispute deadline block number.
        """
        alpha = abi.as_bytes(args[0], exact=ALPHA_BYTES)
        amount = abi.as_int(args[1])
        sig_a = abi.as_bytes(args[2])

        status = ctx.storage.get_int(mapping_slot(_CH_STATUS, alpha))
        ctx.require(status == CHANNEL_OPEN, "channel is not open")
        light_client = Address(ctx.storage.get(mapping_slot(_CH_LIGHT_CLIENT, alpha)))
        full_node = Address(ctx.storage.get(mapping_slot(_CH_FULL_NODE, alpha)))
        ctx.require(
            ctx.sender in (light_client, full_node),
            "only channel participants may close",
        )
        self._validate_state(ctx, alpha, amount, sig_a, light_client)

        deadline = ctx.block.number + DISPUTE_WINDOW_BLOCKS
        ctx.storage.set_int(mapping_slot(_CH_LATEST_AMOUNT, alpha), amount)
        ctx.storage.set_int(mapping_slot(_CH_STATUS, alpha), CHANNEL_CLOSING)
        ctx.storage.set_int(mapping_slot(_CH_DEADLINE, alpha), deadline)
        ctx.storage.set(mapping_slot(_CH_CLOSED_BY, alpha), ctx.sender.to_bytes())
        ctx.emit("ChannelClosing", topics=[alpha],
                 data=amount.to_bytes(32, "big"))
        return deadline

    @contract_method()
    def submit_state(self, ctx: CallContext, args: list) -> int:
        """Challenge during the dispute window with a higher signed state.

        "Whenever a party submits a new valid latest state, the dispute time
        will be reset to allow the other party enough time to respond."
        """
        alpha = abi.as_bytes(args[0], exact=ALPHA_BYTES)
        amount = abi.as_int(args[1])
        sig_a = abi.as_bytes(args[2])

        status = ctx.storage.get_int(mapping_slot(_CH_STATUS, alpha))
        ctx.require(status == CHANNEL_CLOSING, "channel is not in dispute")
        deadline = ctx.storage.get_int(mapping_slot(_CH_DEADLINE, alpha))
        ctx.require(ctx.block.number <= deadline, "dispute window expired")
        current = ctx.storage.get_int(mapping_slot(_CH_LATEST_AMOUNT, alpha))
        ctx.require(amount > current, "submitted state is not newer")
        light_client = Address(ctx.storage.get(mapping_slot(_CH_LIGHT_CLIENT, alpha)))
        self._validate_state(ctx, alpha, amount, sig_a, light_client)

        deadline = ctx.block.number + DISPUTE_WINDOW_BLOCKS
        ctx.storage.set_int(mapping_slot(_CH_LATEST_AMOUNT, alpha), amount)
        ctx.storage.set_int(mapping_slot(_CH_DEADLINE, alpha), deadline)
        ctx.emit("StateSubmitted", topics=[alpha],
                 data=amount.to_bytes(32, "big"))
        return deadline

    @contract_method()
    def confirm_closure(self, ctx: CallContext, args: list) -> tuple:
        """Settle after the dispute window: FN gets min(a, b), LC the rest."""
        alpha = abi.as_bytes(args[0], exact=ALPHA_BYTES)
        status = ctx.storage.get_int(mapping_slot(_CH_STATUS, alpha))
        ctx.require(status == CHANNEL_CLOSING, "channel is not closing")
        deadline = ctx.storage.get_int(mapping_slot(_CH_DEADLINE, alpha))
        ctx.require(ctx.block.number > deadline, "dispute window still open")

        budget = ctx.storage.get_int(mapping_slot(_CH_BUDGET, alpha))
        amount = ctx.storage.get_int(mapping_slot(_CH_LATEST_AMOUNT, alpha))
        light_client = Address(ctx.storage.get(mapping_slot(_CH_LIGHT_CLIENT, alpha)))
        full_node = Address(ctx.storage.get(mapping_slot(_CH_FULL_NODE, alpha)))
        payout = min(amount, budget)
        refund = budget - payout

        ctx.storage.set_int(mapping_slot(_CH_STATUS, alpha), CHANNEL_CLOSED)
        ctx.storage.set_int(mapping_slot(_CH_SETTLED, alpha), payout)
        count_slot = mapping_slot(_FN_OPEN_COUNT, full_node.to_bytes())
        open_count = ctx.storage.get_int(count_slot)
        if open_count:
            ctx.storage.set_int(count_slot, open_count - 1)
        if payout:
            ctx.transfer(full_node, payout)
        if refund:
            ctx.transfer(light_client, refund)
        ctx.emit(
            "ChannelClosed", topics=[alpha],
            data=payout.to_bytes(32, "big") + refund.to_bytes(32, "big"),
        )
        return payout, refund

    def _validate_state(self, ctx: CallContext, alpha: bytes, amount: int,
                        sig_a: bytes, light_client: Address) -> None:
        """A state claim (a, σ_a) is valid when σ_a is the LC's signature
        over Hash(α ‖ a) and a fits in the channel budget."""
        if amount == 0:
            return
        budget = ctx.storage.get_int(mapping_slot(_CH_BUDGET, alpha))
        ctx.require(amount <= budget, "claimed amount exceeds channel budget")
        digest = ctx.keccak(payment_preimage(alpha, amount))
        signer = ctx.ecrecover(digest, sig_a)
        ctx.require(signer == light_client, "payment not signed by light client")

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    @contract_method(view=True)
    def get_channel(self, ctx: CallContext, args: list) -> tuple:
        """Full channel record: (LC, FN, budget, latest a, status, deadline)."""
        alpha = abi.as_bytes(args[0], exact=ALPHA_BYTES)
        return (
            ctx.storage.get(mapping_slot(_CH_LIGHT_CLIENT, alpha)),
            ctx.storage.get(mapping_slot(_CH_FULL_NODE, alpha)),
            ctx.storage.get_int(mapping_slot(_CH_BUDGET, alpha)),
            ctx.storage.get_int(mapping_slot(_CH_LATEST_AMOUNT, alpha)),
            ctx.storage.get_int(mapping_slot(_CH_STATUS, alpha)),
            ctx.storage.get_int(mapping_slot(_CH_DEADLINE, alpha)),
        )

    @contract_method(view=True)
    def open_channels_of(self, ctx: CallContext, args: list) -> int:
        """How many channels a full node currently serves (load metric)."""
        node = abi.as_address(args[0])
        return ctx.storage.get_int(mapping_slot(_FN_OPEN_COUNT, node.to_bytes()))
