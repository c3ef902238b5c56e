"""Full Nodes Deposit Module (FNDM) — collateral staking for PARP servers.

Paper §IV-C: "This module enables a full node to deposit its tokens, making
it eligible to serve light clients in the network", and §IV-F: on a verified
fraud proof "the contract will instruct the Deposit Module to confiscate the
deposit of the full node and distribute it to three parties".

Design notes
------------
* Eligibility is simply ``deposit >= MIN_FULL_NODE_DEPOSIT``; discovery runs
  over the ``Deposited`` event log (the on-chain registry of §IV, Design
  Goal 2 — events are on-chain data every node can scan), which keeps
  ``deposit()`` at one storage write and lands its gas cost in the zone the
  paper reports in Table IV.
* Withdrawal requires announcing ``stop_serving`` first and waiting
  ``UNBONDING_BLOCKS`` so a fraud proof racing a withdrawal still slashes.
* The slash split is 50% serving-layer treasury / 25% reporting light client
  / 25% witness full node (the paper fixes the three recipients but not the
  ratio; this split is the reproduction's own choice).
"""

from __future__ import annotations

from ..crypto.keys import Address
from ..parp.constants import MIN_FULL_NODE_DEPOSIT, UNBONDING_BLOCKS
from ..vm import abi
from ..vm.contract import NativeContract, contract_method, mapping_slot
from ..vm.runtime import CallContext

__all__ = ["DepositModule"]

# storage layout bases
_DEPOSITS = 1        # mapping(address => uint) collateral
_STOP_BLOCK = 2      # mapping(address => uint) unbonding announcement block
_FRAUD_MODULE = 3    # address allowed to slash

# slash distribution in basis points
SLASH_TREASURY_BPS = 5_000
SLASH_REPORTER_BPS = 2_500
SLASH_WITNESS_BPS = 2_500


class DepositModule(NativeContract):
    """Native-contract implementation of the FNDM."""

    name = "DepositModule"

    def __init__(self, address: Address, fraud_module: Address,
                 treasury: Address) -> None:
        super().__init__(address)
        self._fraud_module = fraud_module
        self._treasury = treasury

    # ------------------------------------------------------------------ #
    # Staking
    # ------------------------------------------------------------------ #

    @contract_method(payable=True)
    def deposit(self, ctx: CallContext, args: list) -> int:
        """Lock collateral; emits ``Deposited`` for off-chain discovery."""
        ctx.require(ctx.value > 0, "deposit must attach value")
        slot = mapping_slot(_DEPOSITS, ctx.sender.to_bytes())
        total = ctx.storage.get_int(slot) + ctx.value
        ctx.storage.set_int(slot, total)
        ctx.emit("Deposited", topics=[ctx.sender.to_bytes()],
                 data=total.to_bytes(32, "big"))
        return total

    @contract_method()
    def stop_serving(self, ctx: CallContext, args: list) -> int:
        """Announce exit; starts the unbonding clock."""
        slot = mapping_slot(_STOP_BLOCK, ctx.sender.to_bytes())
        ctx.require(ctx.storage.get_int(slot) == 0, "already unbonding")
        deposit_slot = mapping_slot(_DEPOSITS, ctx.sender.to_bytes())
        ctx.require(ctx.storage.get_int(deposit_slot) > 0, "no deposit")
        ctx.storage.set_int(slot, ctx.block.number)
        ctx.emit("StopServing", topics=[ctx.sender.to_bytes()])
        return ctx.block.number

    @contract_method()
    def withdraw(self, ctx: CallContext, args: list) -> int:
        """Withdraw the full deposit after the unbonding period."""
        stop_slot = mapping_slot(_STOP_BLOCK, ctx.sender.to_bytes())
        stop_block = ctx.storage.get_int(stop_slot)
        ctx.require(stop_block > 0, "must stop_serving before withdrawing")
        ctx.require(
            ctx.block.number >= stop_block + UNBONDING_BLOCKS,
            "unbonding period not over",
        )
        deposit_slot = mapping_slot(_DEPOSITS, ctx.sender.to_bytes())
        amount = ctx.storage.get_int(deposit_slot)
        ctx.require(amount > 0, "nothing to withdraw")
        ctx.storage.set_int(deposit_slot, 0)
        ctx.storage.set_int(stop_slot, 0)
        ctx.transfer(ctx.sender, amount)
        ctx.emit("Withdrawn", topics=[ctx.sender.to_bytes()],
                 data=amount.to_bytes(32, "big"))
        return amount

    # ------------------------------------------------------------------ #
    # Slashing (FDM only)
    # ------------------------------------------------------------------ #

    @contract_method()
    def slash(self, ctx: CallContext, args: list) -> int:
        """Confiscate a fraudulent node's deposit; 3-way split per §IV-F.

        Only callable by the Fraud Detection Module.
        """
        ctx.require(ctx.sender == self._fraud_module,
                    "only the fraud module may slash")
        full_node = abi.as_address(args[0])
        reporter = abi.as_address(args[1])      # the defrauded light client
        witness = abi.as_address(args[2])       # the witness full node
        deposit_slot = mapping_slot(_DEPOSITS, full_node.to_bytes())
        amount = ctx.storage.get_int(deposit_slot)
        ctx.require(amount > 0, "full node has no deposit to slash")
        ctx.storage.set_int(deposit_slot, 0)

        reporter_cut = amount * SLASH_REPORTER_BPS // 10_000
        witness_cut = amount * SLASH_WITNESS_BPS // 10_000
        treasury_cut = amount - reporter_cut - witness_cut
        ctx.transfer(reporter, reporter_cut)
        ctx.transfer(witness, witness_cut)
        ctx.transfer(self._treasury, treasury_cut)
        ctx.emit(
            "Slashed",
            topics=[full_node.to_bytes(), reporter.to_bytes(), witness.to_bytes()],
            data=amount.to_bytes(32, "big"),
        )
        return amount

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    @contract_method(view=True)
    def deposit_of(self, ctx: CallContext, args: list) -> int:
        node = abi.as_address(args[0])
        return ctx.storage.get_int(mapping_slot(_DEPOSITS, node.to_bytes()))

    @contract_method(view=True)
    def is_eligible(self, ctx: CallContext, args: list) -> bool:
        """Can this node serve?  (Enough collateral, not unbonding.)"""
        node = abi.as_address(args[0])
        amount = ctx.storage.get_int(mapping_slot(_DEPOSITS, node.to_bytes()))
        if amount < MIN_FULL_NODE_DEPOSIT:
            return False
        unbonding = ctx.storage.get_int(mapping_slot(_STOP_BLOCK, node.to_bytes()))
        return unbonding == 0
