"""Native-contract execution runtime with EVM-style gas accounting.

This is the substitute for the EVM + Solidity stack the paper deploys its
three on-chain modules on.  Contracts are Python classes (see
:mod:`repro.vm.contract`) registered at fixed addresses; every observable
effect — storage access, hashing, signature recovery, logging, value
transfer — is metered through :class:`GasMeter` with the real EVM constants
from :mod:`repro.vm.gas`, so the gas totals of Table IV emerge from the same
bookkeeping Ethereum performs.

Execution semantics mirror a minimal EVM transaction:

* up-front fee escrow (``gas_limit * gas_price``) and nonce check,
* intrinsic gas (21000 + calldata),
* snapshot/revert of the whole state on contract failure,
* EIP-3529-capped refunds, coinbase fee credit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from ..chain.receipt import LogEntry, Receipt
from ..chain.state import InsufficientBalance, StateDB
from ..chain.transaction import Transaction
from ..crypto import Signature, SignatureError, keccak256, recover_address
from ..crypto.keys import Address
from . import abi, gas

__all__ = [
    "VMError",
    "Revert",
    "OutOfGas",
    "GasMeter",
    "BlockContext",
    "CallContext",
    "MeteredStorage",
    "ContractRegistry",
    "TransactionExecutor",
    "ExecutionResult",
]


class VMError(Exception):
    """Base class for execution failures that revert the transaction."""


class Revert(VMError):
    """Contract-initiated failure (``require`` in the paper's Algorithm 2)."""

    def __init__(self, reason: str = "") -> None:
        super().__init__(reason or "execution reverted")
        self.reason = reason


class OutOfGas(VMError):
    """Gas limit exhausted; consumes the entire gas limit."""


class GasMeter:
    """Tracks gas consumption, per-reason breakdown, and refunds."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0
        self.refund = 0
        self.breakdown: dict[str, int] = {}

    def charge(self, amount: int, reason: str = "compute") -> None:
        if amount < 0:
            raise ValueError("cannot charge negative gas")
        if self.used + amount > self.limit:
            self.used = self.limit
            raise OutOfGas(f"out of gas charging {amount} for {reason}")
        self.used += amount
        self.breakdown[reason] = self.breakdown.get(reason, 0) + amount

    def add_refund(self, amount: int) -> None:
        self.refund += amount

    @property
    def remaining(self) -> int:
        return self.limit - self.used


@dataclass(frozen=True)
class BlockContext:
    """What contracts can see of the including block."""

    number: int
    timestamp: int
    coinbase: Address
    get_block_hash: Callable[[int], Optional[bytes]]

    def block_hash(self, number: int) -> Optional[bytes]:
        """BLOCKHASH semantics: only the most recent 256 blocks resolve."""
        if number >= self.number or number < 0:
            return None
        if self.number - number > 256:
            return None
        return self.get_block_hash(number)


class MeteredStorage:
    """Per-contract storage view that meters every access (EIP-2929-style)."""

    def __init__(self, state: StateDB, address: Address, meter: GasMeter,
                 warm_slots: set[tuple[bytes, bytes]]) -> None:
        self._state = state
        self._address = address
        self._meter = meter
        self._warm_slots = warm_slots

    def _slot_bytes(self, slot: bytes | int) -> bytes:
        if isinstance(slot, int):
            return slot.to_bytes(32, "big")
        if len(slot) != 32:
            raise ValueError("storage slots must be 32 bytes")
        return slot

    def _touch(self, slot: bytes) -> bool:
        """Mark the slot warm; return True when it was already warm."""
        key = (self._address.to_bytes(), slot)
        if key in self._warm_slots:
            return True
        self._warm_slots.add(key)
        return False

    def get(self, slot: bytes | int) -> bytes:
        slot_b = self._slot_bytes(slot)
        warm = self._touch(slot_b)
        self._meter.charge(
            gas.WARM_ACCESS_GAS if warm else gas.SLOAD_COLD_GAS, "sload"
        )
        return self._state.get_storage(self._address, slot_b)

    def get_int(self, slot: bytes | int) -> int:
        raw = self.get(slot)
        return int.from_bytes(raw, "big") if raw else 0

    def set(self, slot: bytes | int, value: bytes) -> None:
        slot_b = self._slot_bytes(slot)
        warm = self._touch(slot_b)
        current = self._state.get_storage(self._address, slot_b)
        cost = 0 if warm else gas.SLOAD_COLD_GAS
        if value == current:
            cost += gas.WARM_ACCESS_GAS
        elif current == b"" :
            cost += gas.SSTORE_SET_GAS
        else:
            cost += gas.SSTORE_RESET_GAS
            if value == b"":
                self._meter.add_refund(gas.SSTORE_CLEAR_REFUND)
        self._meter.charge(cost, "sstore")
        self._state.set_storage(self._address, slot_b, value)

    def set_int(self, slot: bytes | int, value: int) -> None:
        self.set(slot, b"" if value == 0 else value.to_bytes(
            max(1, (value.bit_length() + 7) // 8), "big"))


class CallContext:
    """Everything a contract method can do during one call frame."""

    def __init__(self, executor_state: "_TxState", contract_address: Address,
                 sender: Address, value: int, calldata: bytes) -> None:
        self._tx = executor_state
        self.address = contract_address
        self.sender = sender
        self.value = value
        self.calldata = calldata
        self.storage = MeteredStorage(
            executor_state.state, contract_address,
            executor_state.meter, executor_state.warm_slots,
        )

    # -- views ----------------------------------------------------------- #

    @property
    def block(self) -> BlockContext:
        return self._tx.block

    @property
    def origin(self) -> Address:
        return self._tx.origin

    @property
    def meter(self) -> GasMeter:
        return self._tx.meter

    def balance(self, address: Address) -> int:
        self._charge_account_access(address)
        return self._tx.state.balance_of(address)

    # -- control flow ------------------------------------------------------ #

    def require(self, condition: Any, reason: str) -> None:
        """Solidity ``require``: revert the transaction when false."""
        if not condition:
            raise Revert(reason)

    def charge(self, amount: int, reason: str = "compute") -> None:
        self._tx.meter.charge(amount, reason)

    # -- builtins ---------------------------------------------------------- #

    def keccak(self, data: bytes) -> bytes:
        self._tx.meter.charge(gas.keccak_gas(len(data)), "keccak")
        return keccak256(data)

    def ecrecover(self, msg_hash: bytes, signature: bytes) -> Optional[Address]:
        """Recover a signer address; None on any invalid input (like the
        zero-address result of the EVM precompile).  Hint-less by design: a
        contract is charged for, and gets, a full recovery."""
        self._tx.meter.charge(gas.ECRECOVER_GAS, "ecrecover")
        try:
            sig = Signature.from_bytes(signature)
            return recover_address(msg_hash, sig)
        except (SignatureError, ValueError):
            return None

    def block_hash(self, number: int) -> Optional[bytes]:
        self._tx.meter.charge(20, "blockhash")
        return self._tx.block.block_hash(number)

    # -- effects ----------------------------------------------------------- #

    def emit(self, event: str, topics: Sequence[bytes] = (), data: bytes = b"") -> None:
        """Emit an event log (topic0 is keccak256 of the event name)."""
        all_topics = (keccak256(event.encode("ascii")),) + tuple(
            t.rjust(32, b"\x00") if len(t) < 32 else t for t in topics
        )
        for topic in all_topics:
            if len(topic) != 32:
                raise Revert(f"event topic must be <=32 bytes in {event}")
        self._tx.meter.charge(
            gas.LOG_BASE_GAS + gas.LOG_TOPIC_GAS * len(all_topics)
            + gas.LOG_DATA_BYTE_GAS * len(data),
            "log",
        )
        self._tx.logs.append(LogEntry(self.address, all_topics, data))

    def transfer(self, to: Address, amount: int) -> None:
        """Send value from the contract's own balance."""
        self._charge_account_access(to)
        self._tx.meter.charge(gas.CALL_VALUE_GAS, "call-value")
        if not self._tx.state.account_exists(to):
            self._tx.meter.charge(gas.NEW_ACCOUNT_GAS, "new-account")
        try:
            self._tx.state.transfer(self.address, to, amount)
        except InsufficientBalance as exc:
            raise Revert(f"contract balance too low: {exc}") from exc

    def call(self, to: Address, method: str, args: Sequence[Any] = (),
             value: int = 0) -> Any:
        """Synchronous cross-contract call (used by FDM -> Deposit slashing)."""
        self._charge_account_access(to)
        if value:
            self._tx.meter.charge(gas.CALL_VALUE_GAS, "call-value")
            try:
                self._tx.state.transfer(self.address, to, value)
            except InsufficientBalance as exc:
                raise Revert(str(exc)) from exc
        calldata = abi.encode_call(method, args)
        return self._tx.dispatch(self.address, to, value, calldata)

    def _charge_account_access(self, address: Address) -> None:
        raw = address.to_bytes()
        if raw in self._tx.warm_addresses:
            self._tx.meter.charge(gas.WARM_ACCESS_GAS, "account-access")
        else:
            self._tx.warm_addresses.add(raw)
            self._tx.meter.charge(gas.COLD_ACCOUNT_ACCESS_GAS, "account-access")


class ContractRegistry:
    """Maps addresses to deployed native contracts."""

    def __init__(self) -> None:
        self._contracts: dict[bytes, Any] = {}

    def deploy(self, contract: Any) -> None:
        address: Address = contract.address
        if address.to_bytes() in self._contracts:
            raise ValueError(f"address {address.hex()} already has a contract")
        self._contracts[address.to_bytes()] = contract

    def get(self, address: Address) -> Optional[Any]:
        return self._contracts.get(address.to_bytes())

    def __contains__(self, address: Address) -> bool:
        return address.to_bytes() in self._contracts

    def addresses(self) -> list[Address]:
        return [Address(raw) for raw in self._contracts]


@dataclass
class _TxState:
    """Mutable bookkeeping shared by all call frames of one transaction."""

    state: StateDB
    block: BlockContext
    registry: ContractRegistry
    meter: GasMeter
    origin: Address
    warm_addresses: set[bytes] = field(default_factory=set)
    warm_slots: set[tuple[bytes, bytes]] = field(default_factory=set)
    logs: list[LogEntry] = field(default_factory=list)

    def dispatch(self, sender: Address, to: Address, value: int,
                 calldata: bytes) -> Any:
        contract = self.registry.get(to)
        if contract is None:
            return None  # plain value transfer to an EOA
        # Calibrated stand-in for Solidity's decode/memory overhead.
        self.meter.charge(
            gas.EXECUTION_BYTE_GAS * len(calldata), "execution"
        )
        ctx = CallContext(self, to, sender, value, calldata)
        return contract.dispatch(ctx)


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of applying one transaction."""

    receipt: Receipt
    gas_used: int
    return_value: Any
    error: Optional[str]
    gas_breakdown: dict[str, int]

    @property
    def succeeded(self) -> bool:
        return self.receipt.status == 1


class TransactionExecutor:
    """Applies signed transactions to a :class:`StateDB`."""

    def __init__(self, registry: ContractRegistry) -> None:
        self.registry = registry

    def apply(self, state: StateDB, block: BlockContext, tx: Transaction,
              cumulative_gas: int = 0) -> ExecutionResult:
        sender = tx.sender
        upfront = tx.gas_limit * tx.gas_price
        if state.nonce_of(sender) != tx.nonce:
            raise VMError(
                f"bad nonce for {sender.hex()}: tx has {tx.nonce}, "
                f"state has {state.nonce_of(sender)}"
            )
        if state.balance_of(sender) < upfront + tx.value:
            raise VMError(
                f"sender {sender.hex()} cannot cover value + max fee"
            )
        state.sub_balance(sender, upfront)
        state.increment_nonce(sender)

        meter = GasMeter(tx.gas_limit)
        tx_state = _TxState(
            state=state, block=block, registry=self.registry,
            meter=meter, origin=sender,
        )
        tx_state.warm_addresses.update({sender.to_bytes(), tx.to.to_bytes()})

        snapshot = state.snapshot()
        return_value: Any = None
        error: Optional[str] = None
        status = 1
        try:
            meter.charge(tx.intrinsic_gas(), "intrinsic")
            if tx.value:
                state.transfer(sender, tx.to, tx.value)
            return_value = tx_state.dispatch(sender, tx.to, tx.value, tx.data)
        except VMError as exc:
            state.revert(snapshot)
            tx_state.logs.clear()
            status = 0
            error = str(exc)
            if isinstance(exc, OutOfGas):
                meter.used = meter.limit
        except InsufficientBalance as exc:
            state.revert(snapshot)
            tx_state.logs.clear()
            status = 0
            error = str(exc)

        refund = 0
        if status == 1:
            refund = min(meter.refund, meter.used // gas.MAX_REFUND_QUOTIENT)
        gas_used = meter.used - refund

        # Settle fees: unused gas back to sender, burn-free fee to coinbase.
        state.add_balance(sender, (tx.gas_limit - gas_used) * tx.gas_price)
        state.add_balance(block.coinbase, gas_used * tx.gas_price)

        receipt = Receipt(
            status=status,
            cumulative_gas_used=cumulative_gas + gas_used,
            logs=tuple(tx_state.logs),
            gas_used=gas_used,
        )
        return ExecutionResult(
            receipt=receipt,
            gas_used=gas_used,
            return_value=return_value,
            error=error,
            gas_breakdown=dict(meter.breakdown),
        )
