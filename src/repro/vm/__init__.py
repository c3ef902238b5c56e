"""Native-contract runtime with EVM-style gas metering."""

from . import abi, gas
from .contract import NativeContract, contract_method, mapping_slot
from .runtime import (
    BlockContext,
    CallContext,
    ContractRegistry,
    ExecutionResult,
    GasMeter,
    MeteredStorage,
    OutOfGas,
    Revert,
    TransactionExecutor,
    VMError,
)

__all__ = [
    "abi",
    "gas",
    "NativeContract",
    "contract_method",
    "mapping_slot",
    "BlockContext",
    "CallContext",
    "ContractRegistry",
    "ExecutionResult",
    "GasMeter",
    "MeteredStorage",
    "OutOfGas",
    "Revert",
    "TransactionExecutor",
    "VMError",
]
