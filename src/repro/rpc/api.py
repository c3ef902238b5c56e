"""The ``eth_*`` API surface a plain (non-PARP) full node exposes.

This is the permissionless-but-unaccountable baseline of the paper's §II-D:
anyone may call it, nothing is signed, nothing is paid, nothing is provable.
PARP wraps exactly these calls; the latency and size benchmarks compare
against this implementation.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..chain.chain import ChainError
from ..crypto.keys import Address
from ..node.fullnode import FullNode
from .jsonrpc import (
    INVALID_PARAMS,
    JsonRpcError,
    SERVER_ERROR,
    from_hex_data,
    from_quantity,
    to_hex_data,
    to_quantity,
)

__all__ = ["EthereumAPI"]


class EthereumAPI:
    """Method handlers over a full node; one instance per served node."""

    def __init__(self, node: FullNode) -> None:
        self.node = node
        self._methods: dict[str, Callable[..., Any]] = {
            "eth_blockNumber": self.block_number,
            "eth_chainId": self.chain_id,
            "eth_getBalance": self.get_balance,
            "eth_getTransactionCount": self.get_transaction_count,
            "eth_getStorageAt": self.get_storage_at,
            "eth_getBlockByNumber": self.get_block_by_number,
            "eth_getTransactionByHash": self.get_transaction_by_hash,
            "eth_getTransactionByBlockNumberAndIndex": self.get_transaction_by_index,
            "eth_getTransactionReceipt": self.get_transaction_receipt,
            "eth_sendRawTransaction": self.send_raw_transaction,
            "eth_getProof": self.get_proof,
            "eth_gasPrice": self.gas_price,
        }

    def methods(self) -> list[str]:
        return sorted(self._methods)

    def dispatch(self, method: str, params: tuple) -> Any:
        handler = self._methods.get(method)
        if handler is None:
            raise JsonRpcError(-32601, f"the method {method} does not exist")
        try:
            return handler(*params)
        except JsonRpcError:
            raise
        except TypeError as exc:
            raise JsonRpcError(INVALID_PARAMS, str(exc)) from exc
        except ChainError as exc:
            raise JsonRpcError(SERVER_ERROR, str(exc)) from exc

    # ------------------------------------------------------------------ #
    # Handlers
    # ------------------------------------------------------------------ #

    def block_number(self) -> str:
        return to_quantity(self.node.head_number())

    def chain_id(self) -> str:
        return to_quantity(self.node.chain_id())

    def gas_price(self) -> str:
        return to_quantity(12 * 10 ** 9)

    def _state_at_tag(self, tag: str):
        if tag in ("latest", "safe", "finalized", None):
            return self.node.state_at(self.node.head_number())
        if tag == "earliest":
            return self.node.state_at(0)
        return self.node.state_at(from_quantity(tag))

    def get_balance(self, address_hex: str, tag: str = "latest") -> str:
        state = self._state_at_tag(tag)
        return to_quantity(state.balance_of(_address(address_hex)))

    def get_transaction_count(self, address_hex: str, tag: str = "latest") -> str:
        state = self._state_at_tag(tag)
        return to_quantity(state.nonce_of(_address(address_hex)))

    def get_storage_at(self, address_hex: str, slot_hex: str,
                       tag: str = "latest") -> str:
        state = self._state_at_tag(tag)
        slot = from_hex_data(slot_hex)
        if len(slot) != 32:
            slot = slot.rjust(32, b"\x00")
        value = state.get_storage(_address(address_hex), slot)
        return to_hex_data(value.rjust(32, b"\x00"))

    def get_block_by_number(self, tag: str, full: bool = False) -> Optional[dict]:
        if tag == "latest":
            number = self.node.head_number()
        else:
            number = from_quantity(tag)
        block = self.node.get_block(number)
        if block is None:
            return None
        header = block.header
        body: dict[str, Any] = {
            "number": to_quantity(header.number),
            "hash": to_hex_data(header.hash),
            "parentHash": to_hex_data(header.parent_hash),
            "stateRoot": to_hex_data(header.state_root),
            "transactionsRoot": to_hex_data(header.transactions_root),
            "receiptsRoot": to_hex_data(header.receipts_root),
            "timestamp": to_quantity(header.timestamp),
            "gasUsed": to_quantity(header.gas_used),
            "gasLimit": to_quantity(header.gas_limit),
            "miner": header.proposer.hex(),
            "extraData": to_hex_data(header.extra_data),
        }
        if full:
            body["transactions"] = [to_hex_data(tx.encode())
                                    for tx in block.transactions]
        else:
            body["transactions"] = [to_hex_data(tx.hash)
                                    for tx in block.transactions]
        return body

    def get_transaction_by_hash(self, tx_hash_hex: str) -> Optional[dict]:
        location = self.node.find_transaction(from_hex_data(tx_hash_hex))
        if location is None:
            return None
        block, index = location
        return self._tx_object(block, index)

    def get_transaction_by_index(self, tag: str, index_hex: str) -> Optional[dict]:
        number = from_quantity(tag) if tag != "latest" else self.node.head_number()
        block = self.node.get_block(number)
        index = from_quantity(index_hex)
        if block is None or index >= len(block.transactions):
            return None
        return self._tx_object(block, index)

    def _tx_object(self, block, index: int) -> dict:
        tx = block.transactions[index]
        return {
            "hash": to_hex_data(tx.hash),
            "blockNumber": to_quantity(block.number),
            "transactionIndex": to_quantity(index),
            "from": tx.sender.hex(),
            "to": tx.to.hex(),
            "value": to_quantity(tx.value),
            "nonce": to_quantity(tx.nonce),
            "gas": to_quantity(tx.gas_limit),
            "gasPrice": to_quantity(tx.gas_price),
            "input": to_hex_data(tx.data),
        }

    def get_transaction_receipt(self, tx_hash_hex: str) -> Optional[dict]:
        tx_hash = from_hex_data(tx_hash_hex)
        location = self.node.find_transaction(tx_hash)
        receipt = self.node.chain.get_receipt(tx_hash)
        if location is None or receipt is None:
            return None
        block, index = location
        return {
            "transactionHash": to_hex_data(tx_hash),
            "blockNumber": to_quantity(block.number),
            "transactionIndex": to_quantity(index),
            "status": to_quantity(receipt.status),
            "gasUsed": to_quantity(receipt.gas_used),
            "cumulativeGasUsed": to_quantity(receipt.cumulative_gas_used),
            "logs": [
                {
                    "address": log.address.hex(),
                    "topics": [to_hex_data(t) for t in log.topics],
                    "data": to_hex_data(log.data),
                }
                for log in receipt.logs
            ],
        }

    def send_raw_transaction(self, raw_hex: str) -> str:
        tx_hash = self.node.submit_transaction(from_hex_data(raw_hex))
        return to_hex_data(tx_hash)

    def get_proof(self, address_hex: str, slots: list,
                  tag: str = "latest") -> dict:
        """EIP-1186-style account/storage proof (what PARP piggybacks on)."""
        state = self._state_at_tag(tag)
        address = _address(address_hex)
        account = state.get_account(address)
        storage_proofs = []
        for slot_hex in slots:
            slot = from_hex_data(slot_hex).rjust(32, b"\x00")
            storage_proofs.append({
                "key": to_hex_data(slot),
                "value": to_hex_data(state.get_storage(address, slot)),
                "proof": [to_hex_data(n) for n in state.prove_storage(address, slot)],
            })
        return {
            "address": address.hex(),
            "balance": to_quantity(account.balance),
            "nonce": to_quantity(account.nonce),
            "storageHash": to_hex_data(account.storage_root),
            "codeHash": to_hex_data(account.code_hash),
            "accountProof": [to_hex_data(n) for n in state.prove_account(address)],
            "storageProof": storage_proofs,
        }


def _address(text: str) -> Address:
    raw = from_hex_data(text)
    if len(raw) != 20:
        raise JsonRpcError(INVALID_PARAMS, f"bad address length {len(raw)}")
    return Address(raw)
