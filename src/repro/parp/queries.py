"""The verifiable-query catalog: one place that defines, for every supported
RPC method, how a full node *executes and proves* it and how a light client
(or the on-chain Fraud Detection Module) *verifies* the result.

Sharing this logic between the off-chain client checks (§V-D) and the
on-chain Algorithm 2 is what guarantees the two can never disagree about what
counts as fraud — a property the paper relies on ("the on-chain module can
use the request and response data to re-check all the conditions").  What a
server, a router or a batch has to know about a method (does it seal a
block — and so may not ride a batch — is its answer a function of the height,
which parameter picks its shard) is on the same row: adding a method is one
row.

Supported methods and their proof obligations:

=============================== ============= =====================================
method                          trie          binding checked by verifiers
=============================== ============= =====================================
eth_getBalance(addr)            state @ m_B   result == proven account record
eth_getStorageAt(addr, slot)    state+storage account proof -> storage root -> slot
eth_getTransactionByBlockNumberAndIndex  txs  result tx == proven trie value
eth_sendRawTransaction(raw)     txs @ incl.   proven trie value == submitted raw tx
eth_getTransactionReceipt(hash) txs+receipts  tx at index hashes to request's hash
parp_updatesByRange(start, n)   headers       hash-linked page anchored to the
                                              local chain (self-certifying)
eth_blockNumber / eth_chainId / parp_channelStatus   (unverifiable; no proof)
=============================== ============= =====================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Sequence

from ..chain.account import Account
from ..chain.block import Block, index_key
from ..chain.header import BlockHeader
from ..chain.state import StateDB
from ..crypto.keys import Address
from ..rlp import codec as rlp
from ..trie.proof import ProofError, generate_proof, verify_proof
from .messages import MessageError, PARPResponse, RpcCall

__all__ = [
    "ChainBackend",
    "QueryError",
    "QueryFraud",
    "Unverifiable",
    "QuerySpec",
    "QUERY_CATALOG",
    "is_verifiable",
    "execute_query",
    "verify_query_result",
    "decode_balance",
    "decode_header_range",
    "decode_inclusion",
    "decode_int_result",
]

HeaderLookup = Callable[[int], Optional[BlockHeader]]


class QueryError(Exception):
    """The query cannot be executed (bad params, unknown data)."""


class QueryFraud(Exception):
    """Verification proved the response content wrong — slashing evidence."""


class Unverifiable(Exception):
    """The verifier lacks data (e.g. an unsynced header); cannot classify."""


class ChainBackend(Protocol):
    """What query execution needs from the serving full node's chain."""

    def head_number(self) -> int: ...
    def get_header(self, number: int) -> Optional[BlockHeader]: ...
    def state_at(self, number: int) -> StateDB: ...
    def get_block(self, number: int) -> Optional[Block]: ...
    def find_transaction(self, tx_hash: bytes) -> Optional[tuple[Block, int]]: ...
    def submit_transaction(self, raw: bytes) -> bytes: ...
    def ensure_mined(self, tx_hash: bytes) -> Optional[tuple[int, int]]: ...
    def chain_id(self) -> int: ...


@dataclass(frozen=True)
class QuerySpec:
    """Everything the protocol knows about one RPC method."""

    method: str
    #: (backend, call, m_b) -> (result_bytes, proof_nodes)
    execute: Callable[[ChainBackend, RpcCall, int], tuple[bytes, Sequence[bytes]]]
    #: (call, response, header_lookup) -> None, raising QueryFraud/Unverifiable
    verify: Optional[Callable[[RpcCall, PARPResponse, HeaderLookup], None]] = None
    #: (call, result, m_b) -> the height whose header proves the answer (None:
    #: no header does); ``verify`` fetches it, a fraud package carries it
    proof_height: Optional[Callable[[RpcCall, bytes, int], Optional[int]]] = None
    #: executing it seals a block: the response attests the head *after*
    #: execution (the inclusion block), not the snapshot it was read at
    seals: bool = False
    #: (result, proof) is a function of the chain at a fixed height and the
    #: call — safe to keep behind the server's proof LRU
    cacheable: bool = False
    #: index of the address parameter whose hashed key routes the call to a
    #: state shard; None for a call any shard server answers
    routes_by: Optional[int] = None

    @property
    def verifiable(self) -> bool:
        return self.verify is not None

    @property
    def batchable(self) -> bool:
        """A method that seals would break a batch's one-snapshot promise."""
        return not self.seals


def _proving_header(call: RpcCall, response: PARPResponse,
                    get_header: HeaderLookup) -> BlockHeader:
    """The header the method's ``proof_height`` names."""
    number = QUERY_CATALOG[call.method].proof_height(
        call, response.result, response.m_b)
    header = get_header(number)
    if header is None:
        raise Unverifiable(f"no header for block {number}")
    return header


def _proven(what: str, walk: Callable[..., Optional[bytes]],
            *args) -> Optional[bytes]:
    """What ``walk(*args)`` proves; a proof that does not verify is fraud."""
    try:
        return walk(*args)
    except ProofError as exc:
        raise QueryFraud(f"{what} proof does not verify: {exc}") from exc


def _at_response_height(call: RpcCall, result: bytes, m_b: int) -> int:
    """State queries prove against the state root at ``res.m_B``."""
    return m_b


def _at_called_block(call: RpcCall, result: bytes, m_b: int) -> int:
    return call.param_int(0)


def _at_inclusion_block(call: RpcCall, result: bytes, m_b: int) -> Optional[int]:
    """Inclusion queries prove against the transaction / receipt roots of
    the block the result names (a pending acknowledgement names none)."""
    return decode_inclusion(result)[0]


# --------------------------------------------------------------------------- #
# eth_getBalance
# --------------------------------------------------------------------------- #

def _execute_get_balance(backend: ChainBackend, call: RpcCall,
                         m_b: int) -> tuple[bytes, Sequence[bytes]]:
    address_raw = call.param_bytes(0, exact=20)
    state = backend.state_at(m_b)
    address = Address(address_raw)
    proof = state.prove_account(address)
    if state.account_exists(address):
        result = state.get_account(address).encode()
    else:
        result = b""
    return result, proof


def _verify_get_balance(call: RpcCall, response: PARPResponse,
                        get_header: HeaderLookup) -> None:
    from ..lightclient.verify import walk_account

    address_raw = call.param_bytes(0, exact=20)
    header = _proving_header(call, response, get_header)
    proven = _proven("account", walk_account, header.state_root, address_raw,
                     response.proof_index)
    if response.result != (proven or b""):
        raise QueryFraud("returned account record differs from proven record")


def decode_balance(result: bytes) -> int:
    """Extract the balance from a getBalance result payload."""
    if result == b"":
        return 0
    return Account.decode(result).balance


# --------------------------------------------------------------------------- #
# eth_getStorageAt
# --------------------------------------------------------------------------- #

def _execute_get_storage(backend: ChainBackend, call: RpcCall,
                         m_b: int) -> tuple[bytes, Sequence[bytes]]:
    address_raw = call.param_bytes(0, exact=20)
    slot = call.param_bytes(1, exact=32)
    state = backend.state_at(m_b)
    address = Address(address_raw)
    account_proof = state.prove_account(address)
    storage_proof = state.prove_storage(address, slot)
    account = state.get_account(address)
    value = state.get_storage(address, slot)
    result = rlp.encode([value, account.encode() if not account.is_empty else b""])
    return result, account_proof + storage_proof


def _verify_get_storage(call: RpcCall, response: PARPResponse,
                        get_header: HeaderLookup) -> None:
    from ..lightclient.verify import walk_account, walk_storage

    address_raw = call.param_bytes(0, exact=20)
    slot = call.param_bytes(1, exact=32)
    header = _proving_header(call, response, get_header)
    claimed_value, claimed_account = _decode_strings(
        response.result, 2, "getStorageAt result")
    proof = response.proof_index  # both walks share the one index
    proven_account = _proven("account", walk_account, header.state_root,
                             address_raw, proof)
    if (proven_account or b"") != claimed_account:
        raise QueryFraud("returned account record differs from proven record")
    if proven_account is None:
        if claimed_value != b"":
            raise QueryFraud("storage value claimed for a non-existent account")
        return
    proven_value = _proven("storage", walk_storage, proven_account, slot, proof)
    expected = b"" if proven_value is None else rlp.decode(proven_value)
    if claimed_value != expected:
        raise QueryFraud("returned storage value differs from proven value")


# --------------------------------------------------------------------------- #
# eth_getTransactionByBlockNumberAndIndex
# --------------------------------------------------------------------------- #

def _execute_get_tx_by_index(backend: ChainBackend, call: RpcCall,
                             m_b: int) -> tuple[bytes, Sequence[bytes]]:
    number = call.param_int(0)
    index = call.param_int(1)
    block = backend.get_block(number)
    if block is None:
        raise QueryError(f"no block at height {number}")
    if index >= len(block.transactions):
        raise QueryError(f"block {number} has no transaction {index}")
    tx_bytes = block.transactions[index].encode()
    proof = generate_proof(block.transaction_trie, index_key(index))
    result = rlp.encode([rlp.encode_int(number), rlp.encode_int(index), tx_bytes])
    return result, proof


def _verify_get_tx_by_index(call: RpcCall, response: PARPResponse,
                            get_header: HeaderLookup) -> None:
    index = call.param_int(1)
    res_number, res_index, tx_bytes = decode_inclusion(response.result)
    if (res_number, res_index) != (call.param_int(0), index):
        raise QueryFraud("result references a different block/index than requested")
    header = _proving_header(call, response, get_header)
    proven = _proven("transaction", verify_proof, header.transactions_root,
                     index_key(index), response.proof_index)
    if proven is None:
        raise QueryFraud("proof shows the transaction index is vacant")
    if proven != tx_bytes:
        raise QueryFraud("returned transaction differs from proven transaction")


# --------------------------------------------------------------------------- #
# eth_sendRawTransaction (the write workload)
# --------------------------------------------------------------------------- #

def _execute_send_raw_tx(backend: ChainBackend, call: RpcCall,
                         m_b: int) -> tuple[bytes, Sequence[bytes]]:
    raw_tx = call.param_bytes(0)
    tx_hash = backend.submit_transaction(raw_tx)
    location = backend.ensure_mined(tx_hash)
    if location is None:
        # Pending: acknowledge without a proof (client re-queries later).
        return rlp.encode([b"", b"", tx_hash]), []
    number, index = location
    block = backend.get_block(number)
    if block is None:
        raise QueryError(f"inclusion block {number} disappeared")
    proof = generate_proof(block.transaction_trie, index_key(index))
    result = rlp.encode([rlp.encode_int(number), rlp.encode_int(index), tx_hash])
    return result, proof


def _verify_send_raw_tx(call: RpcCall, response: PARPResponse,
                        get_header: HeaderLookup) -> None:
    raw_tx = call.param_bytes(0)
    number, index, tx_hash = decode_inclusion(response.result)
    if response.proof_index.keccak(raw_tx) != tx_hash:
        raise QueryFraud("acknowledged hash is not the hash of the submitted tx")
    if number is None:  # pending acknowledgement: nothing provable yet
        if response.proof:
            raise QueryFraud("pending acknowledgement carries a proof")
        return
    header = _proving_header(call, response, get_header)
    proven = _proven("inclusion", verify_proof, header.transactions_root,
                     index_key(index), response.proof_index)
    if proven != raw_tx:
        raise QueryFraud("proof does not contain the submitted transaction")


# --------------------------------------------------------------------------- #
# eth_getTransactionReceipt
# --------------------------------------------------------------------------- #

def _execute_get_receipt(backend: ChainBackend, call: RpcCall,
                         m_b: int) -> tuple[bytes, Sequence[bytes]]:
    tx_hash = call.param_bytes(0, exact=32)
    location = backend.find_transaction(tx_hash)
    if location is None:
        raise QueryError(f"unknown transaction {tx_hash.hex()}")
    block, index = location
    receipt = block.receipts[index]
    tx_proof = generate_proof(block.transaction_trie, index_key(index))
    receipt_proof = generate_proof(block.receipt_trie, index_key(index))
    result = rlp.encode([
        rlp.encode_int(block.number), rlp.encode_int(index), receipt.encode(),
    ])
    return result, tx_proof + receipt_proof


def _verify_get_receipt(call: RpcCall, response: PARPResponse,
                        get_header: HeaderLookup) -> None:
    tx_hash = call.param_bytes(0, exact=32)
    number, index, receipt_bytes = decode_inclusion(response.result)
    if number is None:
        raise QueryFraud("receipt result names no block")
    header = _proving_header(call, response, get_header)
    proof = response.proof_index  # both walks share the one index
    proven_tx = _proven("transaction", verify_proof, header.transactions_root,
                        index_key(index), proof)
    if proven_tx is None or proof.keccak(proven_tx) != tx_hash:
        raise QueryFraud("transaction at claimed index has a different hash")
    proven_receipt = _proven("receipt", verify_proof, header.receipts_root,
                             index_key(index), proof)
    if proven_receipt != receipt_bytes:
        raise QueryFraud("returned receipt differs from proven receipt")


def decode_inclusion(result: bytes) -> tuple[Optional[int], Optional[int], bytes]:
    """Parse a send/tx/receipt result into (block_number, index, payload)."""
    number_b, index_b, payload = _decode_strings(result, 3, "inclusion result")
    if number_b == b"" and index_b == b"":
        return None, None, payload
    try:
        return rlp.decode_int(number_b), rlp.decode_int(index_b), payload
    except rlp.RLPError as exc:
        raise QueryFraud(f"malformed inclusion result: {exc}") from exc


# --------------------------------------------------------------------------- #
# parp_updatesByRange (billable checkpoint sync, Altair UpdatesByRange analog)
# --------------------------------------------------------------------------- #

def _execute_updates_range(backend: ChainBackend, call: RpcCall,
                           m_b: int) -> tuple[bytes, Sequence[bytes]]:
    from ..lightclient.checkpoint import MAX_UPDATE_PAGE

    start = call.param_int(0)
    count = call.param_int(1)
    if count < 1:
        raise QueryError("updates range needs a positive header count")
    stop = min(start + min(count, MAX_UPDATE_PAGE) - 1, backend.head_number())
    headers: list[bytes] = []
    for number in range(start, stop + 1):
        header = backend.get_header(number)
        if header is None:
            break
        headers.append(header.encode())
    if not headers:
        raise QueryError(f"no headers at or above height {start}")
    # No trie proof: the page certifies itself through hash linkage, which
    # the verifier anchors to the client's locally quorum-checked chain.
    return rlp.encode(headers), []


def _at_anchor(call: RpcCall, result: bytes, m_b: int) -> Optional[int]:
    """A page proves itself by linking to the header below its first."""
    start = call.param_int(0)
    return start - 1 if start > 0 else None


def _verify_updates_range(call: RpcCall, response: PARPResponse,
                          get_header: HeaderLookup) -> None:
    from ..lightclient.checkpoint import MAX_UPDATE_PAGE, RangeUpdate

    start = call.param_int(0)
    count = call.param_int(1)
    try:
        update = RangeUpdate.decode(response.result)
    except rlp.RLPError as exc:
        raise QueryFraud(f"malformed updates-range page: {exc}") from exc
    if update.start != start:
        raise QueryFraud("page starts at a different height than requested")
    if len(update) > min(count, MAX_UPDATE_PAGE):
        raise QueryFraud("page is longer than requested")
    if update.tip.number > response.m_b:
        raise QueryFraud("page extends past the server's attested head")
    if start > 0:
        anchor = _proving_header(call, response, get_header)
        if update.headers[0].parent_hash != anchor.hash:
            raise QueryFraud("page does not link to the locally verified chain")
    # Any overlap with already-verified local headers must agree exactly.
    for header in update.headers:
        local = get_header(header.number)
        if local is not None and local.hash != header.hash:
            raise QueryFraud(
                f"page header {header.number} conflicts with the local chain"
            )


def decode_header_range(result: bytes) -> tuple[BlockHeader, ...]:
    """Parse a ``parp_updatesByRange`` result into its headers."""
    from ..lightclient.checkpoint import RangeUpdate

    try:
        return RangeUpdate.decode(result).headers
    except rlp.RLPError as exc:
        raise MessageError(f"malformed updates-range page: {exc}") from exc


# --------------------------------------------------------------------------- #
# Unverifiable queries
# --------------------------------------------------------------------------- #

def _execute_block_number(backend: ChainBackend, call: RpcCall,
                          m_b: int) -> tuple[bytes, Sequence[bytes]]:
    return rlp.encode(rlp.encode_int(backend.head_number())), []


def _execute_chain_id(backend: ChainBackend, call: RpcCall,
                      m_b: int) -> tuple[bytes, Sequence[bytes]]:
    return rlp.encode(rlp.encode_int(backend.chain_id())), []


def decode_int_result(result: bytes) -> int:
    item = rlp.decode(result)
    if not isinstance(item, bytes):
        raise MessageError("expected an integer result payload")
    return rlp.decode_int(item)


# --------------------------------------------------------------------------- #
# Catalog
# --------------------------------------------------------------------------- #

QUERY_CATALOG: dict[str, QuerySpec] = {spec.method: spec for spec in (
    QuerySpec("eth_getBalance", _execute_get_balance, _verify_get_balance,
              _at_response_height, cacheable=True, routes_by=0),
    QuerySpec("eth_getStorageAt", _execute_get_storage, _verify_get_storage,
              _at_response_height, cacheable=True, routes_by=0),
    QuerySpec("eth_getTransactionByBlockNumberAndIndex",
              _execute_get_tx_by_index, _verify_get_tx_by_index,
              _at_called_block, cacheable=True),
    QuerySpec("eth_sendRawTransaction", _execute_send_raw_tx,
              _verify_send_raw_tx, _at_inclusion_block, seals=True),
    QuerySpec("eth_getTransactionReceipt", _execute_get_receipt,
              _verify_get_receipt, _at_inclusion_block, cacheable=True),
    QuerySpec("parp_updatesByRange", _execute_updates_range,
              _verify_updates_range, _at_anchor),
    QuerySpec("eth_blockNumber", _execute_block_number),
    QuerySpec("eth_chainId", _execute_chain_id),
)}


def is_verifiable(method: str) -> bool:
    spec = QUERY_CATALOG.get(method)
    return spec is not None and spec.verifiable


def execute_query(backend: ChainBackend, call: RpcCall,
                  m_b: int) -> tuple[bytes, Sequence[bytes]]:
    """Full-node side: produce (result, proof) for a call at height m_b."""
    spec = QUERY_CATALOG.get(call.method)
    if spec is None:
        raise QueryError(f"unsupported RPC method {call.method!r}")
    return spec.execute(backend, call, m_b)


def verify_query_result(call: RpcCall, response: PARPResponse,
                        get_header: HeaderLookup) -> None:
    """Verifier side (light client *and* FDM): raise on provable fraud.

    Raises :class:`QueryFraud` when the proof/result pair is provably wrong,
    :class:`Unverifiable` when verification needs unavailable headers, and
    returns silently for valid or inherently unverifiable responses.
    """
    spec = QUERY_CATALOG.get(call.method)
    if spec is not None and spec.verifiable:
        spec.verify(call, response, get_header)


# --------------------------------------------------------------------------- #
# small payload helpers
# --------------------------------------------------------------------------- #

def _decode_strings(raw: bytes, count: int, what: str) -> list[bytes]:
    """A result payload that is a list of ``count`` byte strings."""
    try:
        item = rlp.decode(raw)
    except rlp.RLPError as exc:
        raise QueryFraud(f"undecodable {what}: {exc}") from exc
    if (not isinstance(item, list) or len(item) != count
            or not all(isinstance(x, bytes) for x in item)):
        raise QueryFraud(f"malformed {what}")
    return item
