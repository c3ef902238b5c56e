"""The verifiable-query catalog: execute-and-verify for every method."""

import pytest

from repro.chain import GenesisConfig, UnsignedTransaction
from repro.crypto import PrivateKey, keccak256
from repro.node import Devnet, FullNode
from repro.parp.messages import (
    MessageError, PARPRequest, PARPResponse, RpcCall)
from repro.parp.queries import (
    QUERY_CATALOG,
    QueryError,
    QueryFraud,
    Unverifiable,
    decode_balance,
    decode_inclusion,
    decode_int_result,
    execute_query,
    verify_query_result,
)

LC = PrivateKey.from_seed("q:lc")
FN = PrivateKey.from_seed("q:fn")
ALICE = PrivateKey.from_seed("q:alice")
BOB = PrivateKey.from_seed("q:bob")
TOKEN = 10 ** 18
ALPHA = keccak256(b"q-channel")[:16]


@pytest.fixture(scope="module")
def env():
    net = Devnet(GenesisConfig(allocations={
        ALICE.address: 5 * TOKEN, BOB.address: 3 * TOKEN,
        FN.address: TOKEN,
    }))
    node = FullNode(net.chain, key=FN)
    # mine one block with a known transfer for the tx/receipt queries
    tx = UnsignedTransaction(nonce=0, gas_price=10 ** 9, gas_limit=21_000,
                             to=BOB.address, value=111).sign(ALICE)
    net.chain.add_transaction(tx)
    net.mine()
    net.advance_blocks(1)
    return net, node, tx


def run(node, net, call, m_b=None):
    m_b = m_b if m_b is not None else node.head_number()
    result, proof = execute_query(node, call, m_b)
    request = PARPRequest.build(ALPHA, net.chain.head.hash, 10, call, LC)
    response = PARPResponse.build(ALPHA, request, node.head_number(),
                                  result, proof, FN)
    return request, response


def headers(net):
    return lambda n: net.chain.get_header(n)


class TestGetBalance:
    def test_execute_verify_roundtrip(self, env):
        net, node, _ = env
        call = RpcCall.create("eth_getBalance", ALICE.address)
        _, response = run(node, net, call)
        verify_query_result(call, response, headers(net))
        assert decode_balance(response.result) == 5 * TOKEN - 111 - 21_000 * 10 ** 9

    def test_absent_account_balance_zero(self, env):
        net, node, _ = env
        ghost = PrivateKey.from_seed("q:ghost").address
        call = RpcCall.create("eth_getBalance", ghost)
        _, response = run(node, net, call)
        verify_query_result(call, response, headers(net))
        assert decode_balance(response.result) == 0

    def test_tampered_result_is_fraud(self, env):
        net, node, _ = env
        call = RpcCall.create("eth_getBalance", ALICE.address)
        request, response = run(node, net, call)
        forged = PARPResponse.build(ALPHA, request, response.m_b,
                                    b"\x01" + response.result[1:],
                                    list(response.proof), FN)
        with pytest.raises(QueryFraud):
            verify_query_result(call, forged, headers(net))

    def test_missing_header_unverifiable(self, env):
        net, node, _ = env
        call = RpcCall.create("eth_getBalance", ALICE.address)
        _, response = run(node, net, call)
        with pytest.raises(Unverifiable):
            verify_query_result(call, response, lambda n: None)


class TestGetStorageAt:
    def test_contract_slot(self, env):
        net, node, _ = env
        from repro.contracts import DEPOSIT_MODULE_ADDRESS

        slot = b"\x00" * 32
        call = RpcCall.create("eth_getStorageAt", DEPOSIT_MODULE_ADDRESS, slot)
        _, response = run(node, net, call)
        verify_query_result(call, response, headers(net))

    def test_populated_slot_verifies(self, env):
        net, node, _ = env
        from repro.contracts import CHANNELS_MODULE_ADDRESS
        # CMM storage has data after channel tests? Not in this env — write one:
        net.chain.state.set_storage(CHANNELS_MODULE_ADDRESS, b"\x01" * 32, b"\x2a")
        net.advance_blocks(1)
        call = RpcCall.create("eth_getStorageAt", CHANNELS_MODULE_ADDRESS,
                              b"\x01" * 32)
        _, response = run(node, net, call)
        verify_query_result(call, response, headers(net))
        from repro.rlp import decode

        value, _account = decode(response.result)
        assert value == b"\x2a"


class TestTransactionQueries:
    def test_tx_by_index(self, env):
        net, node, tx = env
        location = net.chain.find_transaction(tx.hash)
        block, index = location
        call = RpcCall.create("eth_getTransactionByBlockNumberAndIndex",
                              block.number, index)
        _, response = run(node, net, call)
        verify_query_result(call, response, headers(net))

    def test_tx_by_index_unknown_block(self, env):
        net, node, _ = env
        call = RpcCall.create("eth_getTransactionByBlockNumberAndIndex", 999, 0)
        with pytest.raises(QueryError):
            execute_query(node, call, node.head_number())

    def test_receipt_query(self, env):
        net, node, tx = env
        call = RpcCall.create("eth_getTransactionReceipt", tx.hash)
        _, response = run(node, net, call)
        verify_query_result(call, response, headers(net))
        number, index, receipt = decode_inclusion(response.result)
        assert (number, index) == (1, 0)

    def test_receipt_swap_detected(self, env):
        """Serving tx A's receipt for tx B's hash must be fraud."""
        net, node, tx = env
        other = PrivateKey.from_seed("q:other-tx")
        call = RpcCall.create("eth_getTransactionReceipt", keccak256(b"wrong"))
        honest_call = RpcCall.create("eth_getTransactionReceipt", tx.hash)
        _, response = run(node, net, honest_call)
        with pytest.raises(QueryFraud):
            verify_query_result(call, response, headers(net))


class TestSendRawTransaction:
    def test_write_with_inclusion_proof(self, env):
        net, node, _ = env
        tx = UnsignedTransaction(nonce=1, gas_price=10 ** 9, gas_limit=21_000,
                                 to=BOB.address, value=7).sign(ALICE)
        call = RpcCall.create("eth_sendRawTransaction", tx.encode())
        request, response = run(node, net, call)
        verify_query_result(call, response, headers(net))
        number, index, tx_hash = decode_inclusion(response.result)
        assert tx_hash == tx.hash
        assert net.chain.find_transaction(tx.hash)[0].number == number

    def test_wrong_tx_in_proof_is_fraud(self, env):
        net, node, _ = env
        tx = UnsignedTransaction(nonce=2, gas_price=10 ** 9, gas_limit=21_000,
                                 to=BOB.address, value=8).sign(ALICE)
        call = RpcCall.create("eth_sendRawTransaction", tx.encode())
        request, response = run(node, net, call)
        # present the same response for a *different* submitted transaction
        other = UnsignedTransaction(nonce=3, gas_price=10 ** 9, gas_limit=21_000,
                                    to=BOB.address, value=9).sign(ALICE)
        other_call = RpcCall.create("eth_sendRawTransaction", other.encode())
        with pytest.raises(QueryFraud):
            verify_query_result(other_call, response, headers(net))


class TestUnverifiableQueries:
    def test_block_number(self, env):
        net, node, _ = env
        call = RpcCall.create("eth_blockNumber")
        _, response = run(node, net, call)
        assert decode_int_result(response.result) == node.head_number()
        verify_query_result(call, response, headers(net))  # no-op, no proof

    def test_chain_id(self, env):
        net, node, _ = env
        call = RpcCall.create("eth_chainId")
        _, response = run(node, net, call)
        assert decode_int_result(response.result) == 1337

    @pytest.mark.parametrize("junk", [b"\xc0", b"\xb8", b"\x82\x00\x01"],
                             ids=["list", "truncated", "leading-zero"])
    def test_undecodable_int_is_a_message_error(self, junk):
        """Every undecodable answer raises the one error type a session
        turns into INVALID."""
        with pytest.raises(MessageError):
            decode_int_result(junk)

    def test_catalog_classification(self):
        assert QUERY_CATALOG["eth_getBalance"].verifiable
        assert QUERY_CATALOG["eth_sendRawTransaction"].verifiable
        assert not QUERY_CATALOG["eth_blockNumber"].verifiable
        assert "method_that_does_not_exist" not in QUERY_CATALOG

    def test_unknown_method_raises(self, env):
        net, node, _ = env
        with pytest.raises(QueryError):
            execute_query(node, RpcCall.create("eth_noSuchThing"), 0)
