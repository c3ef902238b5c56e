"""The plain JSON-RPC baseline of Table II and Fig. 7: codec, the one
served method, and the error objects outside input gets."""

import json

import pytest

from benchmarks.jsonrpc import (
    JsonRpcError,
    RpcClient,
    RpcRequest,
    RpcServer,
    decode_request,
    encode_request,
    from_hex_data,
    from_quantity,
    to_quantity,
)
from repro.chain import GenesisConfig, UnsignedTransaction
from repro.crypto import PrivateKey
from repro.node import Devnet, FullNode

ALICE = PrivateKey.from_seed("rpc:alice")
BOB = PrivateKey.from_seed("rpc:bob")
TOKEN = 10 ** 18


@pytest.fixture
def rpc():
    net = Devnet(GenesisConfig(allocations={ALICE.address: 10 * TOKEN}))
    node = FullNode(net.chain, name="rpc-node")
    server = RpcServer(node)
    client = RpcClient(server.handle_raw)
    return net, node, server, client


class TestCodec:
    def test_request_roundtrip(self):
        request = RpcRequest("eth_getBalance", ("0xabc", "latest"), id=7)
        assert decode_request(encode_request(request)) == request

    def test_parse_error(self):
        with pytest.raises(JsonRpcError):
            decode_request(b"{not json")

    def test_missing_version_rejected(self):
        with pytest.raises(JsonRpcError):
            decode_request(json.dumps({"method": "m", "id": 1}).encode())

    def test_quantity_encoding(self):
        assert to_quantity(0) == "0x0"
        assert to_quantity(255) == "0xff"
        assert from_quantity("0xff") == 255
        with pytest.raises(JsonRpcError):
            from_quantity("255")

    def test_hex_data_encoding(self):
        assert from_hex_data("0x0102") == b"\x01\x02"
        with pytest.raises(JsonRpcError):
            from_hex_data("0102")

    def test_error_response_raises(self):
        client = RpcClient(lambda raw: (
            b'{"jsonrpc":"2.0","id":1,"error":{"code":-32601,"message":"nope"}}'
        ))
        with pytest.raises(JsonRpcError) as excinfo:
            client.call("eth_getBalance")
        assert excinfo.value.code == -32601

    def test_negative_quantity_refused(self):
        with pytest.raises(ValueError):
            to_quantity(-1)

    def test_malformed_hex_digits_are_bad_params(self):
        for decode in (from_quantity, from_hex_data):
            with pytest.raises(JsonRpcError) as excinfo:
                decode("0xzz")
            assert excinfo.value.code == -32602

    def test_mismatched_response_id_is_an_internal_error(self):
        client = RpcClient(lambda raw: b'{"jsonrpc":"2.0","id":99,"result":"0x0"}')
        with pytest.raises(JsonRpcError) as excinfo:
            client.call("eth_getBalance", ALICE.address.hex())
        assert excinfo.value.code == -32603


class TestApi:
    def test_get_balance(self, rpc):
        _, _, _, client = rpc
        hex_balance = client.call("eth_getBalance", ALICE.address.hex(), "latest")
        assert from_quantity(hex_balance) == 10 * TOKEN

    def test_balance_at_historical_tag(self, rpc):
        net, node, _, client = rpc
        tx = UnsignedTransaction(nonce=0, gas_price=10 ** 9, gas_limit=21_000,
                                 to=BOB.address, value=500).sign(ALICE)
        node.submit_transaction(tx.encode())
        net.mine()
        latest = from_quantity(client.call("eth_getBalance",
                                           BOB.address.hex(), "latest"))
        genesis = from_quantity(client.call("eth_getBalance",
                                            BOB.address.hex(), "0x0"))
        earliest = from_quantity(client.call("eth_getBalance",
                                             BOB.address.hex(), "earliest"))
        assert latest == 500 and genesis == earliest == 0

    def test_unknown_method(self, rpc):
        _, _, _, client = rpc
        with pytest.raises(JsonRpcError) as excinfo:
            client.call("eth_fooBar")
        assert excinfo.value.code == -32601

    def test_invalid_params(self, rpc):
        _, _, _, client = rpc
        with pytest.raises(JsonRpcError) as excinfo:
            client.call("eth_getBalance", "0x1234")  # bad address length
        assert excinfo.value.code == -32602
        with pytest.raises(JsonRpcError) as excinfo:
            client.call("eth_getBalance")            # missing address
        assert excinfo.value.code == -32602

    def test_unknown_block_is_a_server_error(self, rpc):
        _, _, _, client = rpc
        with pytest.raises(JsonRpcError) as excinfo:
            client.call("eth_getBalance", ALICE.address.hex(), "0x63")
        assert excinfo.value.code == -32000

    def test_safe_and_finalized_tags_read_the_head(self, rpc):
        net, node, _, client = rpc
        tx = UnsignedTransaction(nonce=0, gas_price=10 ** 9, gas_limit=21_000,
                                 to=BOB.address, value=7).sign(ALICE)
        node.submit_transaction(tx.encode())
        net.mine()
        for tag in ("latest", "safe", "finalized"):
            assert from_quantity(client.call("eth_getBalance",
                                             BOB.address.hex(), tag)) == 7

    def test_unrecognised_tag_is_bad_params(self, rpc):
        _, _, _, client = rpc
        with pytest.raises(JsonRpcError) as excinfo:
            client.call("eth_getBalance", ALICE.address.hex(), "pending")
        assert excinfo.value.code == -32602


class TestServerShell:
    def test_parse_error_response(self, rpc):
        _, _, server, _ = rpc
        out = json.loads(server.handle_raw(b"garbage"))
        assert out["error"]["code"] == -32700 and out["id"] is None

    def test_invalid_request_response(self, rpc):
        """A non-object (a batch array included) is an invalid request."""
        _, _, server, _ = rpc
        for raw in (b"[]", b"7", b'{"jsonrpc":"2.0","id":3,"method":5}'):
            out = json.loads(server.handle_raw(raw))
            assert out["error"]["code"] == -32600, raw

    def test_params_must_be_an_array(self, rpc):
        _, _, server, _ = rpc
        raw = json.dumps({"jsonrpc": "2.0", "id": 4, "method": "eth_getBalance",
                          "params": {"address": ALICE.address.hex()}}).encode()
        out = json.loads(server.handle_raw(raw))
        assert out["error"]["code"] == -32600

    def test_response_echoes_the_request_id(self, rpc):
        _, _, server, _ = rpc
        for request_id in ("abc", 41):
            raw = encode_request(RpcRequest(
                "eth_getBalance", (ALICE.address.hex(), "latest"), id=request_id))
            out = json.loads(server.handle_raw(raw))
            assert out["id"] == request_id
            assert from_quantity(out["result"]) == 10 * TOKEN

    def test_paper_baseline_sizes(self, rpc):
        """§VI-C quotes ~118 B for a balance request; ours must be close."""
        _, _, _, client = rpc
        size = client.request_size("eth_getBalance", ALICE.address.hex(), "latest")
        assert 100 <= size <= 140

    def test_raw_transaction_request_size_is_hex_plus_a_fixed_envelope(self, rpc):
        """Table II sizes a raw-transaction submission: each transaction
        byte costs two hex characters on the wire, the envelope is fixed."""
        _, _, _, client = rpc

        def size_of(data):
            raw = UnsignedTransaction(nonce=0, gas_price=10 ** 9,
                                      gas_limit=60_000, to=BOB.address,
                                      value=1, data=data).sign(ALICE).encode()
            return len(raw), client.request_size("eth_sendRawTransaction",
                                                 "0x" + raw.hex())

        short_len, short_size = size_of(b"")
        long_len, long_size = size_of(b"\xab" * 100)
        assert long_size - short_size == 2 * (long_len - short_len)
        assert short_size > 2 * short_len
