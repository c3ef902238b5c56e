"""Fraud Detection Module: Algorithm 2 branch coverage on-chain.

Builds raw request/response pairs directly (below the client/server layer)
so each FDM branch can be driven in isolation — including the paths the
normal client could never produce.
"""

from dataclasses import replace

import pytest

from repro.chain import GenesisConfig
from repro.contracts import (
    CHANNELS_MODULE_ADDRESS,
    DEPOSIT_MODULE_ADDRESS,
    FRAUD_MODULE_ADDRESS,
    TREASURY_ADDRESS,
)
from repro.crypto import PrivateKey
from repro.node import Devnet
from repro.parp.channel import ServerChannel
from repro.parp.constants import BATCH_PROTOCOL_VERSION, MIN_FULL_NODE_DEPOSIT
from repro.parp.fraudproof import FraudProofError, build_fraud_package
from repro.parp.messages import (
    BatchRequest,
    BatchResponse,
    PARPRequest,
    PARPResponse,
    ResponseStatus,
    RpcCall,
    handshake_digest,
)
from repro.parp.queries import execute_query
from repro.parp.server import FullNodeServer
from repro.parp.sharding import shard_key_of_call
from repro.node.fullnode import FullNode
from repro.trie.shard import ShardRange

FN = PrivateKey.from_seed("fdm:fn")
LC = PrivateKey.from_seed("fdm:lc")
WN = PrivateKey.from_seed("fdm:wn")
ALICE = PrivateKey.from_seed("fdm:alice")
TOKEN = 10 ** 18


@pytest.fixture
def env():
    net = Devnet(GenesisConfig(allocations={
        FN.address: 100 * TOKEN, LC.address: 10 * TOKEN,
        WN.address: 10 * TOKEN, ALICE.address: 2 * TOKEN,
    }))
    net.execute(FN, DEPOSIT_MODULE_ADDRESS, "deposit", value=MIN_FULL_NODE_DEPOSIT)
    expiry = net.chain.head.header.timestamp + 1_000
    sig = FN.sign(handshake_digest(LC.address, expiry)).to_bytes()
    result = net.execute(LC, CHANNELS_MODULE_ADDRESS, "open_channel",
                         [FN.address, expiry, sig], value=TOKEN)
    alpha = result.return_value
    net.advance_blocks(2)
    node = FullNode(net.chain, key=FN)
    return net, node, alpha


def balance_exchange(net, node, alpha, amount=10_000):
    """An honest request/response pair for eth_getBalance(alice)."""
    call = RpcCall.create("eth_getBalance", ALICE.address)
    h_b = net.chain.head.hash
    request = PARPRequest.build(alpha, h_b, amount, call, LC)
    m_b = node.head_number()
    result, proof = execute_query(node, call, m_b)
    response = PARPResponse.build(alpha, request, m_b, result, proof, FN)
    return request, response


def submit(net, request, response, alpha, proof_header=None, req_header=None,
           item=0, wire=None):
    chain = net.chain
    req_header = req_header or chain.get_block_by_hash(request.h_b).header
    proof_header = proof_header or chain.get_header(response.m_b)
    return net.execute(
        WN, FRAUD_MODULE_ADDRESS, "submit_fraud_proof",
        [request.noun.encode() if wire is None else wire,
         request.encode_wire(), response.encode_for_fraud(alpha), item,
         proof_header.encode(), req_header.encode(), WN.address],
    )


def overcharged(request, honest, alpha):
    """``honest`` acknowledging 5 wei more than the request signed."""
    return replace(honest, a=request.a + 5).signed(FN, alpha)


class TestHonestResponsesSafe:
    def test_honest_response_reverts(self, env):
        """Algorithm 2 must never slash an honest node."""
        net, node, alpha = env
        request, response = balance_exchange(net, node, alpha)
        result = submit(net, request, response, alpha)
        assert not result.succeeded
        assert "no fraud" in result.error
        assert net.call_view(DEPOSIT_MODULE_ADDRESS, "deposit_of",
                             [FN.address]) == MIN_FULL_NODE_DEPOSIT


def served_exchange(net, server, alpha, call, amount=10 ** 12):
    """What an unedited :class:`FullNodeServer` answers ``call`` with."""
    server.channels[alpha] = ServerChannel(
        alpha=alpha, light_client=LC.address, budget=TOKEN)
    request = PARPRequest.build(alpha, net.chain.head.hash, amount, call, LC)
    response = PARPResponse.decode_wire(
        server.serve_request(request.encode_wire()))
    return request, response


class TestSignedErrorsSafe:
    """A signed refusal (``status != OK``) proves nothing about the chain:
    the client calls it VALID / error-response and the FDM, running the same
    classifier, reverts — it used to walk the empty proof and slash."""

    def assert_reverts(self, net, request, response, alpha, req_header=None):
        assert response.status == ResponseStatus.ERROR and not response.proof
        result = submit(net, request, response, alpha, req_header=req_header)
        assert not result.succeeded
        assert "no fraud detected (error-response" in result.error
        assert net.call_view(DEPOSIT_MODULE_ADDRESS, "deposit_of",
                             [FN.address]) == MIN_FULL_NODE_DEPOSIT

    def test_unknown_receipt_hash(self, env):
        net, node, alpha = env
        call = RpcCall.create("eth_getTransactionReceipt", b"\x42" * 32)
        request, response = served_exchange(
            net, FullNodeServer(node), alpha, call)
        self.assert_reverts(net, request, response, alpha)

    def test_out_of_shard_key(self, env):
        net, node, alpha = env
        call = RpcCall.create("eth_getBalance", ALICE.address)
        elsewhere = next(half for half in (ShardRange.of(0, 2), ShardRange.of(1, 2))
                         if not half.covers(shard_key_of_call(call)))
        server = FullNodeServer(node, shard_range=elsewhere)
        request, response = served_exchange(net, server, alpha, call)
        assert server.stats.out_of_range_rejected == 1
        self.assert_reverts(net, request, response, alpha)

    def test_unknown_pinned_block(self, env, monkeypatch):
        """Whole-request ``status=ERROR``: the server does not know h_B."""
        net, node, alpha = env
        pinned = net.chain.head.header
        monkeypatch.setattr(node.chain, "get_block_by_hash", lambda h: None)
        request, response = served_exchange(
            net, FullNodeServer(node), alpha,
            RpcCall.create("eth_getBalance", ALICE.address))
        self.assert_reverts(net, request, response, alpha, req_header=pinned)

    def test_end_to_end_through_the_session(self, parp_env):
        """Session → package → witness, nothing edited: the refusal a real
        server signs for a real session's query is not slashable."""
        session = parp_env.session
        outcome = session.request("eth_getTransactionReceipt", b"\x42" * 32)
        assert outcome.report.is_error_response
        package = build_fraud_package(
            outcome.request, outcome.response, parp_env.alpha,
            session.headers.get_header, session.headers.chain.get_by_hash)
        with pytest.raises(FraudProofError):
            parp_env.witness.submit(package)
        assert parp_env.net.call_view(
            DEPOSIT_MODULE_ADDRESS, "deposit_of", [parp_env.keys.fn.address],
        ) == MIN_FULL_NODE_DEPOSIT


class TestFraudBranches:
    def test_payment_mismatch_slashes(self, env):
        net, node, alpha = env
        request, honest = balance_exchange(net, node, alpha)
        forged = overcharged(request, honest, alpha)
        result = submit(net, request, forged, alpha)
        assert result.succeeded
        assert net.call_view(DEPOSIT_MODULE_ADDRESS, "deposit_of",
                             [FN.address]) == 0

    def test_stale_height_slashes(self, env):
        net, node, alpha = env
        call = RpcCall.create("eth_getBalance", ALICE.address)
        pinned = net.chain.head  # request pins the current tip
        request = PARPRequest.build(alpha, pinned.hash, 10_000, call, LC)
        stale_height = pinned.number - 2
        result_bytes, proof = execute_query(node, call, stale_height)
        response = PARPResponse.build(alpha, request, stale_height,
                                      result_bytes, proof, FN)
        outcome = submit(net, request, response, alpha,
                         proof_header=net.chain.get_header(stale_height))
        assert outcome.succeeded

    def test_bad_proof_slashes(self, env):
        net, node, alpha = env
        request, honest = balance_exchange(net, node, alpha)
        bogus = PARPResponse.build(
            alpha, request, honest.m_b, honest.result,
            [node[::-1] for node in honest.proof], FN,
        )
        result = submit(net, request, bogus, alpha)
        assert result.succeeded

    def test_tampered_result_slashes(self, env):
        net, node, alpha = env
        request, honest = balance_exchange(net, node, alpha)
        from repro.chain import Account

        account = Account.decode(honest.result)
        lie = account.with_balance(account.balance * 7).encode()
        forged = PARPResponse.build(alpha, request, honest.m_b, lie,
                                    list(honest.proof), FN)
        result = submit(net, request, forged, alpha)
        assert result.succeeded

    def test_slash_distribution(self, env):
        net, node, alpha = env
        request, honest = balance_exchange(net, node, alpha)
        forged = overcharged(request, honest, alpha)
        lc_before = net.balance_of(LC.address)
        wn_before = net.balance_of(WN.address)
        tr_before = net.balance_of(TREASURY_ADDRESS)
        result = submit(net, request, forged, alpha)
        assert result.succeeded
        lc_gain = net.balance_of(LC.address) - lc_before
        tr_gain = net.balance_of(TREASURY_ADDRESS) - tr_before
        # witness paid gas, so compare against the raw 25% cut
        wn_gain_plus_gas = (net.balance_of(WN.address) - wn_before
                            + result.gas_used * 12 * 10 ** 9)
        assert lc_gain == MIN_FULL_NODE_DEPOSIT * 25 // 100
        assert wn_gain_plus_gas == MIN_FULL_NODE_DEPOSIT * 25 // 100
        assert tr_gain == MIN_FULL_NODE_DEPOSIT * 50 // 100


class TestRejectionBranches:
    """Submissions that must revert without slashing."""

    def deposit_intact(self, net):
        assert net.call_view(DEPOSIT_MODULE_ADDRESS, "deposit_of",
                             [FN.address]) == MIN_FULL_NODE_DEPOSIT

    def test_channel_id_mismatch(self, env):
        net, node, alpha = env
        request, response = balance_exchange(net, node, alpha)
        result = submit(net, request, response, b"\x00" * 16)
        assert not result.succeeded
        assert "channel id mismatch" in result.error
        self.deposit_intact(net)

    def test_unknown_channel(self, env):
        net, node, alpha = env
        fake_alpha = b"\x42" * 16
        call = RpcCall.create("eth_getBalance", ALICE.address)
        request = PARPRequest.build(fake_alpha, net.chain.head.hash, 1, call, LC)
        m_b = node.head_number()
        result_bytes, proof = execute_query(node, call, m_b)
        response = PARPResponse.build(fake_alpha, request, m_b, result_bytes,
                                      proof, FN)
        result = submit(net, request, response, fake_alpha)
        assert not result.succeeded
        self.deposit_intact(net)

    def test_request_not_signed_by_channel_lc(self, env):
        net, node, alpha = env
        imposter = PrivateKey.from_seed("fdm:imposter")
        call = RpcCall.create("eth_getBalance", ALICE.address)
        request = PARPRequest.build(alpha, net.chain.head.hash, 1, call, imposter)
        m_b = node.head_number()
        result_bytes, proof = execute_query(node, call, m_b)
        response = PARPResponse.build(alpha, request, m_b, result_bytes, proof, FN)
        result = submit(net, request, response, alpha)
        assert not result.succeeded
        self.deposit_intact(net)

    def test_response_not_signed_by_channel_fn(self, env):
        net, node, alpha = env
        rogue = PrivateKey.from_seed("fdm:rogue")
        request, _ = balance_exchange(net, node, alpha)
        call = request.call
        result_bytes, proof = execute_query(node, call, node.head_number())
        response = PARPResponse.build(alpha, request, node.head_number(),
                                      result_bytes, proof, rogue)
        result = submit(net, request, response, alpha)
        assert not result.succeeded
        self.deposit_intact(net)

    def test_wrong_height_reference_header(self, env):
        net, node, alpha = env
        request, response = balance_exchange(net, node, alpha)
        wrong_header = net.chain.get_header(0)  # hash won't match req.h_b
        result = submit(net, request, response, alpha, req_header=wrong_header)
        assert not result.succeeded
        self.deposit_intact(net)

    def test_non_canonical_proof_header(self, env):
        net, node, alpha = env
        request, honest = balance_exchange(net, node, alpha)
        # bogus proof forces the Merkle branch; forged header must be caught
        bogus = PARPResponse.build(alpha, request, honest.m_b, honest.result,
                                   [b"\xbb" * 40], FN)
        forged_header = replace(net.chain.get_header(bogus.m_b),
                                extra_data=b"not-canonical")
        result = submit(net, request, bogus, alpha, proof_header=forged_header)
        assert not result.succeeded
        self.deposit_intact(net)

    def test_undecodable_evidence(self, env):
        net, node, alpha = env
        result = net.execute(
            WN, FRAUD_MODULE_ADDRESS, "submit_fraud_proof",
            [b"request", b"garbage", b"more garbage", 0, b"h", b"h",
             WN.address],
        )
        assert not result.succeeded
        assert "undecodable fraud evidence" in result.error

    def test_closed_channel_not_adjudicable(self, env):
        net, node, alpha = env
        request, honest = balance_exchange(net, node, alpha)
        # close + settle the channel
        from repro.parp.constants import DISPUTE_WINDOW_BLOCKS

        net.execute(LC, CHANNELS_MODULE_ADDRESS, "close_channel", [alpha, 0, b""])
        net.advance_blocks(DISPUTE_WINDOW_BLOCKS + 1)
        net.execute(LC, CHANNELS_MODULE_ADDRESS, "confirm_closure", [alpha])
        forged = overcharged(request, honest, alpha)
        # header windows: request grew stale; use fresh pair anyway
        result = submit(net, request, forged, alpha)
        assert not result.succeeded
        self.deposit_intact(net)


def batch_exchange(net, node, alpha, amount=10 ** 12):
    """What an unedited server answers a two-call balance batch with."""
    server = FullNodeServer(node)
    server.channels[alpha] = ServerChannel(
        alpha=alpha, light_client=LC.address, budget=TOKEN)
    calls = [RpcCall.create("eth_getBalance", key.address)
             for key in (ALICE, WN)]
    request = BatchRequest.build(alpha, net.chain.head.hash, amount, calls,
                                 LC, version=BATCH_PROTOCOL_VERSION)
    response = BatchResponse.decode_wire(
        server.serve_batch(request.encode_wire()))
    return request, response


class TestHostileCalldata:
    """Calldata is the witness's to choose: every malformed shape reverts
    with a message naming the problem — never an uncaught ``IndexError`` or
    ``KeyError`` — and evidence of real fraud slashes nothing when it comes
    in the wrong shape."""

    def rejected(self, net, result, reason):
        assert not result.succeeded
        assert reason in result.error, result.error
        assert net.call_view(DEPOSIT_MODULE_ADDRESS, "deposit_of",
                             [FN.address]) == MIN_FULL_NODE_DEPOSIT

    @pytest.mark.parametrize("exchange", [balance_exchange, batch_exchange])
    def test_item_index_past_the_last_call(self, env, exchange):
        net, node, alpha = env
        request, honest = exchange(net, node, alpha)
        forged = overcharged(request, honest, alpha)
        calls = len(request.calls)
        self.rejected(net, submit(net, request, forged, alpha, item=calls),
                      f"item {calls} out of range for a {request.noun} of "
                      f"{calls} call(s)")
        assert submit(net, request, forged, alpha, item=calls - 1).succeeded

    def test_wire_field_naming_no_request_type(self, env):
        net, node, alpha = env
        request, honest = balance_exchange(net, node, alpha)
        forged = overcharged(request, honest, alpha)
        self.rejected(net, submit(net, request, forged, alpha,
                                  wire=b"bundle"),
                      "wire b'bundle' names no request type")

    @pytest.mark.parametrize("exchange,wire", [(batch_exchange, b"request"),
                                               (balance_exchange, b"batch")])
    def test_blobs_of_the_other_wire(self, env, exchange, wire):
        """The wire field picks the decoder; the blobs are never sniffed."""
        net, node, alpha = env
        request, honest = exchange(net, node, alpha)
        forged = overcharged(request, honest, alpha)
        self.rejected(net, submit(net, request, forged, alpha, wire=wire),
                      "undecodable fraud evidence")

    def test_arity_and_argument_types(self, env):
        net, node, alpha = env
        request, honest = balance_exchange(net, node, alpha)
        args = [b"request", request.encode_wire(),
                overcharged(request, honest, alpha).encode_for_fraud(alpha),
                0, net.chain.get_header(honest.m_b).encode(),
                net.chain.get_block_by_hash(request.h_b).header.encode(),
                WN.address]
        for bad, reason in ((args[:3] + args[4:], "fraud proof takes"),
                            ([*args[:3], [b"0"], *args[4:]],
                             "malformed fraud proof calldata"),
                            ([[b"request"], *args[1:]],
                             "malformed fraud proof calldata")):
            self.rejected(net, net.execute(WN, FRAUD_MODULE_ADDRESS,
                                           "submit_fraud_proof", bad), reason)
        assert net.execute(WN, FRAUD_MODULE_ADDRESS, "submit_fraud_proof",
                           args).succeeded
