"""One verdict: what the light client's §V-D classifier says of a response is
what the on-chain Fraud Detection Module does with it.

For every way a server in this repo can answer — honestly, with a signed
refusal, with each forgery of :data:`repro.parp.adversary.ATTACKS` — and
every verifiable method, the same request/response pair goes to
:func:`classify_response` (the client) and, packaged by
:func:`build_fraud_package`, to ``FraudModule.submit_fraud_proof`` in a mined
transaction:

* client says FRAUD  ⇔  the FDM slashes, and names the same check;
* client says VALID or INVALID  ⇒  the FDM reverts naming the same check,
  and the deposit is intact.

The second line is "no honest server is slashed by a package the FDM
accepts" in miniature: the honest and signed-error rows are answers an
unedited :class:`FullNodeServer` gives.
"""

import pytest

from repro.chain import GenesisConfig, UnsignedTransaction
from repro.contracts import (
    CHANNELS_MODULE_ADDRESS,
    DEPOSIT_MODULE_ADDRESS,
    FRAUD_MODULE_ADDRESS,
)
from repro.crypto import PrivateKey
from repro.node import Devnet, FullNode
from repro.parp.adversary import ATTACKS, MaliciousFullNodeServer
from repro.parp.channel import ServerChannel
from repro.parp.constants import MIN_FULL_NODE_DEPOSIT
from repro.parp.fraudproof import build_fraud_package
from repro.parp.messages import (
    PARPRequest,
    PARPResponse,
    ResponseStatus,
    RpcCall,
    handshake_digest,
)
from repro.parp.queries import QUERY_CATALOG
from repro.parp.server import FullNodeServer
from repro.parp.states import ResponseClass
from repro.parp.verification import classify_response

FN = PrivateKey.from_seed("verdict:fn")
LC = PrivateKey.from_seed("verdict:lc")
WN = PrivateKey.from_seed("verdict:wn")
ALICE = PrivateKey.from_seed("verdict:alice")
BOB = PrivateKey.from_seed("verdict:bob")
TOKEN = 10 ** 18

#: the methods whose answers carry a Merkle proof the FDM can walk
METHODS = sorted(
    method for method, spec in QUERY_CATALOG.items()
    if spec.verifiable and method != "parp_updatesByRange")
BEHAVIOURS = ("honest", "signed_error", *ATTACKS)
#: what §IV-F says each behaviour is (the adversary module's table)
EXPECTED = {
    "honest": ResponseClass.VALID,
    "signed_error": ResponseClass.VALID,
    "inflate_balance": ResponseClass.FRAUD,
    "bogus_proof": ResponseClass.FRAUD,
    "overcharge": ResponseClass.FRAUD,
    "stale_height": ResponseClass.FRAUD,
    "wrong_signature": ResponseClass.INVALID,
    "wrong_request_hash": ResponseClass.INVALID,
    "wrong_channel": ResponseClass.INVALID,
}


def transfer(net) -> bytes:
    """Alice's next transfer to Bob, signed and encoded."""
    return UnsignedTransaction(
        nonce=net.chain.state.nonce_of(ALICE.address), gas_price=10 ** 9,
        gas_limit=21_000, to=BOB.address, value=5,
    ).sign(ALICE).encode()


@pytest.fixture
def world():
    """A staked full node, a channel open on chain, one mined transfer."""
    net = Devnet(GenesisConfig(allocations={
        # the full node stakes once per slash below
        key.address: 1_000 * TOKEN for key in (FN, LC, WN, ALICE, BOB)}))
    net.execute(FN, DEPOSIT_MODULE_ADDRESS, "deposit",
                value=MIN_FULL_NODE_DEPOSIT)
    expiry = net.chain.head.header.timestamp + 10_000
    consent = FN.sign(handshake_digest(LC.address, expiry)).to_bytes()
    alpha = net.execute(LC, CHANNELS_MODULE_ADDRESS, "open_channel",
                        [FN.address, expiry, consent],
                        value=TOKEN).return_value
    net.send_transaction(ALICE, BOB.address, value=7)
    mined = net.mine()
    net.advance_blocks(2)
    return net, FullNode(net.chain, key=FN), alpha, mined


def call_for(method: str, net, mined) -> RpcCall:
    return RpcCall.create(method, *{
        "eth_getBalance": (ALICE.address,),
        # the channels module holds the open channel in its storage
        "eth_getStorageAt": (CHANNELS_MODULE_ADDRESS, bytes(32)),
        "eth_getTransactionByBlockNumberAndIndex": (mined.number, 0),
        "eth_getTransactionReceipt": (mined.transactions[0].hash,),
        "eth_sendRawTransaction": (transfer(net),),
    }[method])


def answer(behaviour: str, node, alpha, request: PARPRequest,
           monkeypatch) -> PARPResponse:
    """What a server behaving as ``behaviour`` puts on the wire."""
    server = (FullNodeServer(node) if behaviour in ("honest", "signed_error")
              else MaliciousFullNodeServer(node, attack=behaviour))
    server.channels[alpha] = ServerChannel(
        alpha=alpha, light_client=LC.address, budget=TOKEN)
    with monkeypatch.context() as patch:
        if behaviour == "signed_error":
            # the refusal every method shares: the server (this one call
            # long) does not know the block the request pins
            patch.setattr(node.chain, "get_block_by_hash", lambda h: None)
        return PARPResponse.decode_wire(
            server.serve_request(request.encode_wire()))


def deposit(net) -> int:
    return net.call_view(DEPOSIT_MODULE_ADDRESS, "deposit_of", [FN.address])


@pytest.mark.parametrize("method", METHODS)
def test_the_fdm_does_what_the_client_says(method, world, monkeypatch):
    net, node, alpha, mined = world
    chain = net.chain
    for round_, behaviour in enumerate(BEHAVIOURS, start=1):
        pinned = chain.head
        request = PARPRequest.build(alpha, pinned.hash, round_ * 10 ** 12,
                                    call_for(method, net, mined), LC)
        response = answer(behaviour, node, alpha, request, monkeypatch)
        if behaviour == "signed_error":
            assert response.status == ResponseStatus.ERROR

        report = classify_response(request, response, alpha, FN.address,
                                   pinned.number, chain.get_header)
        assert report.classification is EXPECTED[behaviour], (
            behaviour, report)

        package = build_fraud_package(
            request, response, alpha, chain.get_header,
            lambda block_hash: chain.get_block_by_hash(block_hash).header)
        result = net.execute(WN, FRAUD_MODULE_ADDRESS, "submit_fraud_proof",
                             package.fdm_args(WN.address))

        assert result.succeeded == report.fraudulent, (
            behaviour, report, result.error)
        if report.fraudulent:
            assert deposit(net) == 0
            (confirmed,) = [log for log in result.receipt.logs
                            if log.address == FRAUD_MODULE_ADDRESS]
            assert confirmed.data.startswith(report.check.encode())
            net.execute(FN, DEPOSIT_MODULE_ADDRESS, "deposit",
                        value=MIN_FULL_NODE_DEPOSIT)  # stake again
        else:
            assert f"no fraud detected ({report.check}:" in result.error, (
                behaviour, report, result.error)
        assert deposit(net) == MIN_FULL_NODE_DEPOSIT
