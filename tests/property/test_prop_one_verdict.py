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

Each row runs on the batch wire too, as two calls: the method's beside an
honest balance read, with the lie in either slot.  A package names one item,
and the FDM judges that item: it slashes for exactly the items the client's
verdict convicts (all of them when the envelope lies), so naming the honest
neighbour of a lying item reverts; and a package replayed against another
batch on the same channel reverts.
"""

from dataclasses import replace

import pytest

from repro.chain import GenesisConfig, UnsignedTransaction
from repro.contracts import (
    CHANNELS_MODULE_ADDRESS,
    DEPOSIT_MODULE_ADDRESS,
    FRAUD_MODULE_ADDRESS,
)
from repro.crypto import PrivateKey
from repro.node import Devnet, FullNode
from repro.parp.adversary import ATTACKS, forge
from repro.parp.channel import ServerChannel
from repro.parp.constants import BATCH_PROTOCOL_VERSION, MIN_FULL_NODE_DEPOSIT
from repro.parp.fraudproof import build_fraud_package
from repro.parp.messages import (
    BatchRequest,
    PARPRequest,
    ResponseStatus,
    RpcCall,
    handshake_digest,
)
from repro.parp.queries import QUERY_CATALOG
from repro.parp.server import FullNodeServer
from repro.parp.states import ResponseClass
from repro.parp.verification import classify_batch_response, classify_response

FN = PrivateKey.from_seed("verdict:fn")
LC = PrivateKey.from_seed("verdict:lc")
WN = PrivateKey.from_seed("verdict:wn")
ALICE = PrivateKey.from_seed("verdict:alice")
BOB = PrivateKey.from_seed("verdict:bob")
TOKEN = 10 ** 18

#: the methods whose answers carry a Merkle proof the FDM can walk
METHODS = sorted(
    method for method, spec in QUERY_CATALOG.items() if spec.verifiable)
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


def answer(behaviour: str, node, alpha, request, pinned, monkeypatch,
           target=0):
    """What a server behaving as ``behaviour`` puts on the wire of
    ``request``: the honest server's answer, forged by the adversary's
    edit of item ``target`` for an attack."""
    server = FullNodeServer(node)
    server.channels[alpha] = ServerChannel(
        alpha=alpha, light_client=LC.address, budget=TOKEN)
    with monkeypatch.context() as patch:
        if behaviour == "signed_error":
            # the refusal every method shares: the server (this one call
            # long) does not know the block the request pins
            patch.setattr(node.chain, "get_block_by_hash", lambda h: None)
        serve = getattr(server, request.endpoint)
        honest = request.response_type.decode_wire(
            serve(request.encode_wire()))
    if behaviour not in ATTACKS:
        return honest
    return forge(behaviour, honest, alpha, FN, pinned, target)


def deposit(net) -> int:
    return net.call_view(DEPOSIT_MODULE_ADDRESS, "deposit_of", [FN.address])


def submit(net, package):
    return net.execute(WN, FRAUD_MODULE_ADDRESS, "submit_fraud_proof",
                       package.fdm_args(WN.address))


def assert_fdm_agrees(net, package, report, context):
    """Client FRAUD ⇔ slash naming the same check; otherwise a revert naming
    it and the deposit intact.  Restakes after a slash."""
    result = submit(net, package)
    assert result.succeeded == report.fraudulent, (
        context, report, result.error)
    if report.fraudulent:
        assert deposit(net) == 0
        (confirmed,) = [log for log in result.receipt.logs
                        if log.address == FRAUD_MODULE_ADDRESS]
        assert confirmed.data.startswith(report.check.encode())
        net.execute(FN, DEPOSIT_MODULE_ADDRESS, "deposit",
                    value=MIN_FULL_NODE_DEPOSIT)  # stake again
    else:
        assert f"no fraud detected ({report.check}:" in result.error, (
            context, report, result.error)
    assert deposit(net) == MIN_FULL_NODE_DEPOSIT


@pytest.mark.parametrize("method", METHODS)
def test_the_fdm_does_what_the_client_says(method, world, monkeypatch):
    net, node, alpha, mined = world
    chain = net.chain
    for round_, behaviour in enumerate(BEHAVIOURS, start=1):
        pinned = chain.head
        request = PARPRequest.build(alpha, pinned.hash, round_ * 10 ** 12,
                                    call_for(method, net, mined), LC)
        response = answer(behaviour, node, alpha, request, pinned.number,
                          monkeypatch)
        if behaviour == "signed_error":
            assert response.status == ResponseStatus.ERROR

        report = classify_response(request, response, alpha, FN.address,
                                   pinned.number, chain.get_header)
        assert report.classification is EXPECTED[behaviour], (
            behaviour, report)

        package = build_fraud_package(
            request, response, alpha, chain.get_header, header_by_hash(chain))
        assert_fdm_agrees(net, package, report, behaviour)


def header_by_hash(chain):
    return lambda block_hash: chain.get_block_by_hash(block_hash).header


@pytest.mark.parametrize("slot", [0, 1])
@pytest.mark.parametrize("method", METHODS)
def test_the_fdm_does_what_the_client_says_of_a_batch(method, slot, world,
                                                      monkeypatch):
    net, node, alpha, mined = world
    chain = net.chain
    for round_, behaviour in enumerate(BEHAVIOURS, start=1):
        pinned = chain.head
        calls = [call_for(method, net, mined),
                 RpcCall.create("eth_getBalance", BOB.address)]
        if slot:
            calls.reverse()
        request, other = (
            BatchRequest.build(alpha, pinned.hash, round_ * 10 ** 12 + extra,
                               calls, LC, version=BATCH_PROTOCOL_VERSION)
            for extra in (0, 1))
        response = answer(behaviour, node, alpha, request, pinned.number,
                          monkeypatch, target=slot)

        overall, items = classify_batch_response(
            request, response, alpha, FN.address, pinned.number,
            chain.get_header)
        expected = EXPECTED[behaviour]
        if behaviour == "inflate_balance" and not QUERY_CATALOG[
                method].batchable:
            expected = ResponseClass.VALID  # the lie edits a signed refusal
        assert overall.classification is expected, (behaviour, overall)

        for index in range(len(calls)):
            # an envelope verdict (no item reports) is every item's
            report = items[index] if items else overall
            package = build_fraud_package(
                request, response, alpha, chain.get_header,
                header_by_hash(chain), item=index)
            assert_fdm_agrees(net, package, report, (behaviour, index))
            if report.fraudulent:
                result = submit(net, replace(package, request=other))
                assert "no fraud detected (request-hash:" in result.error
                assert deposit(net) == MIN_FULL_NODE_DEPOSIT
