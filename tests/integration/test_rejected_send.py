"""A paid send the chain rejects comes back as a signed refusal.

The probe: a light client pays for an ``eth_sendRawTransaction`` whose
transfer carries nonce 99.  Step B banks the fee; the chain then refuses
the transaction for its nonce gap.  Were that ``ChainError`` to escape the
call, the client would see an unsigned transport failure and ack nothing
while the server kept the payment.  It is a signed error instead: the
client classifies the response, acks what the server banked, and the next
request on the channel is served.

The related escape: a raw transaction with a leading-zero integer field is
refused by ``Transaction.decode`` as a ``TransactionError``, so each entry
point that decodes one raises its own typed error — ``ServeError`` from the
free relay and from ``open_channel``, ``ChainError`` from
``FullNode.submit_transaction`` — and the paid send is a signed refusal.
"""

import pytest

from repro.chain import ChainError, TransactionError, UnsignedTransaction
from repro.chain.transaction import Transaction
from repro.contracts.addresses import CHANNELS_MODULE_ADDRESS
from repro.parp import RpcCall
from repro.parp.messages import ResponseStatus
from repro.parp.server import ServeError
from repro.parp.states import ResponseClass
from repro.rlp import codec as rlp


def transfer(env, nonce, to=None):
    return UnsignedTransaction(
        nonce=nonce, gas_price=1, gas_limit=21_000,
        to=to or env.keys.bob.address, value=1,
    ).sign(env.keys.alice)


def with_leading_zero(tx):
    """``tx``'s encoding with its nonce written as ``00 05``."""
    items = rlp.decode(tx.encode())
    items[0] = b"\x00\x05"
    return rlp.encode(items)


def paid_send(env, raw):
    """One paid send: its outcome, and the fee the server banked for it."""
    channel = env.server.channels[env.alpha]
    banked, fees = channel.latest_amount, env.server.stats.fees_earned
    outcome = env.session.request("eth_sendRawTransaction", raw)
    assert channel.latest_amount - banked == env.server.stats.fees_earned - fees
    return outcome, channel.latest_amount - banked


def assert_signed_refusal(env, outcome, banked, reason):
    assert outcome.response.status == ResponseStatus.ERROR
    assert reason in outcome.response.result.decode("utf-8", "replace")
    assert outcome.response.signer(env.alpha) == env.server.address
    assert outcome.report.classification is ResponseClass.VALID
    assert outcome.report.is_error_response
    assert banked > 0
    assert env.session.channel.acked == env.server.channels[env.alpha].latest_amount
    assert env.session.channel.spent == env.session.channel.acked


def test_a_send_the_chain_rejects_is_a_signed_refusal(parp_env):
    env = parp_env
    mempool = list(env.node.chain.mempool)
    outcome, banked = paid_send(env, transfer(env, nonce=99).encode())
    assert_signed_refusal(env, outcome, banked, "nonce gap")
    assert env.node.chain.mempool == mempool

    # the channel is intact: the next paid call is served and acked
    call = RpcCall.create("eth_getBalance", env.keys.bob.address)
    served = env.session.request_call(call)
    assert served.report.classification is ResponseClass.VALID
    assert env.session.channel.acked == env.server.channels[env.alpha].latest_amount


def test_a_non_canonical_integer_is_a_transaction_error(parp_env):
    env = parp_env
    raw = with_leading_zero(transfer(env, nonce=5))
    with pytest.raises(TransactionError, match="leading zero"):
        Transaction.decode(raw)
    with pytest.raises(ChainError, match="leading zero"):
        env.node.submit_transaction(raw)
    with pytest.raises(ServeError, match="leading zero"):
        env.server.relay_transaction(raw)
    opener = with_leading_zero(transfer(env, 5, to=CHANNELS_MODULE_ADDRESS))
    with pytest.raises(ServeError, match="leading zero"):
        env.server.open_channel(opener)

    outcome, banked = paid_send(env, raw)
    assert_signed_refusal(env, outcome, banked, "leading zero")


@pytest.mark.parametrize("raw", [
    rlp.encode([b""] * 8),
    rlp.encode([b"", b"", b"", [b"\x01"] * 20, b"", b"", b"", b"", b""]),
    rlp.encode([b"", b"", b"", b"\x01" * 20, b"", [], b"", b"", b""]),
    b"\xc3\x80",
], ids=["eight-items", "nested-to", "nested-data", "truncated"])
def test_a_malformed_raw_transaction_is_a_transaction_error(raw):
    with pytest.raises(TransactionError):
        Transaction.decode(raw)
