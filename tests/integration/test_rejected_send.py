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

A typed wrapper (``send_raw_transaction``, ``get_balance``, …) that gets a
signed refusal raises ``RequestRefused`` with the server's reason — never
``QueryFraud``, which only check 6 raises, for a proven lie.
"""

import pytest

from repro.chain import ChainError, TransactionError, UnsignedTransaction
from repro.chain.transaction import Transaction
from repro.contracts.addresses import CHANNELS_MODULE_ADDRESS
from repro.parp import RequestRefused, RpcCall, SessionError
from repro.parp.client import served_result
from repro.parp.messages import ResponseStatus
from repro.parp.sharding import shard_key_of_call
from repro.parp.server import ServeError
from repro.parp.states import ResponseClass
from repro.rlp import codec as rlp
from repro.trie.shard import ShardRange

from ..conftest import get_balances, make_parp_env


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


def test_a_typed_send_the_chain_rejects_raises_request_refused(parp_env):
    env = parp_env
    channel = env.server.channels[env.alpha]
    banked = channel.latest_amount
    with pytest.raises(RequestRefused, match="nonce gap") as refused:
        env.session.send_raw_transaction(transfer(env, nonce=99).encode())
    assert isinstance(refused.value, SessionError)
    assert "nonce gap" in refused.value.reason
    assert channel.latest_amount > banked
    assert env.session.channel.acked == channel.latest_amount

    # the channel is intact: the next typed call is served and acked
    assert env.session.get_balance(env.keys.bob.address) > 0
    assert env.session.channel.acked == channel.latest_amount


def test_a_typed_read_outside_the_shard_raises_request_refused(devnet, keys):
    bob = keys.bob.address
    key = shard_key_of_call(RpcCall.create("eth_getBalance", bob))
    elsewhere = next(half for half in (ShardRange.of(0, 2), ShardRange.of(1, 2))
                     if not half.covers(key))
    env = make_parp_env(devnet, keys, shard_range=elsewhere)
    for read in (lambda: env.session.get_balance(bob),
                 lambda: get_balances(env.session, [bob])):
        with pytest.raises(RequestRefused, match="outside this server's shard"):
            read()
        assert env.session.channel.acked == (
            env.server.channels[env.alpha].latest_amount)
    assert env.server.stats.out_of_range_rejected == 2


def read(session, method, *params):
    """A typed read with no wrapper of its own: a signed refusal raises."""
    response = session.request(method, *params).response
    return served_result(response.status, response.result)


@pytest.mark.parametrize("call, reason", [
    (lambda s: read(s, "eth_getTransactionByBlockNumberAndIndex", 999, 0),
     "no block at height 999"),
    (lambda s: read(s, "eth_getTransactionByBlockNumberAndIndex", 1, 7),
     "block 1 has no transaction 7"),
    (lambda s: s.get_transaction_receipt(b"\x00" * 32), "unknown transaction"),
    (lambda s: s.send_raw_transaction(b"\x01\x02"), "undecodable transaction"),
], ids=["tx-no-block", "tx-no-index", "receipt-unknown", "send-undecodable"])
def test_every_typed_wrapper_raises_request_refused(parp_env, call, reason):
    env = parp_env
    channel = env.server.channels[env.alpha]
    banked = channel.latest_amount
    with pytest.raises(RequestRefused, match=reason):
        call(env.session)
    last = env.session.history[-1]
    assert last.report.classification is ResponseClass.VALID
    assert last.report.is_error_response
    assert channel.latest_amount > banked
    assert env.session.channel.acked == channel.latest_amount
    assert env.session.block_number() == env.net.chain.height


def test_a_typed_storage_read_outside_the_shard_raises_request_refused(
        devnet, keys):
    cmm = CHANNELS_MODULE_ADDRESS
    key = shard_key_of_call(RpcCall.create("eth_getStorageAt", cmm, b"\x00"))
    elsewhere = next(half for half in (ShardRange.of(0, 2), ShardRange.of(1, 2))
                     if not half.covers(key))
    env = make_parp_env(devnet, keys, shard_range=elsewhere)
    with pytest.raises(RequestRefused, match="outside this server's shard"):
        env.session.get_storage_at(cmm, b"\x00" * 32)
    with pytest.raises(RequestRefused, match="outside this server's shard"):
        env.session.channel_status_verified()
    assert env.server.stats.out_of_range_rejected == 2
    assert env.session.channel.acked == (
        env.server.channels[env.alpha].latest_amount)


def test_the_retired_header_page_is_a_signed_refusal(parp_env):
    """``parp_updatesByRange`` left the paid catalog: checkpoint sync pages
    the free ``serve_updates_range``, and a paid request for the old method
    is refused, attributably, like any unsupported method."""
    env = parp_env
    channel = env.server.channels[env.alpha]
    banked = channel.latest_amount
    outcome = env.session.request("parp_updatesByRange", 1, 2)
    assert_signed_refusal(env, outcome, channel.latest_amount - banked,
                          "unsupported RPC method 'parp_updatesByRange'")
    with pytest.raises(RequestRefused, match="unsupported RPC method"):
        served_result(outcome.response.status, outcome.response.result)


def test_a_typed_batch_with_one_key_outside_the_shard_raises_request_refused(
        devnet, keys):
    """One refused item refuses the typed batch; the item inside the shard
    was still served and paid for with the rest."""
    bob = keys.bob.address
    key = shard_key_of_call(RpcCall.create("eth_getBalance", bob))
    elsewhere = next(half for half in (ShardRange.of(0, 2), ShardRange.of(1, 2))
                     if not half.covers(key))
    inside = next(k.address for k in (keys.alice, keys.lc, keys.fn, keys.wn)
                  if elsewhere.covers(shard_key_of_call(
                      RpcCall.create("eth_getBalance", k.address))))
    env = make_parp_env(devnet, keys, shard_range=elsewhere)
    with pytest.raises(RequestRefused, match="outside this server's shard"):
        get_balances(env.session, [inside, bob])
    assert get_balances(env.session, [inside]) == [
        devnet.chain.state.balance_of(inside)]
    assert env.server.stats.out_of_range_rejected == 1
    assert env.session.channel.acked == (
        env.server.channels[env.alpha].latest_amount)
