"""Two digests hashed side by side are the two one-lane digests.

A transaction hashes its signing pre-image ``rlp(payload)`` beside its full
encoding in one ``keccak256_many`` call, whichever of ``sender`` and
``hash`` is read first; a PARP request hashes h_req's pre-image beside
``Hash(α, a)`` in one call, when it is built (step A) and when it is
checked (step B).  Each pair must equal the one-lane ``keccak256`` of each
message — for a transaction whose ``data`` spans several rate blocks too —
and the checks built on them must still refuse what they refused: a
tampered h_req, a σ_a over another amount.  The metered path the fraud
module runs hashes each pre-image through its meter exactly once.

``recover_address`` keeps every full recovery's ``point -> Address`` in a
memo as long as the known-key cache: the answer is the point's own address
on a first and on a repeat recovery, a repeat hashes no public key, and the
memo holds at most ``KNOWN_KEY_CAPACITY`` points however many signers pass.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import UnsignedTransaction
from repro.chain.transaction import Transaction
from repro.crypto import ecdsa, keys
from repro.crypto.keccak import keccak256
from repro.crypto.keys import (KNOWN_KEY_CAPACITY, Address, PrivateKey,
                               PublicKey, recover_address)
from repro.crypto.secp256k1 import N
from repro.metrics.cache import LRUCache
from repro.parp import BATCH_PROTOCOL_VERSION, RpcCall
from repro.parp.messages import (BatchRequest, MessageError, PARPRequest,
                                 batch_request_digest, payment_digest,
                                 payment_preimage, request_digest)
from repro.rlp import codec as rlp

from ..conftest import counted_keccak

SIGNERS = [PrivateKey.from_seed(f"paired:{i}") for i in range(3)]

uints = st.integers(min_value=0, max_value=2 ** 64)
signers = st.sampled_from(SIGNERS)
alphas = st.binary(min_size=16, max_size=16)
hashes = st.binary(min_size=32, max_size=32)
amounts = st.integers(min_value=0, max_value=2 ** 128 - 1)
calls = st.builds(
    RpcCall.create, st.sampled_from(["eth_getBalance", "eth_blockNumber"]),
    st.binary(min_size=20, max_size=20).map(Address))
wires = st.sampled_from(["request", "batch"])


@st.composite
def transactions(draw):
    """A signed transaction as a node meets it: decoded, nothing cached.
    ``data`` runs past one 136-byte rate block about half the time."""
    unsigned = UnsignedTransaction(
        nonce=draw(uints), gas_price=draw(uints), gas_limit=draw(uints),
        to=Address(draw(st.binary(min_size=20, max_size=20))),
        value=draw(st.integers(min_value=0, max_value=2 ** 256 - 1)),
        data=draw(st.one_of(st.binary(max_size=100),
                            st.binary(min_size=137, max_size=600))),
    )
    key = draw(signers)
    return Transaction.decode(unsigned.sign(key).encode()), key


def signing_preimage(tx):
    return rlp.encode(tx.unsigned._payload_items())


def build(wire, alpha, h_b, amount, call, key):
    """A request of ``wire`` and the digest its h_req must equal."""
    if wire == "request":
        return (PARPRequest.build(alpha, h_b, amount, call, key),
                request_digest(alpha, h_b, amount, call.encode()))
    calls = (call, RpcCall.create("eth_blockNumber"))
    request = BatchRequest.build(alpha, h_b, amount, calls, key,
                                 BATCH_PROTOCOL_VERSION)
    return request, batch_request_digest(
        alpha, h_b, amount, BATCH_PROTOCOL_VERSION,
        BatchRequest._calls_bytes(calls))


# --------------------------------------------------------------------------- #
# a transaction's pair
# --------------------------------------------------------------------------- #

@settings(max_examples=25, deadline=None)
@given(transactions(), st.booleans())
def test_a_transactions_pair_is_its_two_one_lane_digests(drawn, hash_first):
    tx, key = drawn
    sender = key.address
    with pytest.MonkeyPatch.context() as patch, \
            counted_keccak(patch) as hashed:
        first = tx.hash if hash_first else tx.sender
        assert first is not None and tx.sender == sender
    pair = [signing_preimage(tx), tx.encode()]
    assert hashed.batches == [pair]
    assert [keccak256(data) for data in pair] == [
        tx.unsigned.signing_hash, tx.hash]


# --------------------------------------------------------------------------- #
# a request's pair, both wires
# --------------------------------------------------------------------------- #

@settings(max_examples=25, deadline=None)
@given(wires, alphas, hashes, amounts, calls, signers)
def test_a_requests_pair_is_h_req_and_h_pay(wire, alpha, h_b, amount, call,
                                            key):
    request, digest = build(wire, alpha, h_b, amount, call, key)
    decoded = type(request).decode_wire(request.encode_wire())
    h_pay = payment_digest(alpha, amount)
    for each in (request, decoded):
        assert each.h_req == digest
        assert each.digests == [digest, h_pay] and each.h_pay == h_pay
        assert keccak256(each.expected_preimage()) == digest
    assert decoded.verify(expected_sender=key.address) == key.address
    assert decoded.verify() == key.address


@settings(max_examples=25, deadline=None)
@given(wires, alphas, hashes, amounts, calls, signers, hashes)
def test_a_tampered_h_req_is_still_rejected(wire, alpha, h_b, amount, call,
                                            key, other):
    request, digest = build(wire, alpha, h_b, amount, call, key)
    if other == digest:
        return
    # re-signed over the forged digest, so only the digest check can fail
    forged = replace(request, h_req=other,
                     sig_req=key.sign(other).to_bytes())
    for each in (forged, type(forged).decode_wire(forged.encode_wire())):
        with pytest.raises(MessageError, match="hash does not match"):
            each.verify(expected_sender=key.address)


@settings(max_examples=25, deadline=None)
@given(wires, alphas, hashes, amounts, calls, signers)
def test_a_payment_over_another_amount_is_still_rejected(
        wire, alpha, h_b, amount, call, key):
    request, _ = build(wire, alpha, h_b, amount, call, key)
    other = payment_digest(alpha, amount ^ 1)
    forged = replace(request, sig_a=key.sign(other).to_bytes())
    decoded = type(forged).decode_wire(forged.encode_wire())
    with pytest.raises(MessageError, match="different keys"):
        decoded.verify()
    with pytest.raises(MessageError):
        decoded.verify(expected_sender=key.address)


@settings(max_examples=15, deadline=None)
@given(wires, alphas, hashes, amounts, calls, signers)
def test_a_metered_keccak_sees_each_preimage_once(wire, alpha, h_b, amount,
                                                  call, key):
    request, _ = build(wire, alpha, h_b, amount, call, key)
    decoded = type(request).decode_wire(request.encode_wire())
    metered = []

    def meter(data):
        metered.append(bytes(data))
        return keccak256(data)
    assert decoded.verify(key.address, keccak=meter) == key.address
    assert metered == [decoded.expected_preimage(),
                       payment_preimage(alpha, amount)]


# --------------------------------------------------------------------------- #
# the address memo
# --------------------------------------------------------------------------- #

@settings(max_examples=20, deadline=None)
@given(hashes, st.integers(min_value=1, max_value=N - 1))
def test_a_repeat_recovery_is_the_points_own_address_unhashed(digest, secret):
    key = PrivateKey(secret)
    signature, again = key.sign(digest), key.sign(digest[::-1])
    point = ecdsa.recover(digest, signature)
    public, address = PublicKey(point).to_bytes()[1:], PublicKey(point).address
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(keys, "_ADDRESSES",
                      LRUCache(capacity=KNOWN_KEY_CAPACITY))
        with counted_keccak(patch) as first:
            assert recover_address(digest, signature) == address
        with counted_keccak(patch) as repeat:
            assert recover_address(digest, signature) == address
            assert recover_address(digest[::-1], again) == address
    assert list(first) == [public] and address == key.address
    assert not [data for data in repeat if len(data) == 64]


def test_the_memo_never_outgrows_the_known_key_cache(monkeypatch):
    assert keys._ADDRESSES.capacity == KNOWN_KEY_CAPACITY
    fresh_memo = LRUCache(capacity=KNOWN_KEY_CAPACITY)
    monkeypatch.setattr(keys, "_ADDRESSES", fresh_memo)
    digest = bytes(range(32))
    signers = [PrivateKey.from_seed(f"paired:memo{i}")
               for i in range(KNOWN_KEY_CAPACITY + 8)]
    signatures = [key.sign(digest) for key in signers]
    for _ in range(2):
        for key, signature in zip(signers, signatures):
            assert recover_address(digest, signature) == key.address
            assert len(fresh_memo._entries) <= KNOWN_KEY_CAPACITY
    assert len(fresh_memo._entries) == KNOWN_KEY_CAPACITY
    assert fresh_memo.stats.evictions >= len(signers)
