"""Hostile bytes reach a header decoder only as its typed error.

Headers arrive from strangers twice: inside a gossiped head announcement
and inside FDM calldata.  A header whose ``gas_used`` item was an RLP list
once raised ``TypeError`` out of ``BlockHeader.decode``, past both callers'
``except (RLPError, ValueError)``: it crashed a gossip subscriber's network
loop and made the block drop an equivocation submission unpaid.  Whatever
the mutation — byte edits, truncation, any one of the ten items replaced by
a list — ``BlockHeader.decode`` raises ``RLPError`` or returns a header, and
the two gossip messages raise ``MessageError`` from ``decode()`` and
``signer()`` or return.

Receipts and accounts arrive inside proofs, and ``rlp.decode_int`` once
read an empty list as 0 (a second encoding of the same receipt or account)
and a non-empty one as ``TypeError``; an account took a list of 32 items
for its storage root; a log entry took a list for its data and let a
list for its address escape as ``ValueError``.  Every field of either one,
and of a receipt's log entry, nested in lists or replaced by an empty list
is refused with ``RLPError``.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.chain import GenesisConfig
from repro.chain.account import Account
from repro.chain.header import BlockHeader
from repro.chain.receipt import LogEntry, Receipt
from repro.crypto import PrivateKey
from repro.gossip import HeadAnnouncement, ReputationGossip
from repro.node import Devnet
from repro.parp.messages import MessageError
from repro.parp.reputation import EVENT_FRAUD_DETECTED
from repro.rlp import RLPError, encode

KEY = PrivateKey.from_seed("prop:header-decoders")
_NET = Devnet(GenesisConfig())
_NET.advance_blocks(2)
HEADER = _NET.chain.head.header
ANNOUNCEMENT = HeadAnnouncement.build(HEADER, KEY)
GOSSIP = ReputationGossip.build(KEY.address, EVENT_FRAUD_DETECTED,
                                b"\x07" * 32, 12.5, KEY).encode()
RECEIPT = [b"\x01", b"\x52\x08",
           [LogEntry(KEY.address, (b"\x09" * 32,), b"data").to_rlp()]]
ACCOUNT = [b"\x01", b"\x0d\xe0\xb6", b"\x05" * 32, b"\x06" * 32]


def edited(data: bytes):
    """``data`` with up to four bytes overwritten, or cut short."""
    edits = st.lists(st.tuples(st.integers(0, len(data) - 1),
                               st.integers(0, 255)), min_size=1, max_size=4)

    def apply(changes):
        out = bytearray(data)
        for index, value in changes:
            out[index] = value
        return bytes(out)

    return st.one_of(edits.map(apply),
                     st.integers(0, len(data) - 1).map(lambda n: data[:n]))


def _wrapped(index: int, depth: int, items=None, outer=list) -> bytes:
    """``items`` (the header's by default) with item ``index`` nested in
    ``depth`` lists, or replaced by an empty list when ``depth`` is 0, and
    placed by ``outer`` in what is encoded."""
    items = list(HEADER._rlp_items() if items is None else items)
    items[index] = [] if depth == 0 else items[index]
    for _ in range(depth):
        items[index] = [items[index]]
    return encode(outer(items))


def lists_in(items: list):
    """Each item of ``items`` nested in one to three lists, or emptied."""
    return st.builds(_wrapped, st.integers(0, len(items) - 1),
                     st.integers(0, 3), st.just(items))


#: the header with one of its ten items nested in one to three lists
items_as_lists = st.builds(_wrapped, st.integers(0, 9), st.integers(1, 3))
hostile_headers = st.one_of(edited(HEADER.encode()), items_as_lists)
#: the receipt with one item of its log entry (address, topics, data)
#: nested in one to three lists, or emptied
log_items_as_lists = st.builds(
    _wrapped, st.integers(0, 2), st.integers(0, 3), st.just(RECEIPT[2][0]),
    st.just(lambda log: RECEIPT[:2] + [[log]]))


@given(hostile_headers)
@settings(max_examples=400, deadline=None)
def test_block_header_decode_raises_only_rlp_error(raw):
    try:
        BlockHeader.decode(raw)
    except RLPError:
        pass


@given(st.one_of(
    edited(ANNOUNCEMENT.encode()),
    hostile_headers.map(lambda h: encode([h, ANNOUNCEMENT.signature]))))
@settings(max_examples=300, deadline=None)
def test_head_announcement_raises_only_message_error(raw):
    try:
        HeadAnnouncement.decode(raw).signer()
    except MessageError:
        pass


@given(edited(GOSSIP))
@settings(max_examples=300, deadline=None)
def test_reputation_gossip_raises_only_message_error(raw):
    try:
        ReputationGossip.decode(raw).signer()
    except MessageError:
        pass


def test_every_item_as_a_list_is_refused():
    """The ten one-item cases, each held to ``RLPError``; gas_used is the
    one that once raised ``TypeError``."""
    for index in range(10):
        try:
            BlockHeader.decode(_wrapped(index, 1))
        except RLPError:
            continue
        raise AssertionError(f"item {index} as a list decoded")


@given(st.one_of(lists_in(RECEIPT), log_items_as_lists))
@settings(max_examples=200, deadline=None)
def test_receipt_decode_refuses_a_list_for_a_field(raw):
    no_topics = LogEntry(KEY.address, (), b"data").to_rlp()
    assume(raw != encode(RECEIPT[:2] + [[]]))   # a receipt without logs
    assume(raw != encode(RECEIPT[:2] + [[no_topics]]))   # a log without topics
    try:
        Receipt.decode(raw)
    except RLPError:
        return
    raise AssertionError("a receipt with a list for a field decoded")


@given(lists_in(ACCOUNT))
@settings(max_examples=200, deadline=None)
def test_account_decode_refuses_a_list_for_a_field(raw):
    try:
        Account.decode(raw)
    except RLPError:
        return
    raise AssertionError("an account with a list for a field decoded")


def test_the_bases_decode_and_a_root_of_32_items_does_not():
    """The mutators' bases are valid, so what they refuse is the list."""
    assert Receipt.decode(encode(RECEIPT)).status == 1
    assert Account.decode(encode(ACCOUNT)).nonce == 1
    with pytest.raises(RLPError):
        Account.decode(encode(ACCOUNT[:2] + [[b"\x01"] * 32, ACCOUNT[3]]))
