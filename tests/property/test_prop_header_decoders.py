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
"""

from hypothesis import given, settings, strategies as st

from repro.chain import GenesisConfig
from repro.chain.header import BlockHeader
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


def _wrapped(index: int, depth: int) -> bytes:
    items = HEADER._rlp_items()
    for _ in range(depth):
        items[index] = [items[index]]
    return encode(items)


#: the header with one of its ten items nested in one to three lists
items_as_lists = st.builds(_wrapped, st.integers(0, 9), st.integers(1, 3))
hostile_headers = st.one_of(edited(HEADER.encode()), items_as_lists)


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
