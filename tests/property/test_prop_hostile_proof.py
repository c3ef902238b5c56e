"""σ_res binds the proof it travelled with, node for node.

The response signature commits to ``keccak256`` of every proof node, in wire
order, duplicates kept — not to the proof bytes.  Under that commitment any
edit of the node sequence of an honestly signed response (a bit flipped, a
node dropped, duplicated or moved) must still fail check 2 of §V-D: the
response is INVALID at ``response-signature``, never accepted and never
FRAUD (a third party's edit must not cost the server its deposit).  A batch
signs a Merkle root over its items and its nodes' hashes; the same holds for
it, and for an edit of its statuses and results as well.
"""

from dataclasses import replace

from hypothesis import assume, given, settings, strategies as st

from repro.chain.header import BlockHeader
from repro.crypto import PrivateKey, keccak256
from repro.parp.constants import BATCH_PROTOCOL_VERSION
from repro.parp.messages import (
    BatchRequest,
    BatchResponse,
    PARPRequest,
    PARPResponse,
    ResponseStatus,
    RpcCall,
)
from repro.parp.states import ResponseClass
from repro.parp.verification import classify_batch_response, classify_response
from repro.trie import HashMemo, MerklePatriciaTrie, generate_proof

LC = PrivateKey.from_seed("prop-hostile-proof:lc")
FN = PrivateKey.from_seed("prop-hostile-proof:fn")
ALPHA = keccak256(b"prop-hostile-proof")[:16]
HEIGHT = 5

ACCOUNTS = {keccak256(b"hostile" + bytes([i]))[:20]: bytes([i + 1]) * 70
            for i in range(48)}
ADDRESSES = sorted(ACCOUNTS)
TRIE = MerklePatriciaTrie()
TRIE.update({keccak256(a): record for a, record in ACCOUNTS.items()})
HEADER = BlockHeader(
    parent_hash=b"\x11" * 32, state_root=TRIE.root_hash,
    transactions_root=b"\x33" * 32, receipts_root=b"\x44" * 32,
    number=HEIGHT, timestamp=1000, gas_used=0, gas_limit=30_000_000,
    proposer=FN.address, extra_data=b"",
)

MUTATIONS = ("flip", "drop", "duplicate", "reorder")


def mutate(nodes, mutation, data):
    nodes = list(nodes)
    at = data.draw(st.integers(0, len(nodes) - 1), label="node")
    if mutation == "flip":
        offset = data.draw(st.integers(0, len(nodes[at]) - 1), label="offset")
        node = bytearray(nodes[at])
        node[offset] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        nodes[at] = bytes(node)
    elif mutation == "drop":
        del nodes[at]
    elif mutation == "duplicate":
        nodes.insert(data.draw(st.integers(0, len(nodes)), label="where"),
                     nodes[at])
    else:
        to = data.draw(st.integers(0, len(nodes) - 1), label="to")
        nodes.insert(to, nodes.pop(at))
    return tuple(nodes)


def through_the_wire(response, memo):
    """What the client sees: the edited frame, decoded through its memo."""
    return type(response).decode_wire(response.encode_wire(), memo)


@given(st.sampled_from(ADDRESSES), st.sampled_from(MUTATIONS), st.data())
@settings(max_examples=150, deadline=None)
def test_an_edited_single_response_fails_at_the_signature(address, mutation,
                                                          data):
    call = RpcCall.create("eth_getBalance", address)
    request = PARPRequest.build(ALPHA, HEADER.hash, 100, call, LC)
    honest = PARPResponse.build(
        ALPHA, request, HEIGHT, ACCOUNTS[address],
        generate_proof(TRIE, keccak256(address)), FN)
    memo = HashMemo()
    report = classify_response(request, through_the_wire(honest, memo),
                               ALPHA, FN.address, HEIGHT, lambda n: HEADER)
    assert report.classification is ResponseClass.VALID

    nodes = mutate(honest.proof, mutation, data)
    assume(nodes != tuple(honest.proof))
    # the same verifier, its memo warm with every honest node
    edited = through_the_wire(replace(honest, proof=nodes), memo)
    report = classify_response(request, edited, ALPHA, FN.address, HEIGHT,
                               lambda n: HEADER)
    assert report.classification is ResponseClass.INVALID
    assert report.check == "response-signature"


ITEM_MUTATIONS = ("status", "result", "swap", "drop", "append")


def mutate_items(honest, mutation, data):
    """``honest`` with one edit of its per-call statuses and results."""
    statuses, results = list(honest.statuses), list(honest.results)
    at = data.draw(st.integers(0, len(results) - 1), label="item")
    if mutation == "status":
        statuses[at] ^= 1
    elif mutation == "result":
        results[at] = mutate([results[at]], "flip", data)[0]
    elif mutation == "swap":
        to = data.draw(st.integers(0, len(results) - 1), label="with")
        results[at], results[to] = results[to], results[at]
    elif mutation == "drop":
        del statuses[at], results[at]
    else:
        statuses.append(statuses[at])
        results.append(results[at])
    return replace(honest, statuses=tuple(statuses), results=tuple(results))


def honest_batch(asked):
    """A batch asking the balances of ``asked`` and its honest answer."""
    calls = [RpcCall.create("eth_getBalance", a) for a in asked]
    request = BatchRequest.build(ALPHA, HEADER.hash, 100, calls, LC,
                                 version=BATCH_PROTOCOL_VERSION)
    answers = [(ResponseStatus.OK, ACCOUNTS[a],
                generate_proof(TRIE, keccak256(a))) for a in asked]
    return request, BatchResponse.from_answers(request, HEIGHT, answers, FN,
                                               ResponseStatus.OK)


@given(st.lists(st.sampled_from(ADDRESSES), min_size=1, max_size=6),
       st.sampled_from(MUTATIONS + ITEM_MUTATIONS), st.data())
@settings(max_examples=150, deadline=None)
def test_an_edited_batch_response_fails_at_the_signature(asked, mutation,
                                                         data):
    request, honest = honest_batch(asked)
    memo = HashMemo()
    overall, _ = classify_batch_response(
        request, through_the_wire(honest, memo), ALPHA, FN.address, HEIGHT,
        lambda n: HEADER)
    assert overall.classification is ResponseClass.VALID

    if mutation in MUTATIONS:
        edit = replace(honest, proof=mutate(honest.proof, mutation, data))
    else:
        edit = mutate_items(honest, mutation, data)
    assume(edit.payload() != honest.payload())
    edited = through_the_wire(edit, memo)
    overall, items = classify_batch_response(
        request, edited, ALPHA, FN.address, HEIGHT, lambda n: HEADER)
    assert overall.classification is ResponseClass.INVALID
    assert overall.check == "response-signature"
    assert items == []
