"""What a batch's σ_res signs: the 4-ary Merkle root of items and pool hashes.

``BatchResponse.commitment()`` builds the tree a level per
``keccak256_many`` call.  The oracle here is the definition read off the
``messages.py`` docstring and nothing else — a recursive fold over one-by-one
``keccak256`` — and the two must agree at every shape, the width boundaries
(a level that exactly fills, and one node more) first.  The root must bind
everything the flat commitment did: any edit of a status, a result or a pool
hash, of their order or number, or of where items end and pool hashes begin,
moves it.  And a lie told in a batch and signed through ``messages.py`` is
still the server's own: FRAUD where the single wire says FRAUD, never INVALID
(the PR 18 lesson, per attack of ``parp/adversary.py``).
"""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.crypto import keccak256
from repro.parp.adversary import ATTACKS, forge
from repro.parp.messages import BatchResponse
from repro.parp.states import ResponseClass
from repro.parp.verification import classify_batch_response
from repro.trie import ProofIndex, generate_proof

from .test_prop_hostile_proof import (
    ACCOUNTS, ADDRESSES, ALPHA, FN, HEADER, HEIGHT, TRIE, honest_batch)

MAX_ITEMS, MAX_POOL = 64, 130
#: N + M at which a level exactly fills, and one more
BOUNDARIES = (1, 4, 5, 16, 17, 64, 65, 194)


def naive_root(statuses, results, pool_hashes):
    leaves = [keccak256(b"\x00" + bytes([status]) + result)
              for status, result in zip(statuses, results)]
    return keccak256(
        b"\x02" + len(results).to_bytes(2, "big")
        + len(pool_hashes).to_bytes(2, "big")
        + b"".join(fold(leaves + list(pool_hashes))))


def fold(nodes):
    if len(nodes) <= 4:
        return nodes
    return fold([keccak256(b"\x01" + b"".join(nodes[at:at + 4]))
                 for at in range(0, len(nodes), 4)])


def root(statuses, results, pool_hashes, keccak=None):
    """The commitment of a response with these items over a pool whose
    nodes hash to ``pool_hashes`` (named by reference: nothing is hashed)."""
    return BatchResponse(
        status=0, m_b=HEIGHT, a=1, statuses=tuple(statuses),
        results=tuple(results),
        proof=ProofIndex.by_reference((h, b"") for h in pool_hashes),
        h_req=b"\x11" * 32, sig_req=b"\x22" * 65,
        sig_res=b"").commitment(keccak)


def content(n, m, seed):
    rng = random.Random(seed)
    return ([rng.randrange(2) for _ in range(n)],
            [rng.randbytes(rng.choice((0, 1, 70, 133, 134, 135, 300)))
             for _ in range(n)],
            [rng.randbytes(32) for _ in range(m)])


def splits(total):
    """A batch of one, the widest batch, and one in between, at ``total``."""
    most = min(total, MAX_ITEMS)
    return sorted({(n, total - n) for n in (1, (1 + most) // 2, most)
                   if total - n <= MAX_POOL})


@pytest.mark.parametrize("n,m", [s for total in BOUNDARIES
                                 for s in splits(total)])
def test_root_equals_the_naive_tree_at_every_width_boundary(n, m):
    assert n + m in BOUNDARIES
    statuses, results, pool = content(n, m, seed=n * 1000 + m)
    assert root(statuses, results, pool) == naive_root(statuses, results, pool)


@given(st.integers(1, MAX_ITEMS), st.integers(0, MAX_POOL), st.integers(0, 99))
@settings(max_examples=40, deadline=None)
def test_root_equals_the_naive_tree(n, m, seed):
    statuses, results, pool = content(n, m, seed)
    assert root(statuses, results, pool) == naive_root(statuses, results, pool)


@given(st.integers(1, MAX_ITEMS), st.integers(0, MAX_POOL), st.integers(0, 99))
@settings(max_examples=20, deadline=None)
def test_a_handed_hash_folds_the_same_root_and_sees_every_message(n, m, seed):
    """The FDM hands its metered builtin: the same root, every hash of the
    fold through it (one per tree node: N leaves, the inner nodes, C)."""
    statuses, results, pool = content(n, m, seed)
    seen = []

    def metered(data):
        seen.append(data)
        return keccak256(data)

    assert root(statuses, results, pool, metered) == root(statuses, results,
                                                         pool)
    width, inner = n + m, 0
    while width > 4:
        width = -(-width // 4)
        inner += width
    assert len(seen) == n + inner + 1


def test_the_root_is_over_the_hashes_the_index_holds():
    """Real nodes, hashed by the index: the pool leaves are ``index.hashes``
    as they stand, not hashed again."""
    nodes = list(generate_proof(TRIE, keccak256(ADDRESSES[0])))
    index = ProofIndex(nodes)
    response = BatchResponse(
        status=0, m_b=HEIGHT, a=1, statuses=(0,), results=(b"r",),
        proof=index, h_req=b"\x11" * 32, sig_req=b"\x22" * 65, sig_res=b"")
    assert len(nodes) >= 2
    assert response.commitment() == naive_root(
        (0,), (b"r",), [keccak256(node) for node in nodes])


EDITS = ("status", "result", "swap-items", "drop-item", "append-item",
         "pool-hash", "swap-pool", "drop-pool", "append-pool", "boundary")


@given(st.integers(1, 20), st.integers(0, 40), st.integers(0, 99),
       st.sampled_from(EDITS), st.data())
@settings(max_examples=150, deadline=None)
def test_any_edit_changes_the_root(n, m, seed, edit, data):
    statuses, results, pool = content(n, m, seed)
    before = (list(statuses), list(results), list(pool))
    if edit in ("pool-hash", "swap-pool", "drop-pool"):
        assume(m >= 1)
        at = data.draw(st.integers(0, m - 1), label="pool node")
    else:
        at = data.draw(st.integers(0, n - 1), label="item")
    if edit == "status":
        statuses[at] ^= 1
    elif edit == "result":
        results[at] = data.draw(st.sampled_from(
            [results[at] + b"\x00", results[at][:-1], b"\xa5" * 33]))
    elif edit == "swap-items":
        to = data.draw(st.integers(0, n - 1), label="with")
        statuses[at], statuses[to] = statuses[to], statuses[at]
        results[at], results[to] = results[to], results[at]
    elif edit == "drop-item":
        del statuses[at], results[at]
    elif edit == "append-item":
        statuses.append(0)
        results.append(data.draw(st.sampled_from([b"", results[at]])))
    elif edit == "pool-hash":
        flipped = bytearray(pool[at])
        flipped[data.draw(st.integers(0, 31))] ^= 1 << data.draw(
            st.integers(0, 7))
        pool[at] = bytes(flipped)
    elif edit == "swap-pool":
        to = data.draw(st.integers(0, m - 1), label="with")
        pool[at], pool[to] = pool[to], pool[at]
    elif edit == "drop-pool":
        del pool[at]
    elif edit == "append-pool":
        pool.append(data.draw(st.sampled_from([bytes(32), *pool[-1:]])))
    else:
        # the last item's leaf read as the first pool hash: the leaf level
        # is the same 32-byte strings in the same order
        leaf = keccak256(b"\x00" + bytes([statuses.pop()]) + results.pop())
        pool.insert(0, leaf)
    assume((statuses, results, pool) != before)
    assert root(statuses, results, pool) != root(*before)


# --------------------------------------------------------------------------- #
# a lie signed through messages.py is attributable: FRAUD stays FRAUD
# --------------------------------------------------------------------------- #

ASKED = ADDRESSES[:5]

#: what §V-D must say of each attack of ``parp/adversary.py``, either wire,
#: and of one lie only a batch can tell: an item answered with another asked
#: account's real record, which the shared pool proves — under another key
VERDICTS = {
    "neighbour_record": (ResponseClass.FRAUD, "merkle-proof"),
    "inflate_balance": (ResponseClass.FRAUD, "merkle-proof"),
    "bogus_proof": (ResponseClass.FRAUD, "merkle-proof"),
    "overcharge": (ResponseClass.FRAUD, "payment-amount"),
    "stale_height": (ResponseClass.FRAUD, "timestamp"),
    "wrong_signature": (ResponseClass.INVALID, "response-signature"),
    "wrong_request_hash": (ResponseClass.INVALID, "request-hash"),
    "wrong_channel": (ResponseClass.INVALID, "response-signature"),
}


def test_every_attack_of_the_adversary_is_told_in_a_batch():
    assert set(VERDICTS) == {*ATTACKS, "neighbour_record"}


@pytest.mark.parametrize("attack", sorted(VERDICTS))
def test_a_signed_batch_lie_classifies_as_on_the_single_wire(attack):
    expected, check = VERDICTS[attack]
    request, honest = honest_batch(ASKED)
    if attack == "neighbour_record":
        forged = honest.with_result(2, ACCOUNTS[ASKED[3]]).signed(FN, ALPHA)
    else:
        forged = forge(attack, honest, ALPHA, FN, pinned=HEIGHT, target=2)
    on_the_wire = BatchResponse.decode_wire(forged.encode_wire())
    overall, _ = classify_batch_response(
        request, on_the_wire, ALPHA, FN.address, HEIGHT,
        lambda n: HEADER if n <= HEIGHT else None)
    assert (overall.classification, overall.check) == (expected, check)
