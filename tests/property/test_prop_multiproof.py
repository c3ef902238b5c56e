"""Property tests: multiproofs subsume single proofs, never fabricate."""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.chain.header import BlockHeader
from repro.crypto import PrivateKey, keccak256
from repro.parp.constants import BATCH_PROTOCOL_VERSION
from repro.parp.messages import (
    BatchRequest,
    BatchResponse,
    ResponseStatus,
    RpcCall,
)
from repro.parp.queries import QueryFraud, verify_query_result
from repro.parp.states import ResponseClass
from repro.parp.verification import classify_batch_response
from repro.rlp import decode as rlp_decode
from repro.trie import (
    EMPTY_TRIE_ROOT,
    MerklePatriciaTrie,
    ProofError,
    ProofIndex,
    bytes_to_nibbles,
    generate_multiproof,
    generate_proof,
    hp_decode,
    proof_size,
    verify_multiproof,
    verify_proof,
)

keys = st.binary(min_size=1, max_size=8)
values = st.binary(min_size=1, max_size=32)
mappings = st.dictionaries(keys, values, max_size=24)
key_lists = st.lists(keys, min_size=1, max_size=8)


class TestMultiproofCompleteness:
    @given(mappings, key_lists)
    @settings(max_examples=120, deadline=None)
    def test_round_trip_matches_dict(self, model, probes):
        """For any trie and any key set (present or not), the multiproof
        verifies and reports exactly the dict's answers."""
        trie = MerklePatriciaTrie()
        trie.update(model)
        proof = generate_multiproof(trie, probes)
        results = verify_multiproof(trie.root_hash, probes, proof)
        for probe in probes:
            assert results[probe] == model.get(probe)

    @given(mappings, key_lists)
    @settings(max_examples=80, deadline=None)
    def test_superset_of_single_proofs(self, model, probes):
        """The pool contains every node of every per-key proof, and each
        key still verifies through the single-proof verifier."""
        trie = MerklePatriciaTrie()
        trie.update(model)
        pool = generate_multiproof(trie, probes)
        pool_hashes = {keccak256(node) for node in pool}
        for probe in probes:
            single = generate_proof(trie, probe)
            assert {keccak256(n) for n in single} <= pool_hashes
            assert verify_proof(trie.root_hash, probe, pool) == model.get(probe)

    @given(mappings, key_lists)
    @settings(max_examples=80, deadline=None)
    def test_batch_of_one_equals_single_proof(self, model, probes):
        trie = MerklePatriciaTrie()
        trie.update(model)
        probe = probes[0]
        assert generate_multiproof(trie, [probe]) == generate_proof(trie, probe)

    @given(mappings, key_lists)
    @settings(max_examples=60, deadline=None)
    def test_never_larger_than_concatenation(self, model, probes):
        trie = MerklePatriciaTrie()
        trie.update(model)
        multi = proof_size(generate_multiproof(trie, probes))
        concat = sum(proof_size(generate_proof(trie, p)) for p in probes)
        assert multi <= concat


class TestMultiproofSoundness:
    @given(mappings, key_lists, st.data())
    @settings(max_examples=80, deadline=None)
    def test_tampered_node_never_misleads(self, model, probes, data):
        """Flipping a bit in any pool node either raises or leaves every
        answer consistent with the real trie (hash misses make the node
        vanish; affected walks fail, unaffected walks still answer right)."""
        trie = MerklePatriciaTrie()
        trie.update(model)
        proof = generate_multiproof(trie, probes)
        if not proof:
            return
        index = data.draw(st.integers(0, len(proof) - 1))
        offset = data.draw(st.integers(0, len(proof[index]) - 1))
        tampered = list(proof)
        tampered[index] = (
            tampered[index][:offset]
            + bytes([tampered[index][offset] ^ 0x01])
            + tampered[index][offset + 1:]
        )
        try:
            results = verify_multiproof(trie.root_hash, probes, tampered)
        except ProofError:
            return  # rejected: perfect
        for probe in probes:
            assert results[probe] == model.get(probe)

    @given(mappings, key_lists)
    @settings(max_examples=60, deadline=None)
    def test_missing_key_soundness(self, model, probes):
        """Keys outside the model always verify to None (proven absent)."""
        trie = MerklePatriciaTrie()
        trie.update(model)
        absent = [p for p in probes if p not in model]
        proof = generate_multiproof(trie, probes)
        results = verify_multiproof(trie.root_hash, probes, proof)
        for probe in absent:
            assert results[probe] is None


# --------------------------------------------------------------------------- #
# one shared index per response ≡ a fresh {keccak256(node): node} per item
# --------------------------------------------------------------------------- #

def fresh_walk(root_hash, key, pool):
    """The verifier as it was before :class:`ProofIndex`: hash the whole
    pool into a dict for this one key, decode every node at every visit."""
    nodes_by_hash = {keccak256(encoded): encoded for encoded in pool}
    path = bytes_to_nibbles(key)
    ref = root_hash
    while True:
        if isinstance(ref, list):
            node = ref
        elif ref == b"":
            return None
        else:
            if len(ref) != 32 or ref not in nodes_by_hash:
                raise ProofError("unresolvable reference")
            node = rlp_decode(nodes_by_hash[ref])
        if len(node) == 17:
            if not path:
                return node[16] or None
            ref, path = node[path[0]], path[1:]
            continue
        node_path, is_leaf = hp_decode(node[0])
        if is_leaf:
            return node[1] if node_path == path else None
        if path[: len(node_path)] != node_path:
            return None
        ref, path = node[1], path[len(node_path):]


def outcome_of(verify, *args):
    try:
        return "value", verify(*args)
    except ProofError:
        return "rejected", None


MUTATIONS = ("honest", "flipped-byte", "dropped-node", "duplicated-node",
             "junk-node")


def mutate(pool, mutation, data):
    pool = list(pool)
    if mutation == "honest" or not pool:
        return pool
    at = data.draw(st.integers(0, len(pool) - 1), label="node")
    if mutation == "flipped-byte":
        offset = data.draw(st.integers(0, len(pool[at]) - 1), label="offset")
        node = bytearray(pool[at])
        node[offset] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        pool[at] = bytes(node)
    elif mutation == "dropped-node":
        del pool[at]
    elif mutation == "duplicated-node":
        pool.insert(data.draw(st.integers(0, len(pool)), label="where"),
                    pool[at])
    elif mutation == "junk-node":
        pool.insert(at, data.draw(st.binary(min_size=1, max_size=80),
                                  label="junk"))
    return pool


addresses = st.binary(min_size=20, max_size=20)
LC = PrivateKey.from_seed("prop-multiproof:lc")
FN = PrivateKey.from_seed("prop-multiproof:fn")
ALPHA = keccak256(b"prop-multiproof")[:16]


class TestSharedIndexEqualsFreshWalks:
    @given(mappings, key_lists, st.sampled_from(MUTATIONS), st.data())
    @settings(max_examples=200, deadline=None)
    def test_values_and_rejections_agree_key_by_key(self, model, probes,
                                                    mutation, data):
        """Whatever the server did to the pool, every key gets from the one
        shared index exactly what a walk over a dict built for it alone
        gets: the same value, the same absence, or the same rejection."""
        trie = MerklePatriciaTrie()
        trie.update(model)
        pool = mutate(generate_multiproof(trie, probes), mutation, data)
        if trie.root_hash == EMPTY_TRIE_ROOT:
            return  # no walk: an empty root proves absence or rejects the pool
        index = ProofIndex(pool)
        for probe in probes:
            shared = outcome_of(verify_proof, trie.root_hash, probe, index)
            assert shared == outcome_of(fresh_walk, trie.root_hash, probe, pool)
            if mutation in ("honest", "duplicated-node", "junk-node"):
                assert shared == ("value", model.get(probe))

    @given(st.dictionaries(addresses, values, min_size=1, max_size=12),
           st.lists(addresses, max_size=3), st.sampled_from(MUTATIONS),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_batch_item_reports_agree_item_by_item(self, accounts, strangers,
                                                   mutation, data):
        """§V-D check 6 over ``item_view``'s shared index classifies every
        item as it does an item holding its own plain copy of the pool."""
        trie = MerklePatriciaTrie()
        trie.update({keccak256(a): record for a, record in accounts.items()})
        asked = list(accounts)[:6] + strangers
        header = BlockHeader(
            parent_hash=b"\x11" * 32, state_root=trie.root_hash,
            transactions_root=b"\x33" * 32, receipts_root=b"\x44" * 32,
            number=5, timestamp=1000, gas_used=0, gas_limit=30_000_000,
            proposer=FN.address, extra_data=b"",
        )
        pool = mutate(
            generate_multiproof(trie, [keccak256(a) for a in asked]),
            mutation, data)
        calls = [RpcCall.create("eth_getBalance", a) for a in asked]
        request = BatchRequest.build(ALPHA, header.hash, 100, calls, LC,
                                     version=BATCH_PROTOCOL_VERSION)
        response = BatchResponse.build(
            ALPHA, request, 5, [ResponseStatus.OK] * len(calls),
            [accounts.get(a, b"") for a in asked], pool, FN)
        overall, reports = classify_batch_response(
            request, response, ALPHA, FN.address, 5, lambda n: header)
        alone = []
        for i, call in enumerate(calls):
            item = replace(response.item_view(i), proof=tuple(pool))
            assert type(item.proof) is tuple
            try:
                verify_query_result(call, item, lambda n: header)
                alone.append(ResponseClass.VALID)
            except QueryFraud:
                alone.append(ResponseClass.FRAUD)
        assert [r.classification for r in reports] == alone
        if mutation in ("honest", "duplicated-node", "junk-node"):
            assert overall.classification is ResponseClass.VALID
