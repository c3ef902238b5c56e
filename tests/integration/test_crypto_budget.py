"""Per-request crypto op budget (ROADMAP item 2a: "so it cannot creep back").

ECDSA and keccak are nearly all a verified request costs, so the number of
curve operations and of hashes behind one client call is pinned here.  The
bounds are ceilings: removing a redundant recover or hash lowers the count
and keeps this test green; adding one anywhere on the request path —
client, wire, server, channel, trie — turns it red.  A batch pays the ECDSA
budget once, not once per query, and hashes each node of its shared proof
pool once, not once per item.  A proof node is hashed by the verifier only,
once per verifier: the server names it by the reference it fetched it by,
σ_res signs the node hashes, and a node the client has hashed for one
response costs nothing in the next.

Hashes are counted as *messages* (``conftest.counted_keccak`` records every
preimage through ``keccak256`` and ``keccak256_many`` alike); how many share
a pass of the permutation has its own ceilings: a commit makes one
``keccak256_many`` call per height of its overlay, a verifier one per
response.  A batch is pinned by what costs it time — sequential *passes* of
the permutation, a ``keccak256_many`` call counting what its longest message
does: σ_res signs a Merkle root whose every level is one such call, so the
round trip makes more hashes than it did and far fewer passes.
"""

import random
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.chain import GenesisConfig
from repro.chain.transaction import Transaction
from repro.crypto import PrivateKey, ecdsa, secp256k1
from repro.crypto import keys as keys_module
from repro.crypto import keccak as keccak_module
from repro.crypto.keys import Address
from repro.metrics.cache import LRUCache
from repro.node import Devnet
from repro.parp import RpcCall
from repro.parp.states import ResponseClass
from repro.rlp import codec as rlp
from repro.trie import ProofIndex, collect_subtree, hp_decode, verify_proof

from ..conftest import counted_keccak, make_parp_env
from .test_e2e_sharded import ShardWorld

TOKEN = 10 ** 18

#: one verified round trip: the client signs the request and its payment and
#: the server its response; each side recovers the signatures of the other
BUDGET = {"recover": 4, "sign": 3, "verify": 0}
BATCH_SIZE = 16


@contextmanager
def counted_calls(monkeypatch, targets):
    """Count calls of each ``(module, name)`` reached as that attribute."""
    counts = Counter()
    with monkeypatch.context() as patch:
        for module, name in targets:
            def wrapper(*args, _name=name, _inner=getattr(module, name),
                        **kwargs):
                counts[_name] += 1
                return _inner(*args, **kwargs)
            patch.setattr(module, name, wrapper)
        yield counts


def counted_ecdsa(monkeypatch):
    """Count calls into the three ECDSA entry points (everything in ``src``
    reaches them as attributes of ``repro.crypto.ecdsa``)."""
    return counted_calls(monkeypatch, [(ecdsa, name) for name in BUDGET])


#: hashes and permutations (``len // 136 + 1`` each) behind one verified
#: round trip on the conftest devnet, client and server together.  A batch
#: of 16 over its 6-node pool used to cost 159 hashes / 231 permutations
#: (each item re-hashed the pool, the server hashed every node to
#: de-duplicate it), then 33 / 74 (both sides hashed the 1.6 KB payload to
#: reach σ_res, the client every node and every item's address), and costs
#: these: two request digests, two 1.6 KB commitments (16 results + 6 node
#: hashes), the signer addresses, and the four nodes and three addresses the
#: warm-up had not shown the verifier.  A single request was 14 / 23, then
#: 13 / 17.  On a warm channel both parties know the other's key, so the
#: four hashes of a recovered public key into its address are gone, and the
#: payment digest is hashed once per request object, not once per check:
#: five hashes and five permutations off either wire.  That left a batch at
#: 13 hashes / 45 permutations, 42 of them one after another (two 1.6 KB
#: commitments of 13 each).  Its commitment is a 4-ary Merkle root now: 25
#: small hashes a party (16 item leaves, 6 + 2 inner nodes, the root) in
#: three ``keccak256_many`` calls and one one-lane hash, then a 170-byte
#: h_res — 6 passes where there were 13, and the three addresses the warm-up
#: had not shown go side by side.  Of the 26 passes of the round trip 18 are
#: one lane wide: two 676-byte request digests, two payment digests, and a
#: root and an h_res per party.
KECCAK_BUDGET = {
    "request_call": {"hashes": 8, "permutations": 12},
    "query_batch": {"hashes": 63, "passes": 26, "one_lane": 18},
}


def blocks(data):
    return len(data) // 136 + 1


def passes_of(hashed):
    """Sequential passes of the permutation behind ``hashed``, and how many
    of them were one lane wide: a one-lane hash makes one per block, a
    ``keccak256_many`` call what its longest message does (64 lanes at a
    time, longest first; fewer than two messages take the one-lane path)."""
    alone = Counter(hashed)
    shared = 0
    for batch in hashed.batches:
        if len(batch) >= 2:
            alone.subtract(batch)
            shared += sum(sorted(map(blocks, batch), reverse=True)[::64])
    one_lane = sum(blocks(data) * count for data, count in alone.items())
    return shared + one_lane, one_lane


def assert_within_keccak_budget(hashed, budget):
    assert hashed, "the counter is not on the request path"
    permutations = sum(map(blocks, hashed))
    assert len(hashed) <= budget["hashes"], len(hashed)
    assert permutations <= budget["permutations"], permutations


def assert_within_budget(counts):
    assert sum(counts.values()) > 0, "the counters are not on the request path"
    for name, ceiling in BUDGET.items():
        assert counts[name] <= ceiling, (name, dict(counts))


@pytest.fixture
def warm_env(parp_env):
    """Header sync and caches are paid before counting, and each party has
    seen enough of the other's signatures to hold its fixed-base table
    (``keys._BUILD_AFTER``; the client sees one a request)."""
    call = RpcCall.create("eth_getBalance", parp_env.keys.alice.address)
    for _ in range(keys_module._BUILD_AFTER):
        parp_env.session.request_call(call)
    parp_env.session.query_batch([call, call])
    return parp_env


def test_single_request_stays_within_the_budget(warm_env, monkeypatch):
    env = warm_env
    call = RpcCall.create("eth_getBalance", env.keys.bob.address)
    with counted_ecdsa(monkeypatch) as counts:
        outcome = env.session.request_call(call)
    assert outcome.report.classification is ResponseClass.VALID
    assert_within_budget(counts)


def counted_curve_work(monkeypatch):
    """Count point doublings and fixed-base tables built.  A signature by a
    key the verifier knows is checked by walking two tables: additions
    only.  A doubling means a full recovery ran (or a table was built)."""
    return counted_calls(monkeypatch, [(secp256k1, "_jacobian_double"),
                                       (keys_module, "fixed_base_table")])


def test_a_warm_request_doubles_no_point_and_builds_no_table(
        warm_env, monkeypatch):
    env = warm_env
    call = RpcCall.create("eth_getBalance", env.keys.bob.address)
    with counted_curve_work(monkeypatch) as curve, \
            counted_ecdsa(monkeypatch) as counts:
        outcome = env.session.request_call(call)
        batch = env.session.query_batch(batch_of_sixteen(env))
    assert outcome.report.classification is ResponseClass.VALID
    assert batch.report.classification is ResponseClass.VALID
    assert counts["recover"] == 2 * BUDGET["recover"]
    assert not curve, dict(curve)


def test_a_known_keys_table_holds_at_most_806_points(warm_env):
    """26 rows of 31 points: what a 5-bit window needs to cover one 128-bit
    half of the split (64 rows of 15 covered the whole scalar)."""
    table = keys_module._KNOWN_KEYS._entries[warm_env.server.address]
    assert isinstance(table, list) and sum(map(len, table)) <= 806


def test_a_fresh_channel_builds_one_table_per_party(devnet, keys, monkeypatch):
    """A key earns its table with its ``_BUILD_AFTER``-th authenticated
    signature, the point where full recoveries have cost what the table
    does.  The server checks three of the light client's per request, the
    client one of the full node's at connect (the channel receipt; the
    handshake confirmation names its own signer, so it is not counted) and
    one per response; nothing later on the channel builds a table or misses
    the cache."""
    build_after = keys_module._BUILD_AFTER
    known = LRUCache(capacity=keys_module.KNOWN_KEY_CAPACITY)
    monkeypatch.setattr(keys_module, "_KNOWN_KEYS", known)
    tables_after = []           # tables built by the end of each request
    with counted_curve_work(monkeypatch) as curve:
        env = make_parp_env(devnet, keys)
        call = RpcCall.create("eth_getBalance", env.keys.bob.address)
        assert known._entries == {env.server.address: 1}
        for _ in range(build_after - 1):
            env.session.request_call(call)
            tables_after.append(curve["fixed_base_table"])
        server_at = -(-build_after // 3)    # the request that holds its 8th
        assert tables_after[server_at - 2:server_at] == [0, 1]
        assert tables_after[-2:] == [1, 2]  # the client's 8th: the last one
        misses = known.stats.misses
        env.session.request_call(call)
        env.session.query_batch([call, call])
    assert curve["fixed_base_table"] == 2 and known.stats.misses == misses
    assert all(isinstance(entry, list) for entry in known._entries.values())
    assert set(known._entries) == {env.server.address,
                                   env.session.address}


def test_batch_of_sixteen_pays_the_budget_once(warm_env, monkeypatch):
    env = warm_env
    people = (env.keys.alice, env.keys.bob, env.keys.fn, env.keys.wn)
    calls = [RpcCall.create("eth_getBalance", people[i % 4].address)
             for i in range(BATCH_SIZE)]
    with counted_ecdsa(monkeypatch) as counts:
        outcome = env.session.query_batch(calls)
    assert outcome.request.noun == "batch" and len(outcome.items) == BATCH_SIZE
    assert outcome.report.classification is ResponseClass.VALID
    assert_within_budget(counts)


def test_single_request_stays_within_the_keccak_budget(warm_env, monkeypatch):
    env = warm_env
    call = RpcCall.create("eth_getBalance", env.keys.bob.address)
    with counted_keccak(monkeypatch) as hashed:
        outcome = env.session.request_call(call)
    assert outcome.report.classification is ResponseClass.VALID
    assert_within_keccak_budget(hashed, KECCAK_BUDGET["request_call"])


def test_batch_of_sixteen_hashes_each_pool_node_once(warm_env, monkeypatch):
    env = warm_env
    people = (env.keys.alice, env.keys.bob, env.keys.fn, env.keys.wn)
    calls = [RpcCall.create("eth_getBalance", people[i % 4].address)
             for i in range(BATCH_SIZE)]
    with counted_keccak(monkeypatch) as hashed:
        outcome = env.session.query_batch(calls)
    assert outcome.request.noun == "batch" and len(outcome.items) == BATCH_SIZE
    assert outcome.report.classification is ResponseClass.VALID
    budget = KECCAK_BUDGET["query_batch"]
    passes, one_lane = passes_of(hashed)
    assert len(hashed) <= budget["hashes"], len(hashed)
    assert passes <= budget["passes"], passes
    assert one_lane <= budget["one_lane"], one_lane
    # the structural bound: all 16 items verify against one index of the
    # pool (len(pool) client hashes), and the server de-duplicates the pool
    # by node bytes (zero hashes) — so no node is hashed twice in the round
    pool = outcome.response.proof
    assert len(pool) >= 2
    node_hashes = sum(map(set(pool).__contains__, hashed))
    assert node_hashes <= len(pool)
    # and side by side: what the warm-up had not shown the verifier goes
    # through the permutation in one ``keccak256_many`` call
    unseen = [batch for batch in hashed.batches if set(batch) & set(pool)]
    assert len(unseen) == 1 and len(unseen[0]) == node_hashes >= 2


def batch_of_sixteen(env):
    people = (env.keys.alice, env.keys.bob, env.keys.fn, env.keys.wn)
    return [RpcCall.create("eth_getBalance", people[i % 4].address)
            for i in range(BATCH_SIZE)]


def test_a_batch_commitment_hashes_a_level_per_pass(warm_env, monkeypatch):
    """What reaching σ_res costs one party: the item leaves in one
    ``keccak256_many`` call, one more per level of the tree over the N + M
    leaves, the root and h_res one-lane — six passes for 16 calls over this
    pool, whatever the results weigh in all."""
    env = warm_env
    response = env.session.query_batch(batch_of_sixteen(env)).response
    leaves = len(response) + len(response.proof)
    levels = next(n for n in range(leaves) if 4 ** n >= leaves)  # ⌈log₄⌉
    with counted_keccak(monkeypatch) as hashed:
        response.digest(env.alpha)
    assert hashed[-1] == response.preimage(env.alpha) and blocks(hashed[-1]) == 2
    assert len(hashed.batches) <= 1 + levels
    assert [len(batch) for batch in hashed.batches] == [16, 6, 2]
    assert len(hashed) - sum(map(len, hashed.batches)) <= 3
    assert passes_of(hashed) == (6, 3)


def test_a_batch_decodes_each_pool_node_once(warm_env, monkeypatch):
    """Every item's walk starts at the root and most share a spine: while
    a batch is classified the index decodes a node for the first walk that
    crosses it, not for each (sixteen walks over this pool decoded 36
    nodes) — and the response the session keeps holds none of them."""
    env = warm_env
    decoded = []

    def counted_decode(raw, _decode=rlp.decode):
        decoded.append(raw)
        return _decode(raw)

    monkeypatch.setattr(rlp, "decode", counted_decode)
    outcome = env.session.query_batch(batch_of_sixteen(env))
    assert outcome.report.classification is ResponseClass.VALID
    pool = set(outcome.response.proof)
    walked = Counter(raw for raw in decoded if raw in pool)
    assert set(walked) == pool and len(pool) >= 2
    assert max(walked.values()) == 1, walked.values()
    assert outcome.response.proof_index._decoded is None


@pytest.mark.parametrize("wire", ["single", "batch"])
def test_building_a_response_hashes_no_proof_node(warm_env, monkeypatch, wire):
    """Step (C) alone, server side: the proof comes out of the store named
    by the references it was fetched by, and what is hashed to reach σ_res
    is the commitment — node hashes, not node bytes."""
    env, session = warm_env, warm_env.session
    if wire == "single":
        call = RpcCall.create("eth_getBalance", env.keys.fn.address)
        request = session.build_request(call, session.channel.next_amount(
            session.fee_schedule.price(call)))
        serve = env.server.serve_request
    else:
        calls = batch_of_sixteen(env)
        request = session.build_batch_request(
            calls, session.channel.next_amount(
                session.fee_schedule.batch_price(calls)))
        serve = env.server.serve_batch
    env.server.proof_cache.clear()      # the walk runs, not the proof LRU
    with counted_keccak(monkeypatch) as hashed:
        raw = serve(request.encode_wire())
    response = request.response_type.decode_wire(raw)
    assert len(response.proof) >= 2
    assert hashed.count(response.preimage(env.alpha)) == 1
    assert response.commitment() != response.payload()
    for node in response.proof:
        assert not any(node in data for data in hashed)
    assert response.signer(env.alpha) == env.server.address


def test_repeated_batches_at_a_static_head_hash_no_node_twice(
        warm_env, monkeypatch):
    """Across responses, not just within one: the second identical batch
    brings the same pool, and the verifier has hashed all of it."""
    env = warm_env
    calls = batch_of_sixteen(env)
    with counted_keccak(monkeypatch) as hashed:
        first = env.session.query_batch(calls)
        head = env.node.head_number()
        second = env.session.query_batch(calls)
    assert env.node.head_number() == head == second.response.m_b
    pool = first.response.proof
    assert second.response.proof == pool and len(pool) >= 2
    assert all(hashed.count(node) <= 1 for node in pool)
    after_first = len(hashed) // 2
    assert not set(hashed[after_first:]) & set(pool)


def test_the_counter_sees_an_index_built_without_a_hash(warm_env, monkeypatch):
    """The guards above count through ``counted_keccak``: a path that hands
    plain node bytes to ``ProofIndex`` / ``verify_proof`` / ``decode_wire``
    with no hash of its own must not hash them out of its sight (the
    default is looked up per call, not bound at import)."""
    env = warm_env
    outcome = env.session.request_call(
        RpcCall.create("eth_getBalance", env.keys.bob.address))
    response = outcome.response
    header = env.node.get_header(response.m_b)
    nodes = list(response.proof)
    key = keccak_module.keccak256(env.keys.bob.address.to_bytes())
    builds = {
        "ProofIndex": lambda: ProofIndex(nodes),
        "ProofIndex.of": lambda: ProofIndex.of(nodes),
        "verify_proof": lambda: verify_proof(header.state_root, key, nodes),
        "decode_wire": lambda: type(response).decode_wire(
            response.encode_wire()),
    }
    for name, build in builds.items():
        with counted_keccak(monkeypatch) as hashed:
            build()
        assert sorted(hashed) == sorted(nodes), name


# --------------------------------------------------------------------------- #
# sealing a block: hashes and nodes.log records proportional to what changed
# --------------------------------------------------------------------------- #

SEAL_SENDERS = [PrivateKey.from_seed(f"budget:sender{i}") for i in range(4)]
MINER = Address(b"\x4d" * 20)
#: the seeded 4-transfer block below: 18 dirty state nodes (the root, the
#: spine branches under it and the nine account leaves), 6 + 2 body-trie
#: nodes, and per transaction its hash, its signing hash and the hash of
#: the recovered public key, plus the header's — 39 hashes, 49 permutations
#: and 18 nodes.log records, where a hashing commit per transaction
#: boundary cost 69, 107 and 40
SEAL_BUDGET = {"hashes": 39, "permutations": 49, "records": 18}


@pytest.fixture
def seal_net(tmp_path):
    rng = random.Random(7)
    allocations = {Address(rng.randbytes(20)): TOKEN for _ in range(64)}
    allocations.update((key.address, 10 * TOKEN) for key in SEAL_SENDERS)
    net = Devnet(GenesisConfig(allocations=allocations), state_dir=tmp_path)
    # a first block pays the one-off costs: the coinbase account comes into
    # being, every keccak(address) lands in the process-wide memo
    transfers(net, range(4))
    net.chain.build_block(coinbase=MINER, timestamp=1)
    yield net
    net.close()


def transfers(net, senders):
    """Queue one transfer from each of ``senders`` (indices, may repeat)."""
    recipients = sorted(net.chain.config.allocations)
    for index in senders:
        net.send_transaction(SEAL_SENDERS[index], recipients[index], value=1,
                             gas_limit=21_000)


def seal_counted(net, monkeypatch):
    """Seal the mempool; returns the block, every keccak preimage hashed
    while sealing, and the encodings of the state nodes it made dirty."""
    chain, store = net.chain, net.chain.db
    # transactions reach a node decoded from the wire: nothing memoized
    chain.mempool = [Transaction.decode(tx.encode()) for tx in chain.mempool]
    before = set(collect_subtree(store, chain.head.header.state_root))
    records, batches = store.stats.entries_written, store.stats.batches_committed
    with counted_keccak(monkeypatch) as hashed:
        block = chain.build_block(coinbase=MINER,
                                  timestamp=chain.head.header.timestamp + 1)
    after = collect_subtree(store, block.header.state_root)
    dirty = [raw for key, raw in after.items() if key not in before]
    assert store.stats.batches_committed - batches == 1
    assert store.stats.entries_written - records == len(dirty)
    return block, hashed, dirty


def heights_of(nodes):
    """Each encoded node's height above its deepest descendant among
    ``nodes`` (an inlined child is a level of its own), read off the
    encodings alone."""
    by_hash = {keccak_module.keccak256(raw): raw for raw in nodes}

    def height(node):
        if len(node) == 2 and hp_decode(node[0])[1]:
            return 0
        refs = node[:16] if len(node) == 17 else node[1:]
        below = [height(ref if isinstance(ref, list)
                        else rlp.decode(by_hash[ref]))
                 for ref in refs if isinstance(ref, list) or ref in by_hash]
        return 1 + max(below) if below else 0

    return {raw: height(rlp.decode(raw)) for raw in nodes}


def assert_one_batch_per_height(nodes, batches):
    """The commit that flushed ``nodes`` hashed each height of its overlay
    in one ``keccak256_many`` call, and nothing else with it."""
    heights = heights_of(nodes)
    calls = Counter()
    for batch in batches:
        levels = {heights[raw] for raw in batch if raw in heights}
        if levels:
            assert len(levels) == 1 and set(batch) <= set(heights)
            calls.update(levels)
    assert set(calls) == set(heights.values())
    assert max(calls.values()) == 1, dict(calls)


def test_sealing_hashes_and_appends_each_dirty_node_once(seal_net, monkeypatch):
    transfers(seal_net, range(4))
    block, hashed, dirty = seal_counted(seal_net, monkeypatch)
    assert len(block.transactions) == 4
    tries = [[trie.db.get(key) for key in trie.db]
             for trie in (block.transaction_trie, block.receipt_trie)]
    body = tries[0] + tries[1]
    # independent nodes share a pass of the permutation: per trie, one
    # ``keccak256_many`` call per height of its overlay
    assert len(set(heights_of(dirty).values())) >= 3
    for nodes in (dirty, *tries):
        assert_one_batch_per_height(nodes, hashed.batches)
    counts = Counter(hashed)
    # every state node and every body-trie node: once, by the seal
    assert all(counts[raw] == 1 for raw in dirty + body)
    # the rest is per transaction (hash, signing hash, public key) and the
    # header — nothing else hashes while a block is sealed
    assert len(hashed) - len(dirty) - len(body) <= 3 * 4 + 1
    assert len(dirty) <= SEAL_BUDGET["records"]
    assert_within_keccak_budget(hashed, SEAL_BUDGET)


def test_a_hintless_recover_doubles_at_most_130_times(seal_net, monkeypatch):
    """A transaction's sender is recovered with no key to expect: one wNAF
    ladder over both halves of the split (256 doublings before it)."""
    transfers(seal_net, [0])
    tx = Transaction.decode(seal_net.chain.mempool[0].encode())
    with counted_curve_work(monkeypatch) as curve, \
            counted_ecdsa(monkeypatch) as counts:
        assert tx.sender == SEAL_SENDERS[0].address
    assert counts["recover"] == 1
    assert 0 < curve["_jacobian_double"] <= 130


def test_sealing_n_transactions_on_one_account_hashes_the_root_once(
        seal_net, monkeypatch):
    """Six transfers between the same two accounts dirty the same nodes one
    does; a commit per transaction boundary hashed (and appended) the root
    and spine seven times."""
    transfers(seal_net, [0])
    _, hashed_one, dirty_one = seal_counted(seal_net, monkeypatch)
    transfers(seal_net, [0] * 6)
    block, hashed_six, dirty_six = seal_counted(seal_net, monkeypatch)
    assert len(block.transactions) == 6
    assert len(dirty_six) == len(dirty_one)
    root = seal_net.chain.db.get(block.header.state_root)
    assert hashed_six.count(root) == 1
    state_hashes = len(hashed_six) - 3 * 6 - 1 - len(
        block.transaction_trie.db) - len(block.receipt_trie.db)
    assert state_hashes == len(dirty_six)


# --------------------------------------------------------------------------- #
# routing a sharded query: by a hash the party already has
# --------------------------------------------------------------------------- #

def test_a_sharded_query_routes_by_hashes_its_parties_hold(monkeypatch):
    """The key that routes a call to a shard is the key its proof walks:
    the client derives it through the memo it verifies with, the server
    through the memo its state reads use.  Sixteen calls used to cost 32
    address hashes a query on top of those memos, every query."""
    world = ShardWorld(shard_count=4, replicas=1, latencies=(0.02,))
    world.connect()
    strangers = [PrivateKey.from_seed(f"budget:stranger{i}") for i in range(12)]
    calls = world.balance_calls() + [
        RpcCall.create("eth_getBalance", key.address) for key in strangers]
    addresses = {bytes(call.param_bytes(0, exact=20)) for call in calls}
    assert len(calls) == BATCH_SIZE == len(addresses)

    with counted_keccak(monkeypatch) as hashed:
        outcome = world.client.query_sharded(calls)
    assert all(leg.ok for leg in outcome.legs) and len(outcome.legs) == 4
    counts = Counter(data for data in hashed if data in addresses)
    # once by the verifier, once by the prover (one process, two parties)
    assert set(counts) == addresses and max(counts.values()) <= 2
    # the client's sixteen go through the permutation side by side
    assert [batch for batch in hashed.batches
            if set(batch) & addresses] == [[
                bytes(call.param_bytes(0, exact=20)) for call in calls]]

    with counted_keccak(monkeypatch) as hashed:
        again = world.client.query_sharded(calls)
    assert all(leg.ok for leg in again.legs)
    assert not addresses & set(hashed)
