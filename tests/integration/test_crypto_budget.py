"""What a verified op costs, pinned exactly: ``tests/data/cost_vectors.json``.

ECDSA and keccak are nearly all a verified request costs (Table III, steps
A–D).  Each row is one unit's ``conftest.COST_FIELDS``, as
``conftest.counted_costs`` counts them.  The units: one timed unit of each
end-to-end workload at seed 11 (``benchmarks/e2e`` builds, warms and plans
it, and checks each answer between queries, as the benchmark does); a seal
of four transfers on ``seal_net``; one warm request on each wire, a balance
read and a batch of 16.  A unit starts from empty process-wide caches, so
its row is the same whether this file runs alone or in the suite.  Each
count is an equality: when moving one is the point of a change, regenerate
with :data:`REGENERATE` and say which counts moved and why.

Below the rows: what they do not show — a round trip's ECDSA work as
Table III names it, a batch paying it once, a warm channel doubling no
point, a hintless recover's ladder, and who hashes what, and when.
"""

import json
import random
from collections import Counter
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

from benchmarks.e2e import run
from benchmarks.e2e.workloads import WORKLOADS, check
from repro.chain import GenesisConfig
from repro.chain import chain as chain_module
from repro.chain import state as state_module
from repro.chain.transaction import Transaction
from repro.crypto import PrivateKey
from repro.crypto import keys as keys_module
from repro.crypto import keccak as keccak_module
from repro.crypto.keys import Address
from repro.crypto.secp256k1 import SPLIT_BITS
from repro.metrics.cache import LRUCache
from repro.node import Devnet
from repro.parp import RpcCall
from repro.parp.states import ResponseClass
from repro.rlp import codec as rlp
from repro.trie import ProofIndex, verify_proof

from ..conftest import (COST_FIELDS, TOKEN, Keys, counted_costs,
                        counted_keccak, funded_genesis, make_parp_env,
                        state_nodes)
from .test_e2e_sharded import shard_world

VECTORS_PATH = Path(__file__).parents[1] / "data" / "cost_vectors.json"
REGENERATE = "PYTHONPATH=src python -m tests.integration.test_crypto_budget"
BATCH_SIZE = 16


def warmed(env):
    """Header sync and caches are paid, and each party has seen enough of
    the other's signatures to hold its fixed-base table
    (``keys._BUILD_AFTER``; the client sees one a request)."""
    call = RpcCall.create("eth_getBalance", env.keys.alice.address)
    for _ in range(keys_module._BUILD_AFTER):
        env.session.request_call(call)
    env.session.query_batch([call, call])
    return env


def batch_of_sixteen(env):
    people = (env.keys.alice, env.keys.bob, env.keys.fn, env.keys.wn)
    return [RpcCall.create("eth_getBalance", people[i % 4].address)
            for i in range(BATCH_SIZE)]


# --------------------------------------------------------------------------- #
# the units
# --------------------------------------------------------------------------- #

def e2e_unit(name, patch, workdir):
    """The first timed unit of workload ``name``, issued query by query."""
    workload, seed = WORKLOADS[name], run.DEFAULT_SEED
    world, _ = run.set_up(workload, seed, run.MEASURED, workdir)
    rows = []
    try:
        for query in run.timed_queries(workload, world, seed, 1):
            with counted_costs(patch) as costs:
                outcome = workload.issue(world, query)
            assert check(world, outcome).ok_ops == query.ops, query.kind
            rows.append(costs.row())
    finally:
        world.close()
    return {field: sum(row[field] for row in rows) for field in COST_FIELDS}


def seal_unit(patch, workdir):
    net = make_seal_net(workdir)
    try:
        transfers(net, range(4))
        _, costs, _ = seal_counted(net, patch)
    finally:
        net.close()
    return costs.row()


def wire_unit(wire, patch, workdir):
    keys = Keys()
    env = warmed(make_parp_env(Devnet(funded_genesis(keys)), keys))
    with counted_costs(patch) as costs:
        if wire == "request_call":
            outcome = env.session.request_call(
                RpcCall.create("eth_getBalance", keys.bob.address))
        else:
            outcome = env.session.query_batch(batch_of_sixteen(env))
    assert outcome.report.classification is ResponseClass.VALID
    return costs.row()


UNITS = {**{name: partial(e2e_unit, name) for name in WORKLOADS},
         "seal": seal_unit,
         **{wire: partial(wire_unit, wire)
            for wire in ("request_call", "query_batch")}}


def measure(unit, workdir):
    """``unit``'s row, counted from empty process-wide caches and with block
    timestamps off the wall clock: a block's hash is signed into every
    request, so it picks the scalars whose doublings a recover counts."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chain_module, "_time", SimpleNamespace(time=lambda: 0))
        for module, name in ((keys_module, "_KNOWN_KEYS"),
                             (keys_module, "_ADDRESSES"),
                             (state_module, "_secure_key_memo")):
            capacity = getattr(module, name).capacity
            patch.setattr(module, name, LRUCache(capacity=capacity))
        return UNITS[unit](patch, workdir)


VECTORS = (json.loads(VECTORS_PATH.read_text()) if VECTORS_PATH.exists()
           else {"rows": {}})


@pytest.mark.parametrize("unit", list(UNITS))
def test_a_unit_costs_its_row(unit, tmp_path):
    row, pinned = measure(unit, tmp_path), VECTORS["rows"].get(unit, {})
    moved = [f"{field} {pinned.get(field)} -> {count}"
             for field, count in row.items() if pinned.get(field) != count]
    assert not moved, (
        f"unit {unit}: {', '.join(moved)}; if moving them is the point, "
        f"regenerate {VECTORS_PATH.name} with `{REGENERATE}` and review "
        "the diff")


def test_a_unit_is_counted_the_same_twice(tmp_path):
    """A row does not depend on what the process ran before it: a second
    count starts from the same empty caches and frozen clock as the first."""
    first = measure("request_call", tmp_path / "first")
    assert measure("request_call", tmp_path / "second") == first


# --------------------------------------------------------------------------- #
# a warm channel: what each party hashes, and what it never does
# --------------------------------------------------------------------------- #

@pytest.fixture
def warm_env(parp_env):
    return warmed(parp_env)


#: the ECDSA work of one verified round trip (Table III): the client signs
#: its request and payment and the server its response; the server recovers
#: the client's three signatures and the client the server's one
ECDSA_FIELDS = ("signs", "recovers_full", "recovers_hinted", "verifies")


def test_single_request_stays_within_the_budget(warm_env, monkeypatch):
    """On a warm channel every recover walks the tables of a key its party
    holds: none is a full recover, and nothing verifies apart."""
    env = warm_env
    call = RpcCall.create("eth_getBalance", env.keys.bob.address)
    with counted_costs(monkeypatch) as costs:
        outcome = env.session.request_call(call)
    assert outcome.report.classification is ResponseClass.VALID
    assert [costs[field] for field in ECDSA_FIELDS] == [3, 0, 4, 0]


def test_batch_of_sixteen_pays_the_budget_once(warm_env, monkeypatch):
    """A batch is signed and recovered as one request, not once per call."""
    env = warm_env
    with counted_costs(monkeypatch) as single:
        env.session.request_call(
            RpcCall.create("eth_getBalance", env.keys.bob.address))
    with counted_costs(monkeypatch) as batch:
        outcome = env.session.query_batch(batch_of_sixteen(env))
    assert outcome.request.noun == "batch" and len(outcome.items) == BATCH_SIZE
    assert outcome.report.classification is ResponseClass.VALID
    assert single["signs"] > 0
    assert ([batch[field] for field in ECDSA_FIELDS]
            == [single[field] for field in ECDSA_FIELDS])


def test_a_warm_request_doubles_no_point_and_builds_no_table(
        warm_env, monkeypatch):
    """A signature by a key the verifier holds is checked by walking two
    tables: additions only.  A doubling means a full recovery ran or a
    table was built."""
    env = warm_env
    call = RpcCall.create("eth_getBalance", env.keys.bob.address)
    with counted_costs(monkeypatch) as costs:
        outcome = env.session.request_call(call)
        batch = env.session.query_batch(batch_of_sixteen(env))
    assert outcome.report.classification is ResponseClass.VALID
    assert batch.report.classification is ResponseClass.VALID
    assert costs["recovers_hinted"] == 2 * 4 and costs["recovers_full"] == 0
    assert costs["doublings"] == costs["tables"] == 0


def test_a_known_keys_table_holds_704_points(warm_env):
    """22 rows of 32 points: 6-bit signed windows over one half of the
    split, 128 bits and a carry, so 129 (64 rows of 15 covered the whole
    scalar)."""
    window = keys_module._KEY_WINDOW
    table = keys_module._KNOWN_KEYS._entries[warm_env.server.address]
    assert [len(row) for row in table] == (
        [2 ** (window - 1)] * -(-(SPLIT_BITS + 1) // window))


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
    with counted_costs(monkeypatch) as costs:
        env = make_parp_env(devnet, keys)
        call = RpcCall.create("eth_getBalance", env.keys.bob.address)
        assert known._entries == {env.server.address: 1}
        for _ in range(build_after - 1):
            env.session.request_call(call)
            tables_after.append(costs["tables"])
        server_at = -(-build_after // 3)    # the request that holds its 8th
        assert tables_after[server_at - 2:server_at] == [0, 1]
        assert tables_after[-2:] == [1, 2]  # the client's 8th: the last one
        misses = known.stats.misses
        env.session.request_call(call)
        env.session.query_batch([call, call])
    assert costs["tables"] == 2 and known.stats.misses == misses
    assert all(isinstance(entry, list) for entry in known._entries.values())
    assert set(known._entries) == {env.server.address,
                                   env.session.address}


def test_batch_of_sixteen_hashes_each_pool_node_once(warm_env, monkeypatch):
    env = warm_env
    with counted_keccak(monkeypatch) as hashed:
        outcome = env.session.query_batch(batch_of_sixteen(env))
    assert outcome.request.noun == "batch" and len(outcome.items) == BATCH_SIZE
    assert outcome.report.classification is ResponseClass.VALID
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
    assert hashed[-1] == response.preimage(env.alpha)
    assert len(hashed[-1]) // 136 + 1 == 2      # h_res: two blocks
    assert len(hashed.batches) <= 1 + levels
    assert [len(batch) for batch in hashed.batches] == [16, 6, 2]
    assert len(hashed) - sum(map(len, hashed.batches)) == 2
    assert hashed.passes() == (6, 3)


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


def make_seal_net(state_dir):
    """64 funded strangers and the four senders on disk, past a first block
    that paid the one-off costs (the coinbase account, the keccak(address)
    memo, each sender's recovered address)."""
    rng = random.Random(7)
    allocations = {Address(rng.randbytes(20)): TOKEN for _ in range(64)}
    allocations.update((key.address, 10 * TOKEN) for key in SEAL_SENDERS)
    net = Devnet(GenesisConfig(allocations=allocations), state_dir=state_dir)
    transfers(net, range(4))
    net.chain.build_block(coinbase=MINER, timestamp=1)
    return net


@pytest.fixture
def seal_net(tmp_path):
    net = make_seal_net(tmp_path)
    yield net
    net.close()


def signing_preimage(tx):
    """What a transaction's sender signs the hash of."""
    return rlp.encode(tx.unsigned._payload_items())


def transfers(net, senders):
    """Queue one transfer from each of ``senders`` (indices, may repeat)."""
    recipients = sorted(net.chain.config.allocations)
    for index in senders:
        net.send_transaction(SEAL_SENDERS[index], recipients[index], value=1,
                             gas_limit=21_000)


def seal_counted(net, monkeypatch):
    """Seal the mempool; returns the block, what sealing it cost (the keccak
    preimages in ``hashed``) and the encodings of the state nodes it made
    dirty."""
    chain, store = net.chain, net.chain.db
    # transactions reach a node decoded from the wire: nothing memoized
    chain.mempool = [Transaction.decode(tx.encode()) for tx in chain.mempool]
    before = set(state_nodes(store, chain.head.header.state_root))
    with counted_costs(monkeypatch) as costs:
        block = chain.build_block(coinbase=MINER,
                                  timestamp=chain.head.header.timestamp + 1)
    after = state_nodes(store, block.header.state_root)
    dirty = [raw for key, raw in after.items() if key not in before]
    assert costs["store_appends"] == 2      # a nodes.log batch, a block
    assert costs["store_records"] == len(dirty)
    return block, costs, dirty


def test_sealing_hashes_and_appends_each_dirty_node_once(seal_net, monkeypatch):
    """The state trie's dirty nodes, the two body tries' nodes, and per
    transaction its signing hash and its hash, plus the header's: nothing
    else is hashed, and nothing twice."""
    transfers(seal_net, range(4))
    block, costs, dirty = seal_counted(seal_net, monkeypatch)
    hashed = costs.hashed
    assert len(block.transactions) == 4
    tries = [[trie.db.get(key) for key in trie.db]
             for trie in (block.transaction_trie, block.receipt_trie)]
    body = tries[0] + tries[1]
    # the state trie and both body tries are one tree call: a node's blocks
    # go through the permutation beside every other node's that is ready
    tree_calls = [batch for batch in hashed.batches if len(batch) > 2]
    assert [sorted(batch) for batch in tree_calls] == [sorted(dirty + body)]
    # each transaction's signing hash and hash are one two-message call
    pairs = [batch for batch in hashed.batches if len(batch) == 2]
    assert sorted(pairs) == sorted(
        [signing_preimage(tx), tx.encode()] for tx in block.transactions)
    assert len(hashed.batches) == len(tree_calls) + len(block.transactions)
    # every sender signed in the block before: no public key is hashed
    assert not [data for data in hashed if len(data) == 64]
    counts = Counter(hashed)
    # every state node and every body-trie node: once, by the seal
    assert all(counts[raw] == 1 for raw in dirty + body)
    # the rest is per transaction (signing hash, hash) and the header —
    # nothing else hashes while a block is sealed
    assert len(hashed) - len(dirty) - len(body) == 2 * 4 + 1


def test_a_hintless_recover_doubles_at_most_130_times(seal_net, monkeypatch):
    """A transaction's sender is recovered with no key to expect: one wNAF
    ladder over both halves of the split (256 doublings before it).  A half
    is below ``2^SPLIT_BITS``, so it has at most ``SPLIT_BITS + 1`` digits:
    a doubling between each two, and one for the odd multiples' ``2Q``."""
    transfers(seal_net, [0])
    tx = Transaction.decode(seal_net.chain.mempool[0].encode())
    with counted_costs(monkeypatch) as costs:
        assert tx.sender == SEAL_SENDERS[0].address
    assert costs["recovers_full"] == 1 and costs["recovers_hinted"] == 0
    assert 0 < costs["doublings"] <= SPLIT_BITS + 1


def test_sealing_n_transactions_on_one_account_hashes_the_root_once(
        seal_net, monkeypatch):
    """Six transfers between the same two accounts dirty the same nodes one
    does; a commit per transaction boundary hashed (and appended) the root
    and spine seven times."""
    transfers(seal_net, [0])
    _, _, dirty_one = seal_counted(seal_net, monkeypatch)
    transfers(seal_net, [0] * 6)
    block, costs, dirty_six = seal_counted(seal_net, monkeypatch)
    hashed_six = costs.hashed
    assert len(block.transactions) == 6
    assert len(dirty_six) == len(dirty_one)
    root = seal_net.chain.db.get(block.header.state_root)
    assert hashed_six.count(root) == 1
    state_hashes = len(hashed_six) - 2 * 6 - 1 - len(
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
    world = shard_world(shard_count=4, replicas=1, latencies=(0.02,))
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


if __name__ == "__main__":
    import tempfile

    rows = {}
    for unit in UNITS:
        with tempfile.TemporaryDirectory() as scratch:
            rows[unit] = measure(unit, Path(scratch))
    VECTORS_PATH.write_text(json.dumps({
        "comment": "Exact counts behind one unit of work, written by "
                   f"`{REGENERATE}`; units and fields are described in that "
                   "module's docstring.",
        "rows": rows,
    }, indent=1) + "\n")
