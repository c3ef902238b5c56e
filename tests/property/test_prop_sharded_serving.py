"""Differential oracle: sharded scatter-gather ≡ single-node serving.

For random account populations, shard counts in {1, 2, 4, 8}, and random
batch queries (present accounts, absent accounts, storage slots, unsharded
calls), the scatter-gathered result must be *indistinguishable* from one
full-range node's ``serve_batch`` answer:

* per-item status and result bytes identical (same proofs, same absence
  answers — slices prove against the same global root);
* the stitched report is VALID and every item's §V-D report is VALID;
* under a flat fee schedule (additive batch price) the **sum of the legs'
  payment increments equals the oracle's batch increment** — sharding
  must not change what a query costs;
* a 1-shard cluster degenerates to the single-node wire path exactly.

Worlds are cached per shard count (devnet setup dominates runtime); the
randomness lives in the query composition.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.contracts import DEPOSIT_MODULE_ADDRESS
from repro.crypto import Address, keccak256
from repro.lightclient.sync import HeaderSyncer
from repro.parp import FlatFeeSchedule, LightClientSession
from repro.parp import marketplace as routing
from repro.parp.messages import RpcCall
from repro.parp.pricing import GWEI
from repro.trie import ShardRange

from ..conftest import BUDGET, make_market

FLAT = FlatFeeSchedule(flat_price=10 * GWEI)
N_USERS = 16
SHARD_COUNTS = (1, 2, 4, 8)


def build(shard_count: int):
    """One devnet: an N-shard cluster in the marketplace, plus a
    full-range oracle server outside it, all serving the same chain
    in-process, and one plain session on the oracle."""
    world = make_market(
        "prop:shard", [FLAT] * shard_count, witness=False, blocks=0,
        ranges=[ShardRange.of(i, shard_count) for i in range(shard_count)],
        users={**{f"user{i}": i + 1 for i in range(N_USERS)},
               "oracle-op": 100, "oracle-lc": 100})
    oracle_op, oracle_lc = world.users[N_USERS:]
    oracle_server = world.devnet.attach_server(
        oracle_op, name="oracle", fee_schedule=FLAT)
    world.devnet.advance_blocks(2)
    world.client.connect(min_sessions=shard_count)
    # the oracle stays out of the marketplace: one plain full-range
    # session is the reference implementation the scatter must match
    oracle = LightClientSession(oracle_lc, oracle_server,
                                HeaderSyncer([oracle_server]),
                                fee_schedule=FLAT)
    oracle.connect(budget=BUDGET)
    return world, oracle


_WORLDS: dict = {}


def world_for(shard_count: int):
    if shard_count not in _WORLDS:
        _WORLDS[shard_count] = build(shard_count)
    world, oracle = _WORLDS[shard_count]
    world.client.headers.sync()
    oracle.headers.sync()
    return world, oracle


def absent_address(tag: int) -> Address:
    return Address(keccak256(b"prop:shard:absent%d" % tag)[12:])


call_specs = st.lists(
    st.one_of(
        st.integers(0, N_USERS - 1).map(lambda i: ("user", i)),
        st.integers(0, 7).map(lambda i: ("absent", i)),
        st.integers(0, 3).map(lambda i: ("storage", i)),
        st.just(("block_number", 0)),
    ),
    min_size=1, max_size=10,
)


def build_calls(world, specs) -> list[RpcCall]:
    calls = []
    for kind, arg in specs:
        if kind == "user":
            calls.append(RpcCall.create("eth_getBalance",
                                        world.users[arg].address))
        elif kind == "absent":
            calls.append(RpcCall.create("eth_getBalance",
                                        absent_address(arg)))
        elif kind == "storage":
            calls.append(RpcCall.create(
                "eth_getStorageAt", DEPOSIT_MODULE_ADDRESS,
                keccak256(b"slot%d" % arg)))
        else:
            calls.append(RpcCall.create("eth_blockNumber"))
    return calls


class TestShardedDifferential:
    @given(st.sampled_from(SHARD_COUNTS), call_specs,
           st.integers(min_value=1, max_value=2))
    @settings(max_examples=25, deadline=None)
    def test_scatter_matches_single_node_oracle(self, shard_count, specs,
                                                fanout):
        world, oracle = world_for(shard_count)
        calls = build_calls(world, specs)

        oracle_before = oracle.channel.spent
        expected = oracle.query_batch(calls)
        oracle_cost = expected.amount_paid - oracle_before

        with mock.patch.object(routing, "SHARD_FANOUT", fanout):
            outcome = world.client.query_sharded(calls)

        assert expected.report.valid and outcome.report.valid
        assert len(outcome.items) == len(expected.items) == len(calls)
        for got, want in zip(outcome.items, expected.items):
            assert got.call.encode() == want.call.encode()
            assert got.status == want.status
            assert got.result == want.result     # same proof semantics
            assert got.report.valid
        # flat fees are additive, so splitting the batch must cost exactly
        # what the single node charged
        assert outcome.amount_paid == oracle_cost
        # every winner's payment was acked on its own channel
        for leg in outcome.legs:
            assert leg.ok and leg.winner is not None
            session = world.client.sessions[leg.winner]
            assert session.channel.acked == session.channel.spent

    @given(call_specs)
    @settings(max_examples=10, deadline=None)
    def test_one_shard_degenerates_to_single_node_path(self, specs):
        """N=1: the scatter is one leg carrying the whole batch over the
        plain wire path — same items, one winner, one payment."""
        world, oracle = world_for(1)
        calls = build_calls(world, specs)
        outcome = world.client.query_sharded(calls)
        assert len(outcome.legs) == 1
        leg = outcome.legs[0]
        assert leg.positions == tuple(range(len(calls)))
        assert outcome.amount_paid == leg.cost
        expected = oracle.query_batch(calls)
        for got, want in zip(outcome.items, expected.items):
            assert (got.status, got.result) == (want.status, want.result)

    @given(st.sampled_from((2, 4, 8)), call_specs)
    @settings(max_examples=10, deadline=None)
    def test_legs_respect_the_shard_map(self, shard_count, specs):
        """Every state-keyed call sits in the leg of the shard covering its
        hashed key, and positions reassemble the original order."""
        from repro.parp.sharding import shard_key_of_call
        from repro.trie import shard_of_key

        world, oracle = world_for(shard_count)
        calls = build_calls(world, specs)
        outcome = world.client.query_sharded(calls)
        seen = sorted(pos for leg in outcome.legs for pos in leg.positions)
        assert seen == list(range(len(calls)))
        for leg in outcome.legs:
            owners = {shard_of_key(key, shard_count) for key in leg.keys}
            assert len(owners) <= 1   # one shard's keys per leg
            for pos, call in zip(leg.positions, leg.calls):
                assert calls[pos].encode() == call.encode()
                key = shard_key_of_call(call)
                if key is not None:
                    assert key in leg.keys
