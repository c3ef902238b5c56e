"""End-to-end batched serving: one payment, one multiproof, N queries.

Covers the happy path (results verified against the shared node pool, a
single channel update for the whole batch), the proof cache, per-item signed
errors, fraud/invalid classification of bad batch responses, and the
refusal-then-failover path for servers that do not speak our batch version.
"""

import pytest

from repro.chain import GenesisConfig
from repro.contracts import DEPOSIT_MODULE_ADDRESS
from repro.crypto import PrivateKey
from repro.net import FixedLatency, SimEndpoint, SimNetwork, SimServerBinding
from repro.node import Devnet
from repro.parp import (
    BatchResponse,
    FlatFeeSchedule,
    FraudDetected,
    FullNodeServer,
    InvalidResponse,
    Marketplace,
    MarketplaceClient,
    RpcCall,
    SessionError,
)
from repro.parp.adversary import MaliciousFullNodeServer
from repro.parp.constants import BATCH_PROTOCOL_VERSION
from repro.parp.pricing import GWEI
from repro.parp.reputation import EVENT_SERVED_OK, EVENT_TIMEOUT
from repro.parp.server import ServeError
from repro.parp.queries import decode_balance, decode_int_result
from repro.parp.states import ResponseClass
from repro.trie.proof import proof_size
from repro.workloads import AccountSet

from ..conftest import TOKEN, make_parp_env


def balance_calls(keys, *people):
    return [RpcCall.create("eth_getBalance", getattr(keys, p).address)
            for p in people]


class TestHonestBatch:
    def test_batch_round_trip(self, parp_env):
        env = parp_env
        calls = balance_calls(env.keys, "alice", "bob") + [
            RpcCall.create("eth_blockNumber"),
        ]
        outcome = env.session.query_batch(calls)
        assert outcome.request.noun == "batch"
        assert outcome.report.classification is ResponseClass.VALID
        assert decode_balance(outcome.items[0].result) == 5 * TOKEN
        assert decode_balance(outcome.items[1].result) == 3 * TOKEN
        assert decode_int_result(outcome.items[2].result) == env.node.head_number()

    def test_one_channel_update_for_the_whole_batch(self, parp_env):
        env = parp_env
        channel = env.server.channels[env.alpha]
        before_updates = channel.requests_served
        calls = balance_calls(env.keys, "alice", "bob", "fn", "wn")
        outcome = env.session.query_batch(calls)
        assert channel.requests_served == before_updates + 1
        assert channel.queries_served >= len(calls)
        assert channel.latest_amount == outcome.amount_paid

    def test_batch_price_matches_schedule(self, parp_env):
        env = parp_env
        calls = balance_calls(env.keys, "alice", "bob")
        spent_before = env.session.channel.spent
        outcome = env.session.query_batch(calls)
        price = env.session.fee_schedule.batch_price(calls)
        assert outcome.amount_paid - spent_before == price

    def test_multiproof_dedups_across_queries(self, parp_env):
        """The batch's shared pool is smaller than N stand-alone proofs."""
        env = parp_env
        people = ("alice", "bob", "fn", "wn", "lc")
        singles = 0
        for person in people:
            outcome = env.session.request(
                "eth_getBalance", getattr(env.keys, person).address)
            singles += proof_size(list(outcome.response.proof))
        batch_outcome = env.session.query_batch(balance_calls(env.keys, *people))
        assert proof_size(list(batch_outcome.response.proof)) < singles

    def test_proof_cache_serves_repeats(self, parp_env):
        env = parp_env
        calls = balance_calls(env.keys, "alice", "bob")
        env.session.query_batch(calls)
        misses = env.server.proof_cache.stats.misses
        env.session.query_batch(calls)  # same keys, same height
        assert env.server.proof_cache.stats.hits >= len(calls)
        assert env.server.proof_cache.stats.misses == misses

    def test_get_balances_convenience(self, parp_env):
        env = parp_env
        balances = env.session.get_balances([
            env.keys.alice.address, env.keys.bob.address,
        ])
        assert balances == [5 * TOKEN, 3 * TOKEN]

    def test_serving_receipt_counts_batched_queries(self, parp_env):
        env = parp_env
        env.session.query_batch(balance_calls(env.keys, "alice", "bob"))
        receipt = env.server.serving_receipt(env.alpha)
        assert receipt.queries == env.server.channels[env.alpha].queries_served
        assert receipt.verify_signature()


class TestBatchErrors:
    def test_write_call_gets_per_item_signed_error(self, parp_env):
        env = parp_env
        calls = balance_calls(env.keys, "alice") + [
            RpcCall.create("eth_sendRawTransaction", b"\x01\x02"),
        ]
        outcome = env.session.query_batch(calls)
        assert outcome.items[0].ok
        assert not outcome.items[1].ok
        assert outcome.items[1].report.is_error_response
        assert b"not batchable" in outcome.items[1].result

    def test_unknown_method_gets_per_item_signed_error(self, parp_env):
        env = parp_env
        calls = [RpcCall.create("eth_noSuchMethod")] + balance_calls(
            env.keys, "bob")
        outcome = env.session.query_batch(calls)
        assert not outcome.items[0].ok
        assert outcome.items[1].ok

    def test_empty_batch_rejected_client_side(self, parp_env):
        with pytest.raises(SessionError, match="at least one call"):
            parp_env.session.query_batch([])


def assert_slashed_by(env, package):
    """The witness submits ``package`` and the server's stake is gone."""
    env.witness.submit(package)
    assert env.net.call_view(DEPOSIT_MODULE_ADDRESS, "deposit_of",
                             [env.keys.fn.address]) == 0


def serve_and_decode(env, calls):
    """Drive the request/serve halves manually so tests can tamper."""
    session = env.session
    price = session.fee_schedule.batch_price(calls)
    request = session.build_batch_request(calls, session.channel.next_amount(price))
    session.channel.record_request(request.a)
    raw = env.server.serve_batch(request.encode_wire())
    return request, BatchResponse.decode_wire(raw)


class TestBatchClassification:
    def test_lying_result_is_fraud(self, parp_env):
        """A server that SIGNS a wrong result is caught by the multiproof
        check and classified FRAUD (attributable), not merely invalid."""
        env = parp_env
        calls = balance_calls(env.keys, "alice", "bob")
        request, response = serve_and_decode(env, calls)
        lying = BatchResponse.build(
            alpha=env.alpha, request=request, m_b=response.m_b,
            statuses=list(response.statuses),
            results=[response.results[1], response.results[1]],  # wrong [0]
            proof=list(response.proof), key=env.keys.fn,
        )
        with pytest.raises(FraudDetected) as excinfo:
            env.session.process_batch_response(request, lying.encode_wire())
        assert excinfo.value.report.check == "merkle-proof"
        # the package names the lying item, and the slash lands
        assert excinfo.value.package.item == 0
        assert_slashed_by(env, excinfo.value.package)

    def test_short_answer_is_fraud(self, parp_env):
        """Answering fewer items than were signed for is arity fraud."""
        env = parp_env
        calls = balance_calls(env.keys, "alice", "bob")
        request, response = serve_and_decode(env, calls)
        short = BatchResponse.build(
            alpha=env.alpha, request=request, m_b=response.m_b,
            statuses=[response.statuses[0]], results=[response.results[0]],
            proof=list(response.proof), key=env.keys.fn,
        )
        with pytest.raises(FraudDetected) as excinfo:
            env.session.process_batch_response(request, short.encode_wire())
        assert excinfo.value.report.check == "batch-arity"
        assert excinfo.value.package.item == 0   # the envelope decided
        assert_slashed_by(env, excinfo.value.package)

    def test_a_lying_server_is_slashed_for_a_batch(self, devnet, keys):
        """query_batch against a server that lies about one item of a
        two-call batch: FraudDetected carries the package for that item, the
        witness lands it, and the deposit is gone."""
        env = make_parp_env(devnet, keys, server_cls=MaliciousFullNodeServer,
                            attack="inflate_balance")
        with pytest.raises(FraudDetected) as excinfo:
            env.session.query_batch(balance_calls(keys, "alice", "bob"))
        assert excinfo.value.report.check == "merkle-proof"
        assert excinfo.value.package.item == 1
        assert_slashed_by(env, excinfo.value.package)

    def test_a_16_call_batch_is_slashed_under_the_default_gas_limit(self,
                                                                  keys):
        """The read_batch16 shape over a 64-account state: the package
        carries the whole 16-call response, and the FDM charges its walk by
        the named item's own path, so the witness's default limit holds."""
        accounts = AccountSet(64, seed="batch16", balance=TOKEN)
        net = Devnet(accounts.genesis(extra={
            key.address: 100 * TOKEN for key in (keys.fn, keys.lc, keys.wn)}))
        env = make_parp_env(net, keys, server_cls=MaliciousFullNodeServer,
                            attack="inflate_balance")
        with pytest.raises(FraudDetected) as excinfo:
            env.session.query_batch([RpcCall.create("eth_getBalance", address)
                                     for address in accounts.addresses[:16]])
        assert excinfo.value.package.item == 15
        assert env.witness.gas_limit == 2_000_000
        assert_slashed_by(env, excinfo.value.package)

    def test_transit_tampering_is_invalid(self, parp_env):
        """A third party flipping bytes breaks σ_res: INVALID, not FRAUD."""
        env = parp_env
        calls = balance_calls(env.keys, "alice", "bob")
        request, response = serve_and_decode(env, calls)
        tampered = response.with_result(0, b"garbage")
        with pytest.raises(InvalidResponse) as excinfo:
            env.session.process_batch_response(request, tampered.encode_wire())
        assert excinfo.value.report.check == "response-signature"

    def test_version_downgrade_on_wire_is_rejected(self, parp_env):
        env = parp_env
        calls = balance_calls(env.keys, "alice")
        session = env.session
        price = session.fee_schedule.batch_price(calls)
        request = session.build_batch_request(
            calls, session.channel.next_amount(price))
        wire = bytearray(request.encode_wire())
        wire[0] = BATCH_PROTOCOL_VERSION + 1
        with pytest.raises(ServeError):
            env.server.serve_batch(bytes(wire))


class RefusingServer(FullNodeServer):
    """A server that does not speak our batch version: it refuses the batch
    wire on decode, exactly as ``_serve`` does when ``check_version`` fails,
    before it verifies or bills anything."""

    def serve_batch(self, wire: bytes) -> bytes:
        raise ServeError(
            f"unsupported batch protocol version {BATCH_PROTOCOL_VERSION} "
            f"(this node speaks {BATCH_PROTOCOL_VERSION + 7})")


def refuser_market(over_network: bool = False):
    """A cheap refusing server ranked first, one honest server second."""
    op_refuse, op_honest, lc, alice = (
        PrivateKey.from_seed(f"e2e:refuse:{tag}")
        for tag in ("op0", "op1", "lc", "alice"))
    devnet = Devnet(GenesisConfig(allocations={
        op_refuse.address: 100 * TOKEN, op_honest.address: 100 * TOKEN,
        lc.address: 100 * TOKEN, alice.address: 5 * TOKEN}))
    refuser = devnet.attach_server(
        op_refuse, name="refuser", server_cls=RefusingServer,
        fee_schedule=FlatFeeSchedule(flat_price=2 * GWEI))
    honest = devnet.attach_server(
        op_honest, name="honest",
        fee_schedule=FlatFeeSchedule(flat_price=10 * GWEI))
    devnet.advance_blocks(2)
    marketplace = Marketplace()
    clock = None
    if over_network:
        network = SimNetwork(latency=FixedLatency(0.02))
        clock = network.clock.now
        for i, server in enumerate((refuser, honest)):
            SimServerBinding(network, f"srv-{i}", server)
            marketplace.advertise_server(server, name=f"srv-{i}", endpoint=(
                SimEndpoint(network, f"lc-{i}", f"srv-{i}", server.address,
                            timeout=2.0)))
    else:
        marketplace.advertise_server(refuser, name="refuser")
        marketplace.advertise_server(honest, name="honest")
    client = MarketplaceClient(lc, marketplace, budget=10 ** 15, clock=clock)
    client.connect()
    return client, refuser, honest, alice


class TestVersionRefusal:
    """The one path left for a server that does not speak our batch
    version: it refuses on decode, the client sees a transport failure and
    fails over like from any refusing server."""

    def test_session_sees_transport_refusal(self, devnet, keys):
        env = make_parp_env(devnet, keys, server_cls=RefusingServer)
        acked = env.session.channel.acked
        with pytest.raises(InvalidResponse) as excinfo:
            env.session.query_batch(balance_calls(keys, "alice", "bob"))
        assert excinfo.value.report.check == "transport"
        assert env.session.channel.acked == acked

    @pytest.mark.parametrize("over_network", [False, True],
                             ids=["in-process", "simnet"])
    def test_marketplace_fails_over_to_honest_server(self, over_network):
        """The refuser still serves the single wire, so it has a history
        before the batch; one refusal adds a timeout to it, not a ban."""
        client, refuser, honest, alice = refuser_market(over_network)
        for _ in range(4):
            assert client.get_balance(alice.address) == 5 * TOKEN
        served = client.reputation.events_of(refuser.address)
        assert [e.kind for e in served] == [EVENT_SERVED_OK] * 4
        assert client.eligible()[0].address == refuser.address
        acked = client.sessions[refuser.address].channel.acked
        calls = [RpcCall.create("eth_getBalance", alice.address)] * 2
        outcome = client.query_batch(calls)
        assert outcome.request.noun == "batch"
        assert all(item.report.classification is ResponseClass.VALID
                   for item in outcome.items)
        assert decode_balance(outcome.items[0].result) == 5 * TOKEN
        assert client.last_hedge[-1].address == honest.address
        assert client.sessions[refuser.address].channel.acked == acked
        events = client.reputation.events_of(refuser.address)
        assert [e.kind for e in events[len(served):]] == [EVENT_TIMEOUT]
        assert not client.reputation.is_banned(refuser.address, client._now())

    def test_hedged_race_replaces_the_refusing_leg(self):
        """At fanout 2 the refuser's leg fails as a timeout and the honest
        leg wins; the refuser is paid nothing."""
        client, refuser, honest, alice = refuser_market()
        client.connect(min_sessions=2)
        acked = client.sessions[refuser.address].channel.acked
        calls = [RpcCall.create("eth_getBalance", alice.address)] * 2
        outcome = client.query_hedged(calls, fanout=2)
        assert all(item.report.classification is ResponseClass.VALID
                   for item in outcome.items)
        tags = {a.address: a.outcome for a in client.last_hedge}
        assert tags == {refuser.address: "timeout", honest.address: "won"}
        assert client.sessions[refuser.address].channel.acked == acked

    def test_sharded_leg_fails_over_from_the_refuser(self):
        """With no shard servers a scatter is one leg, and that leg fails
        over from the refuser exactly as a plain batch does."""
        client, refuser, honest, alice = refuser_market()
        calls = [RpcCall.create("eth_getBalance", alice.address),
                 RpcCall.create("eth_blockNumber")]
        outcome = client.query_sharded(calls)
        assert len(outcome.legs) == 1
        assert decode_balance(outcome.items[0].result) == 5 * TOKEN
        assert [a.outcome for a in client.last_hedge] == ["timeout", "won"]
        assert client.last_hedge[-1].address == honest.address

    def test_next_batch_goes_straight_to_the_honest_server(self):
        """A refusal is a transport failure on the refuser's record, which
        ranks it below the server that answered: the next batch is one
        attempt on the honest server, and the refuser's record holds that
        one timeout and nothing else."""
        client, refuser, honest, alice = refuser_market()
        calls = [RpcCall.create("eth_getBalance", alice.address)] * 2
        client.query_batch(calls)
        assert [a.outcome for a in client.last_hedge] == ["timeout", "won"]
        assert client.last_hedge[0].address == refuser.address
        assert client.eligible()[0].address == honest.address
        outcome = client.query_batch(calls)
        assert all(item.ok for item in outcome.items)
        assert [a.address for a in client.last_hedge] == [honest.address]
        assert [e.kind for e in client.reputation.events_of(
            refuser.address)] == [EVENT_TIMEOUT]
