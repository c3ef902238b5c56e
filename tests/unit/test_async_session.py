"""Non-blocking session issue/collect: overlap, cancel, adapters, pipelining."""

import pytest

from repro.lightclient import HeaderSyncer
from repro.net import (
    FixedLatency,
    ReplyCancelled,
    SimEndpoint,
    SimNetwork,
    SimServerBinding,
)
from repro.parp import (
    FullNodeServer,
    InvalidResponse,
    LightClientSession,
    SessionError,
)
from repro.parp.messages import RpcCall
from repro.parp.server import ServeError

from ..conftest import TOKEN, make_parp_env


@pytest.fixture
def sim_session(devnet, keys):
    """One PARP server + one bonded session over the simulated network."""
    env = make_parp_env(devnet, keys, connect=False)
    network = SimNetwork(latency=FixedLatency(0.02))
    binding = SimServerBinding(network, "fn", env.server)
    endpoint = SimEndpoint(network, "lc", "fn", env.server.address,
                           timeout=2.0)
    session = LightClientSession(keys.lc, endpoint, HeaderSyncer([endpoint]))
    session.connect(budget=10 ** 15)
    return network, env.server, binding, endpoint, session


class TestBeginCollect:
    def test_issue_now_verify_on_collect(self, sim_session, keys):
        network, server, binding, endpoint, session = sim_session
        call = RpcCall.create("eth_getBalance", keys.alice.address)
        pending = session.begin_request(call)
        # issued, paid, in flight — but nothing verified yet
        assert not pending.reply.done()
        assert session.channel.spent > session.channel.acked
        outcome = session.collect(pending)
        assert outcome.report.classification.value == "valid"
        assert session.channel.acked == session.channel.spent

    def test_pipelined_requests_share_the_wire(self, sim_session, keys):
        """K requests issued back-to-back are all in flight at once and
        complete in ~one round trip, not K of them."""
        network, server, binding, endpoint, session = sim_session
        start = network.clock.now()
        call = RpcCall.create("eth_getBalance", keys.alice.address)
        pendings = [session.begin_request(call) for _ in range(3)]
        assert endpoint.in_flight == 3
        assert all(not p.reply.done() for p in pendings)
        outcomes = [session.collect(p) for p in pendings]
        elapsed = network.clock.now() - start
        # one RTT (0.04s) for all three requests, plus one free header
        # round trip (the first verification after the head advanced past
        # the locally synced tip); three sequential RTTs would be ≥ 0.12s
        # before that header fetch
        assert elapsed == pytest.approx(0.08)
        assert server.stats.requests_served == 3
        # the channel's money is exactly consistent after the burst
        banked = server.channels[session.channel.alpha]
        assert banked.latest_amount == session.channel.spent
        assert session.channel.acked == session.channel.spent
        assert outcomes[-1].amount_paid == session.channel.spent

    def test_collect_is_once_only(self, sim_session, keys):
        network, server, binding, endpoint, session = sim_session
        pending = session.begin_request(
            RpcCall.create("eth_getBalance", keys.alice.address))
        session.collect(pending)
        with pytest.raises(SessionError):
            session.collect(pending)

    def test_cancel_leaves_payment_unacked(self, sim_session, keys):
        network, server, binding, endpoint, session = sim_session
        acked_before = session.channel.acked
        pending = session.begin_request(
            RpcCall.create("eth_getBalance", keys.alice.address))
        assert pending.cancel() is True
        with pytest.raises(InvalidResponse) as excinfo:
            session.collect(pending)
        assert excinfo.value.report.check == "transport"
        # the signed payment is spent but never acked (not volunteered at
        # closure; the dispute window covers the server that did serve it)
        assert session.channel.spent > session.channel.acked == acked_before

    def test_begin_batch_and_collect(self, sim_session, keys):
        network, server, binding, endpoint, session = sim_session
        calls = [RpcCall.create("eth_getBalance", keys.alice.address),
                 RpcCall.create("eth_getBalance", keys.bob.address)]
        pending = session.begin_batch(calls)
        assert not pending.reply.done()
        outcome = session.collect(pending)
        assert outcome.request.noun == "batch" and all(item.ok for item in outcome.items)
        assert server.stats.batches_served == 1

    def test_refused_batch_fails_at_collect_not_at_begin(self, devnet, keys):
        """There is no version check before sending: a server that does not
        speak our batch version refuses on decode, the refusal surfaces at
        collect as a transport failure, and the channel serves on."""

        class RefusingServer(FullNodeServer):
            def serve_batch(self, wire):
                raise ServeError("unsupported batch protocol version")

        env = make_parp_env(devnet, keys, server_cls=RefusingServer)
        call = RpcCall.create("eth_getBalance", keys.alice.address)
        pending = env.session.begin_batch([call])
        with pytest.raises(InvalidResponse) as excinfo:
            env.session.collect(pending)
        assert excinfo.value.report.check == "transport"
        assert env.session.channel.acked == 0
        outcome = env.session.collect(env.session.begin_request(call))
        assert outcome.report.classification.value == "valid"
        assert env.session.channel.acked == env.session.channel.spent

    @pytest.mark.parametrize("reply", [None, 7, "0x00", [b"\x00"]])
    def test_non_bytes_reply_is_invalid_on_both_wires(self, devnet, keys,
                                                      reply):
        """A reply that is not a wire frame is an undecodable reply —
        typed INVALID at collect, not a TypeError out of the decoder."""

        class GarbageServer(FullNodeServer):
            def serve_request(self, wire):
                return reply

            def serve_batch(self, wire):
                return reply

        env = make_parp_env(devnet, keys, server_cls=GarbageServer)
        call = RpcCall.create("eth_getBalance", keys.alice.address)
        for pending in (env.session.begin_request(call),
                        env.session.begin_batch([call, call])):
            with pytest.raises(InvalidResponse) as excinfo:
                env.session.collect(pending)
            assert excinfo.value.report.check == "decode"
        assert env.session.channel.acked == 0

    def test_timeout_on_silent_server_surfaces_at_collect(self, sim_session,
                                                          keys):
        network, server, binding, endpoint, session = sim_session
        binding.offline = True
        pending = session.begin_request(
            RpcCall.create("eth_getBalance", keys.alice.address))
        with pytest.raises(InvalidResponse) as excinfo:
            session.collect(pending)
        assert excinfo.value.report.check == "transport"
        assert "no reply within" in excinfo.value.report.detail
        # the correlation is dropped on timeout: nothing leaks in _pending,
        # and a reply limping in later would count as late, not resolve
        with pytest.raises(ReplyCancelled):
            pending.reply.result()
        assert endpoint.in_flight == 0


class TestBlockingAdapters:
    def test_in_process_endpoint_still_works(self, parp_env, keys):
        """begin/collect against a plain in-process FullNodeServer: the
        future resolves at submit time, collect verifies as usual."""
        session = parp_env.session
        pending = session.begin_request(
            RpcCall.create("eth_getBalance", keys.alice.address))
        assert pending.reply.done()           # resolved synchronously
        outcome = session.collect(pending)
        assert outcome.report.classification.value == "valid"

    def test_blocking_methods_equal_begin_collect(self, sim_session, keys):
        network, server, binding, endpoint, session = sim_session
        blocking = session.get_balance(keys.alice.address)
        collected = session.collect(session.begin_request(
            RpcCall.create("eth_getBalance", keys.alice.address)))
        assert blocking == 5 * TOKEN
        assert collected.report.classification.value == "valid"
        assert session.channel.acked == session.channel.spent
