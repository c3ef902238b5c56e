"""The futures transport: submit, correlation, combinators, error typing."""

import pytest

from repro.crypto.keys import Address
from repro.net import (
    EndpointTimeout,
    FixedLatency,
    PendingReply,
    RemoteError,
    ReplyCancelled,
    SimEndpoint,
    SimNetwork,
    SimServerBinding,
    wait_all,
    wait_any,
)
from repro.parp.server import ServeError


class EchoServer:
    """Implements just enough of the allowed endpoint surface to echo."""

    def __init__(self, name: str) -> None:
        self.name = name

    def serve_header(self, token):
        return (self.name, token)

    def serve_head_number(self):
        raise RuntimeError("head exploded")

    def serve_request(self, wire):
        raise ServeError("unknown channel")


def make_rig(n_servers: int = 1, latency: float = 0.05,
             timeout: float = 1.0):
    net = SimNetwork(latency=FixedLatency(latency))
    endpoints = []
    for j in range(n_servers):
        SimServerBinding(net, f"srv-{j}", EchoServer(f"srv-{j}"))
        endpoints.append(SimEndpoint(net, f"lc-{j}", f"srv-{j}",
                                     Address.zero(), timeout=timeout))
    return net, endpoints


class TestPendingReply:
    def test_submit_returns_immediately_and_resolves_on_delivery(self):
        net, (ep,) = make_rig()
        reply = ep.submit("serve_header", 7)
        assert not reply.done() and not reply.ok
        assert ep.in_flight == 1
        net.run()
        assert reply.done() and reply.ok
        assert reply.result() == ("srv-0", 7)
        assert ep.in_flight == 0

    def test_result_drives_the_loop(self):
        net, (ep,) = make_rig()
        reply = ep.submit("serve_header", 3)
        assert reply.result() == ("srv-0", 3)     # no explicit run() needed
        assert net.clock.now() == pytest.approx(0.1)

    def test_many_replies_never_cross_correlate(self):
        net, (ep,) = make_rig()
        replies = [ep.submit("serve_header", i) for i in range(10)]
        assert ep.in_flight == 10                 # genuinely all in flight
        net.run()
        for i, reply in enumerate(replies):
            assert reply.result() == ("srv-0", i)

    def test_timeout_raises_endpoint_timeout(self):
        net, (ep,) = make_rig()
        net.isolate("srv-0")
        reply = ep.submit("serve_header", 1)
        with pytest.raises(EndpointTimeout):
            reply.result()
        assert net.clock.now() == pytest.approx(1.0)   # the synchrony bound
        assert not reply.done()                        # still formally pending

    def test_cancel_wins_over_late_reply(self):
        net, (ep,) = make_rig(latency=0.5)
        reply = ep.submit("serve_header", 1)
        assert reply.cancel() is True
        assert reply.cancelled() and reply.done() and not reply.ok
        net.run()                                  # the reply still arrives …
        assert reply.cancelled()                   # … but cannot resolve it
        assert ep.late_replies == 1
        with pytest.raises(ReplyCancelled):
            reply.result()

    def test_cancel_after_resolution_is_a_noop(self):
        net, (ep,) = make_rig()
        reply = ep.submit("serve_header", 1)
        net.run()
        assert reply.cancel() is False
        assert reply.ok

    def test_resolves_exactly_once(self):
        fired = []
        reply = PendingReply(method="m", target="t")
        reply.add_done_callback(lambda r: fired.append(r.state))
        assert reply.set_result(1) is True
        assert reply.set_result(2) is False
        assert reply.set_exception(ValueError()) is False
        assert reply.cancel() is False
        assert reply.result() == 1
        assert fired == ["done"]

    def test_exception_accessor(self):
        net, (ep,) = make_rig()
        reply = ep.submit("serve_head_number")
        net.run()
        exc = reply.exception()
        assert isinstance(exc, RemoteError)
        assert not reply.ok and reply.done()


class TestErrorTyping:
    def test_serve_layer_errors_map_to_serve_error(self):
        net, (ep,) = make_rig()
        reply = ep.submit("serve_request", b"junk")
        net.run()
        with pytest.raises(ServeError) as excinfo:
            reply.result()
        assert not isinstance(excinfo.value, RemoteError)
        assert "unknown channel" in str(excinfo.value)

    def test_unexpected_server_exceptions_carry_their_type(self):
        net, (ep,) = make_rig()
        reply = ep.submit("serve_head_number")
        net.run()
        with pytest.raises(RemoteError) as excinfo:
            reply.result()
        assert excinfo.value.remote_type == "RuntimeError"
        assert "head exploded" in str(excinfo.value)

    def test_unknown_method_is_a_serve_error(self):
        net, (ep,) = make_rig()
        reply = ep.submit("format_disk")
        net.run()
        assert isinstance(reply.exception(), ServeError)


class TestCombinators:
    def test_wait_any_returns_the_fastest(self):
        net = SimNetwork(latency=FixedLatency(0.01))
        SimServerBinding(net, "fast", EchoServer("fast"))
        slow_net_binding = SimServerBinding(net, "slow", EchoServer("slow"))
        ep_fast = SimEndpoint(net, "lc-f", "fast", Address.zero(), timeout=5.0)
        ep_slow = SimEndpoint(net, "lc-s", "slow", Address.zero(), timeout=5.0)
        # delay the slow leg by suspending its binding until after the race
        slow_net_binding.offline = True
        slow = ep_slow.submit("serve_header", 2)
        fast = ep_fast.submit("serve_header", 1)
        first = wait_any([slow, fast], timeout=1.0)
        assert first is fast
        assert fast.result() == ("fast", 1)
        assert not slow.done()                     # provably still in flight

    def test_wait_any_timeout_returns_none(self):
        net, (ep,) = make_rig()
        net.isolate("srv-0")
        replies = [ep.submit("serve_header", i) for i in range(3)]
        assert wait_any(replies, timeout=0.5) is None
        assert net.clock.now() == pytest.approx(0.5)

    def test_wait_any_prefers_already_resolved(self):
        done = PendingReply.completed("x")
        pending = PendingReply(method="m")
        assert wait_any([pending, done], timeout=1.0) is done

    def test_wait_all(self):
        net, endpoints = make_rig(n_servers=3)
        replies = [ep.submit("serve_header", i)
                   for i, ep in enumerate(endpoints)]
        assert wait_all(replies, timeout=1.0) is True
        assert [r.result() for r in replies] == \
            [(f"srv-{i}", i) for i in range(3)]

    def test_combinators_drive_every_network(self):
        """Replies spanning two simulated networks each get their own event
        loop driven — a responsive server on the second network must not be
        misread as a timeout just because the first loop was driven."""
        net_a, (ep_a,) = make_rig()
        net_b = SimNetwork(latency=FixedLatency(0.05))
        SimServerBinding(net_b, "srv-b", EchoServer("srv-b"))
        ep_b = SimEndpoint(net_b, "lc-b", "srv-b", Address.zero(), timeout=1.0)
        net_a.isolate("srv-0")                    # network A never answers
        dead = ep_a.submit("serve_header", 1)
        live = ep_b.submit("serve_header", 2)
        assert wait_any([dead, live], timeout=1.0) is live
        assert live.result() == ("srv-b", 2)
        net_a.rejoin("srv-0")
        more = [ep_a.submit("serve_header", 3), ep_b.submit("serve_header", 4)]
        assert wait_all(more, timeout=1.0) is True
        assert [r.result() for r in more] == [("srv-0", 3), ("srv-b", 4)]

    def test_wait_all_counts_cancellations_as_resolved(self):
        net, (ep,) = make_rig()
        net.isolate("srv-0")
        replies = [ep.submit("serve_header", i) for i in range(2)]
        assert wait_all(replies, timeout=0.2) is False
        for reply in replies:
            reply.cancel()
        assert wait_all(replies, timeout=0.2) is True


class TestUnreachableDestinations:
    def test_submit_to_deregistered_server_times_out_instead_of_crashing(self):
        """A deregistered server looks like an unreachable host: the request
        is dropped and the client hits its timeout path mid-failover."""
        net, (ep,) = make_rig()
        net.deregister("srv-0")
        reply = ep.submit("serve_header", 1)      # must not raise
        assert wait_any([reply], timeout=0.5) is None
        assert net.stats.link("lc-0", "srv-0").dropped == 1
        with pytest.raises(EndpointTimeout):
            reply.result(timeout=0.1)

    def test_blocking_facade_times_out_on_unknown_destination(self):
        net = SimNetwork(latency=FixedLatency(0.01))
        ep = SimEndpoint(net, "lc", "ghost", Address.zero(), timeout=0.3)
        with pytest.raises(EndpointTimeout):
            ep.serve_head_number()
        assert net.stats.messages_dropped == 1


class TestOneEndpointMethodTable:
    """Binding allow-list, endpoint adapters, the ``ServerEndpoint``
    Protocol and ``FullNodeServer`` name the same methods."""

    def test_binding_endpoint_protocol_and_server_agree(self):
        from repro.net.transport import ENDPOINT_METHODS
        from repro.parp.client import ServerEndpoint
        from repro.parp.server import FullNodeServer

        table = set(ENDPOINT_METHODS)
        assert len(table) == len(ENDPOINT_METHODS)
        declared = {name for name, value in vars(ServerEndpoint).items()
                    if callable(value) and not name.startswith("_")}
        assert declared == table
        assert SimServerBinding._ALLOWED == table
        for name in table:
            assert callable(vars(SimEndpoint)[name]), name
            assert callable(getattr(FullNodeServer, name)), name
        # the rest of the endpoint's public surface is transport, not protocol
        public = {name for name, value in vars(SimEndpoint).items()
                  if callable(value) and not name.startswith("_")}
        assert public - table == {"submit", "on_message"}

    def test_every_adapter_is_a_submit_then_wait(self):
        net, (ep,) = make_rig()
        assert ep.serve_header(7) == ("srv-0", 7)
        with pytest.raises(RemoteError) as excinfo:
            ep.serve_head_number()
        assert excinfo.value.remote_type == "RuntimeError"
        with pytest.raises(ServeError, match="unknown endpoint method"):
            ep._invoke("mark_closed", b"\x00" * 16)
