"""Concurrency semantics of the futures transport, property-tested.

K requests in flight across M servers under random latencies, loss, and
partitions: every :class:`PendingReply` must resolve **exactly once**
(value, error, or cancel) and a reply must never resolve a future it does
not correlate with — the two invariants everything above the transport
(hedged queries, pipelined sessions, first-valid failover) stands on.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import Address
from repro.net import (
    RemoteError,
    SimEndpoint,
    SimNetwork,
    SimServerBinding,
    UniformLatency,
    wait_any,
)
from repro.parp.server import ServeError


class EchoServer:
    """Echoes (server name, token) — enough to detect cross-correlation."""

    def __init__(self, name: str) -> None:
        self.name = name

    def serve_header(self, token):
        return (self.name, token)

    def serve_head_number(self):
        raise RuntimeError("injected server bug")

    def serve_request(self, wire):
        raise ServeError("injected serve rejection")


#: per-request behavior classes the strategy draws from
KINDS = ("echo", "remote-bug", "serve-error")


@settings(max_examples=40, deadline=None)
@given(
    n_servers=st.integers(2, 4),
    seed=st.integers(0, 2 ** 16),
    drop_rate=st.sampled_from([0.0, 0.0, 0.25, 0.5]),
    requests=st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from(KINDS)),
        min_size=1, max_size=16,
    ),
    partitions=st.sets(st.integers(0, 3), max_size=2),
)
def test_replies_resolve_exactly_once_and_never_cross(
        n_servers, seed, drop_rate, requests, partitions):
    net = SimNetwork(latency=UniformLatency(0.005, 0.25, seed=seed),
                     drop_rate=drop_rate, seed=seed)
    endpoints = []
    for j in range(n_servers):
        SimServerBinding(net, f"srv-{j}", EchoServer(f"srv-{j}"))
        endpoints.append(SimEndpoint(net, f"lc-{j}", f"srv-{j}",
                                     Address.zero(), timeout=5.0))

    resolutions: Counter[int] = Counter()
    issued = []  # (reply, server_index, token, kind)
    half = len(requests) // 2
    for i, (server_pick, kind) in enumerate(requests):
        if i == half:
            # mid-burst, sever some client↔server links: in-flight traffic
            # (either direction) on those links is lost
            for j in partitions:
                if j < n_servers:
                    net.partition(f"lc-{j}", f"srv-{j}")
        j = server_pick % n_servers
        endpoint = endpoints[j]
        if kind == "echo":
            reply = endpoint.submit("serve_header", i)
        elif kind == "remote-bug":
            reply = endpoint.submit("serve_head_number")
        else:
            reply = endpoint.submit("serve_request", b"x")
        reply.add_done_callback(lambda r, i=i: resolutions.update([i]))
        issued.append((reply, j, i, kind))

    net.run()  # drain everything that can still be delivered

    for reply, j, token, kind in issued:
        if reply.ok:
            assert kind == "echo"
            # the value correlates with exactly this request's server+token
            assert reply.result() == (f"srv-{j}", token)
        elif reply.done():
            exc = reply.exception()
            if kind == "remote-bug":
                assert isinstance(exc, RemoteError)
                assert exc.remote_type == "RuntimeError"
            else:
                assert kind == "serve-error"
                assert isinstance(exc, ServeError)
                assert not isinstance(exc, RemoteError)
        else:
            # dropped or partitioned: still pending — cancel resolves it
            assert reply.cancel() is True
            assert reply.cancelled()

    # the exactly-once invariant: every reply resolved one single time
    assert resolutions == Counter({i: 1 for i in range(len(issued))})
    # and no correlation leaked: nothing is left pending on any endpoint
    for endpoint in endpoints:
        assert endpoint.in_flight == 0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2 ** 16),
    drop_rate=st.sampled_from([0.0, 0.0, 0.3]),
    legs=st.lists(
        st.lists(st.sampled_from(("echo", "remote-bug")),
                 min_size=1, max_size=3),
        min_size=2, max_size=4,
    ),
)
def test_multi_leg_collect_pays_each_leg_exactly_once(seed, drop_rate, legs):
    """The scatter-gather collection pattern over raw futures.

    Each leg races several candidate servers; ``wait_any`` hands replies
    back in resolution order, the first OK reply of a leg wins (one "payment
    ack"), and the leg's losers are cancelled on the spot.  Invariants:

    * at most one payment per leg, and (lossless) exactly one per leg that
      has any honest candidate;
    * a winner's value correlates with its own leg+candidate — cancelling
      siblings never leaks a reply across legs;
    * every reply a loser's server still sends lands as ``late_replies``,
      never resolving a cancelled future;
    * every future resolves exactly once and nothing stays in flight.
    """
    net = SimNetwork(latency=UniformLatency(0.005, 0.25, seed=seed),
                     drop_rate=drop_rate, seed=seed)
    entries = {}   # reply → (leg index, candidate index)
    endpoints = []
    resolutions: Counter[tuple] = Counter()
    for i, kinds in enumerate(legs):
        for c, kind in enumerate(kinds):
            SimServerBinding(net, f"srv-{i}-{c}", EchoServer(f"srv-{i}-{c}"))
            endpoint = SimEndpoint(net, f"lc-{i}-{c}", f"srv-{i}-{c}",
                                   Address.zero(), timeout=5.0)
            endpoints.append(endpoint)
            if kind == "echo":
                reply = endpoint.submit("serve_header", (i, c))
            else:
                reply = endpoint.submit("serve_head_number")
            reply.add_done_callback(
                lambda r, key=(i, c): resolutions.update([key]))
            entries[reply] = (i, c)

    winners: dict[int, object] = {}
    payments = Counter()
    cancelled_in_flight = 0
    in_flight = list(entries)
    while (reply := wait_any(in_flight)) is not None:
        in_flight.remove(reply)
        i, c = entries[reply]
        if i in winners or not reply.ok:
            continue   # a loser that landed before (or without) cancellation
        winners[i] = reply
        payments[i] += 1
        for other, (oi, _) in entries.items():
            if oi == i and other is not reply and not other.done():
                if other.cancel():
                    cancelled_in_flight += 1

    net.run()   # drain the losers' replies still crossing the wire
    for reply in entries:
        if not reply.done():      # an entirely-dropped straggler
            assert reply.cancel() is True

    for i, reply in winners.items():
        i_, c = entries[reply]
        assert i_ == i and payments[i] == 1
        assert reply.result() == (f"srv-{i}-{c}", (i, c))
    assert all(count <= 1 for count in payments.values())
    if drop_rate == 0.0:
        # lossless: every leg with an honest candidate pays exactly once,
        # and every cancelled loser's reply came home late (counted, dropped)
        for i, kinds in enumerate(legs):
            assert payments[i] == (1 if "echo" in kinds else 0)
        assert sum(e.late_replies for e in endpoints) == cancelled_in_flight
    else:
        assert sum(e.late_replies for e in endpoints) <= cancelled_in_flight

    assert resolutions == Counter({key: 1 for key in entries.values()})
    for endpoint in endpoints:
        assert endpoint.in_flight == 0
