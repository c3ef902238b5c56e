"""Property tests on protocol data: messages, channels, settlement, HP codes."""

from hypothesis import given, settings, strategies as st

from repro.crypto import PrivateKey, keccak256
from repro.parp.channel import ChannelError, ClientChannel, ServerChannel
from repro.parp.messages import (
    MessageError,
    PARPRequest,
    PARPResponse,
    RpcCall,
)
from repro.trie.nibbles import hp_decode, hp_encode

LC = PrivateKey.from_seed("prop:lc")
FN = PrivateKey.from_seed("prop:fn")
ALPHA = keccak256(b"prop")[:16]
H_B = keccak256(b"prop-h")

nibbles = st.lists(st.integers(0, 15), max_size=24).map(tuple)
amounts = st.integers(min_value=0, max_value=(1 << 128) - 1)
methods = st.sampled_from(["eth_getBalance", "eth_blockNumber", "m"])


class TestHexPrefix:
    @given(nibbles, st.booleans())
    @settings(max_examples=300)
    def test_roundtrip(self, path, is_leaf):
        assert hp_decode(hp_encode(path, is_leaf)) == (path, is_leaf)

    @given(nibbles, nibbles, st.booleans(), st.booleans())
    def test_injective(self, a, b, leaf_a, leaf_b):
        if (a, leaf_a) != (b, leaf_b):
            assert hp_encode(a, leaf_a) != hp_encode(b, leaf_b)


class TestMessageRoundtrips:
    @given(amounts, methods, st.binary(max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_request_wire_roundtrip(self, amount, method, param):
        request = PARPRequest.build(
            ALPHA, H_B, amount, RpcCall.create(method, param), LC,
        )
        decoded = PARPRequest.decode_wire(request.encode_wire())
        assert decoded == request
        assert decoded.verify() == LC.address

    @given(amounts, st.integers(0, 2 ** 64 - 1), st.binary(max_size=64),
           st.lists(st.binary(min_size=1, max_size=64), max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_response_wire_roundtrip(self, amount, m_b, result, proof):
        request = PARPRequest.build(
            ALPHA, H_B, amount, RpcCall.create("eth_blockNumber"), LC,
        )
        response = PARPResponse.build(ALPHA, request, m_b, result, proof, FN)
        decoded = PARPResponse.decode_wire(response.encode_wire())
        assert decoded == response
        assert decoded.signer(ALPHA) == FN.address

    @given(st.binary(max_size=300))
    @settings(max_examples=200)
    def test_request_decode_never_crashes(self, blob):
        try:
            PARPRequest.decode_wire(blob)
        except MessageError:
            pass

    @given(st.binary(max_size=300))
    @settings(max_examples=200)
    def test_response_decode_never_crashes(self, blob):
        try:
            PARPResponse.decode_wire(blob)
        except MessageError:
            pass


class TestChannelInvariants:
    @given(st.integers(1, 10 ** 12), st.lists(st.integers(0, 10 ** 9), max_size=20))
    @settings(max_examples=100)
    def test_client_spend_monotone_and_bounded(self, budget, prices):
        channel = ClientChannel(ALPHA, FN.address, budget=budget)
        previous = 0
        for price in prices:
            try:
                amount = channel.next_amount(price)
            except ChannelError:
                assert channel.spent + price > budget
                continue
            channel.record_request(amount)
            assert amount >= previous
            assert channel.spent <= budget
            previous = amount

    @given(st.integers(1, 10 ** 12), st.integers(0, 10 ** 12))
    @settings(max_examples=100)
    def test_settlement_conserves_budget(self, budget, claimed):
        """CMM math: payout + refund == budget for any claimed amount."""
        payout = min(claimed, budget)
        refund = budget - payout
        assert payout + refund == budget
        assert payout >= 0 and refund >= 0

    @given(st.lists(st.integers(1, 10 ** 9), min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_server_retains_maximum(self, increments):
        budget = sum(increments)
        server_channel = ServerChannel(ALPHA, LC.address, budget=budget)
        cumulative = 0
        for inc in increments:
            cumulative += inc
            request = PARPRequest.build(
                ALPHA, H_B, cumulative, RpcCall.create("eth_blockNumber"), LC,
            )
            server_channel.accept_request_payment(request, min_increment=inc)
        assert server_channel.latest_amount == cumulative
        _, amount, sig = server_channel.redeemable_state()
        # the retained proof is on-chain valid for exactly the max amount
        from repro.crypto import Signature, recover_address
        from repro.parp.messages import payment_digest

        assert recover_address(payment_digest(ALPHA, amount),
                               Signature.from_bytes(sig)) == LC.address


class TestPcnConservation:
    @given(st.lists(st.integers(1, 1_000), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_capacity_conserved_across_payments(self, payments):
        from repro.crypto.keys import Address
        from benchmarks.pcn import ChannelGraph, PCNError

        src = Address(b"\x01" * 20)
        mid = Address(b"\x02" * 20)
        dst = Address(b"\x03" * 20)
        graph = ChannelGraph()
        graph.add_channel(src, mid, capacity=100_000, fee_ppm=10_000)
        graph.add_channel(mid, dst, capacity=100_000, fee_ppm=10_000)
        sent_total = 0
        for amount in payments:
            try:
                route = graph.pay(src, dst, amount)
            except PCNError:
                continue
            sent_total += route.total_sent
        assert graph.capacity(src, mid) == 100_000 - sent_total
        assert graph.capacity(src, mid) >= 0


@st.composite
def channel_graphs(draw):
    """≤ 6 nodes, random fees; an edge either cannot carry the amount or
    carries it with every downstream fee to spare, so the route the search
    picks is never refused by the hop-by-hop re-pricing."""
    from repro.crypto.keys import Address

    nodes = [Address(bytes([i + 1]) * 20) for i in range(draw(st.integers(2, 6)))]
    amount = draw(st.integers(2, 10_000))
    edges = {}
    for u in nodes:
        for v in nodes:
            if u != v and draw(st.booleans()):
                usable = draw(st.booleans())
                capacity = 10 ** 12 if usable else draw(st.integers(1, amount - 1))
                edges[u, v] = (capacity, draw(st.integers(0, 50_000)),
                               draw(st.integers(0, 50)))
    return nodes, amount, edges


class TestPcnCheapestRoute:
    """The stdlib Dijkstra of ``ChannelGraph.find_route`` against a
    brute-force enumeration of simple paths (the oracle lives here)."""

    @given(channel_graphs())
    @settings(max_examples=200, deadline=None)
    def test_route_is_a_cheapest_usable_path(self, drawn):
        from benchmarks.pcn import ChannelGraph, PCNError

        nodes, amount, edges = drawn
        src, dst = nodes[0], nodes[-1]
        graph = ChannelGraph()
        for (u, v), (capacity, fee_ppm, base_fee) in edges.items():
            graph.add_channel(u, v, capacity, fee_ppm=fee_ppm, base_fee=base_fee)

        def weight(u, v):
            capacity, fee_ppm, base_fee = edges[u, v]
            return base_fee + amount * fee_ppm // 1_000_000 + 1

        def simple_path_costs(path, cost):
            if path[-1] == dst:
                yield cost
                return
            for (u, v), (capacity, _, _) in edges.items():
                if u == path[-1] and v not in path and capacity >= amount:
                    yield from simple_path_costs(path + [v], cost + weight(u, v))

        costs = list(simple_path_costs([src], 0))
        try:
            route = graph.find_route(src, dst, amount)
        except PCNError:
            assert not costs
            return
        assert costs, "routed where no usable path exists"
        hops = route.hops
        assert hops[0] == src and hops[-1] == dst and len(set(hops)) == len(hops)
        assert all(edges[u, v][0] >= amount for u, v in zip(hops, hops[1:]))
        assert sum(weight(u, v) for u, v in zip(hops, hops[1:])) == min(costs)
        assert route.amount == amount and route.fees >= 0
