"""Gossip relay invariants under arbitrary topologies and interleavings.

Random meshes, random publishers, random latencies: however messages race
through the overlay, (1) no subscriber ever sees one publication twice,
(2) the hop TTL bounds how far a flood travels, and (3) every node's dedup
cache stays within its configured size.
"""

from collections import deque
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossip import GossipMessage, GossipNode, pubsub
from repro.net import SimNetwork, UniformLatency


def build_world(n_nodes: int, edges: list[tuple[int, int]], seed: int,
                fanout: int):
    network = SimNetwork(latency=UniformLatency(0.001, 0.05, seed=seed))
    nodes = [GossipNode(network, f"g{i}", fanout=fanout)
             for i in range(n_nodes)]
    for a, b in edges:
        if a != b:
            nodes[a].add_peer(f"g{b}")
            nodes[b].add_peer(f"g{a}")
    return network, nodes


def bfs_distances(n_nodes: int, edges: list[tuple[int, int]],
                  start: int) -> dict[int, int]:
    adjacency: dict[int, set[int]] = {i: set() for i in range(n_nodes)}
    for a, b in edges:
        if a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        here = queue.popleft()
        for peer in adjacency[here]:
            if peer not in dist:
                dist[peer] = dist[here] + 1
                queue.append(peer)
    return dist


@st.composite
def topologies(draw):
    n = draw(st.integers(2, 7))
    possible = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), min_size=1,
                          max_size=len(possible), unique=True))
    return n, edges


@settings(max_examples=60, deadline=None)
@given(
    topo=topologies(),
    publishes=st.lists(
        st.tuples(st.integers(0, 6), st.binary(min_size=0, max_size=12)),
        min_size=1, max_size=12),
    seed=st.integers(0, 2 ** 16),
    ttl=st.integers(0, 5),
    fanout=st.integers(1, 6),
)
def test_no_double_delivery_and_ttl_bound(topo, publishes, seed, ttl, fanout):
    n_nodes, edges = topo
    network, nodes = build_world(n_nodes, edges, seed, fanout)

    deliveries: dict[int, list[bytes]] = {i: [] for i in range(n_nodes)}
    for i, node in enumerate(nodes):
        node.subscribe("t", lambda m, i=i: deliveries[i].append(m.msg_id))

    published: list[tuple[int, GossipMessage]] = []
    with mock.patch.object(pubsub, "DEFAULT_TTL", ttl):
        for origin, payload in publishes:
            origin %= n_nodes
            published.append((origin, nodes[origin].publish("t", payload)))
        network.run()

    # (1) at-most-once delivery per (subscriber, publication)
    for i in range(n_nodes):
        assert len(deliveries[i]) == len(set(deliveries[i])), (
            f"node {i} saw a message twice")

    # (2) the TTL bounds propagation distance: a publish with ttl T is
    # relayed at most T times, so only nodes within T+1 hops can hear it
    for origin, message in published:
        dist = bfs_distances(n_nodes, edges, origin)
        for i in range(n_nodes):
            if message.msg_id in deliveries[i]:
                assert i in dist, f"unreachable node {i} was delivered to"
                assert dist[i] <= ttl + 1, (
                    f"node {i} at distance {dist[i]} heard a ttl={ttl} flood")

    # conservation: nothing is delivered that was never published
    all_ids = {m.msg_id for _, m in published}
    for i in range(n_nodes):
        assert set(deliveries[i]) <= all_ids


@settings(max_examples=40, deadline=None)
@given(
    topo=topologies(),
    n_messages=st.integers(1, 60),
    cache=st.integers(1, 16),
    seed=st.integers(0, 2 ** 16),
)
def test_seen_cache_stays_bounded(topo, n_messages, cache, seed):
    n_nodes, edges = topo
    network, nodes = build_world(n_nodes, edges, seed, fanout=6)
    with mock.patch.object(pubsub, "DEFAULT_SEEN_CACHE", cache):
        for k in range(n_messages):
            nodes[k % n_nodes].publish("t", k.to_bytes(2, "big"))
            if k % 5 == 0:
                network.run()
        network.run()
    for node in nodes:
        assert len(node._seen) <= cache


@settings(max_examples=40, deadline=None)
@given(
    duplicates=st.integers(1, 8),
    seed=st.integers(0, 2 ** 16),
)
def test_direct_injection_of_relay_copies_dedups(duplicates, seed):
    """Even raw re-injections of the same wire message (what a buggy or
    hostile peer would send) deliver exactly once."""
    network = SimNetwork(latency=UniformLatency(0.001, 0.02, seed=seed))
    node = GossipNode(network, "victim")
    seen: list[bytes] = []
    node.subscribe("t", lambda m: seen.append(m.msg_id))
    message = GossipMessage(topic="t", payload=b"x", origin="ghost", seq=0,
                            ttl=3)
    for i in range(duplicates):
        # vary the ttl the way relay copies do: identity must not change
        copy = GossipMessage(topic="t", payload=b"x", origin="ghost", seq=0,
                             ttl=max(0, 3 - i))
        network.send(f"peer{i}", "victim", copy, size_bytes=copy.wire_size)
    network.run()
    assert len(seen) == 1
    assert node.stats.duplicates_dropped == duplicates - 1
